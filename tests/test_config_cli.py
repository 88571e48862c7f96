import os
import subprocess
import sys

import numpy as np
import pytest

from trhreg import cli, verify
from trhreg.cli import main
from trhreg.config import ConfigError, ExperimentConfig, parse_kv
from trhreg.layer_traces import NonSmoothInput
from trhreg.network import TrainingDivergence, load_checkpoint
from trhreg.numerics import OracleError
from trhreg.pacbayes import OutOfRegimeError
from trhreg.trainer import MeasureConfig
from trhreg.verify import check_hutchinson

BASE_CONFIG = """
# toy experiment
dataset.kind = two_moons
dataset.n = 80
dataset.noise_std = 0.1
dataset.seed = 1

net.hidden = 8,8

loss.kind = at
attack.norm = linf
attack.delta = 0.02
attack.steps = 1

trh.lambda = 0.1
train.epochs = 5
train.base_lr = 0.1
train.lr_decay = constant
train.seed = 0
"""


class TestParser:
    def test_comments_and_whitespace(self):
        kv = parse_kv("a.b = 1  # trailing\n\n   # full line\n c.d=2\n")
        with pytest.raises(ConfigError):
            # unknown keys rejected at reader level, not parse level
            ExperimentConfig.from_text("a.b = 1\n")
        assert kv["a.b"] == ("1", 1)
        assert kv["c.d"] == ("2", 4)

    def test_missing_equals_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_kv("a.b = 1\nnonsense\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_kv("a.b = 1\na.b = 2\n")

    def test_unknown_key_reports_key_and_line(self):
        with pytest.raises(ConfigError, match=r"bogus\.key"):
            ExperimentConfig.from_text("bogus.key = 3\n")

    def test_bad_value_reports_key(self):
        with pytest.raises(ConfigError, match=r"train\.epochs"):
            ExperimentConfig.from_text("train.epochs = soon\n")

    def test_defaults_round_trip(self):
        cfg = ExperimentConfig.from_text(BASE_CONFIG)
        assert cfg.dataset_n == 80
        assert cfg.hidden == [8, 8]
        assert cfg.loss.variant == "at"
        assert cfg.trh.lam == 0.1
        assert cfg.train.epochs == 5

    def test_trades_selects_kl_inner_loss(self):
        cfg = ExperimentConfig.from_text(
            "loss.kind = trades\nloss.penalty = 6.0\n")
        assert cfg.attack.inner_loss == "kl"
        assert cfg.loss.penalty == 6.0

    def test_reparameterization_consistency_enforced(self):
        good = ("pacbayes.sigma0_sq = 0.2\npacbayes.beta = 10\n"
                "trh.lambda = 0.1\ntrain.gamma = 0.25\n")
        cfg = ExperimentConfig.from_text(good)
        assert cfg.pacbayes is not None
        bad = ("pacbayes.sigma0_sq = 0.2\npacbayes.beta = 10\n"
               "trh.lambda = 0.3\n")
        with pytest.raises(ConfigError, match=r"trh\.lambda"):
            ExperimentConfig.from_text(bad)
        bad2 = ("pacbayes.sigma0_sq = 0.2\npacbayes.beta = 10\n"
                "train.gamma = 0.5\n")
        with pytest.raises(ConfigError, match=r"train\.gamma"):
            ExperimentConfig.from_text(bad2)
        # lambda and gamma share one check, which a nan fails
        for key in ("trh.lambda", "train.gamma"):
            with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
                ExperimentConfig.from_text(
                    f"pacbayes.sigma0_sq = 0.2\npacbayes.beta = 10\n{key} = nan\n")

    def test_csv_requires_path(self):
        with pytest.raises(ConfigError, match=r"dataset\.path"):
            ExperimentConfig.from_text("dataset.kind = csv\n")

    def test_normalized_attack_radius_rescaled(self, tmp_path):
        path = tmp_path / "d.csv"
        rows = ["%f,%f,%d" % (10 * x, 10 * x + 1, i % 2) for i, x in
                enumerate(np.linspace(0, 1, 20))]
        path.write_text("\n".join(rows) + "\n")
        cfg = ExperimentConfig.from_text(
            f"dataset.kind = csv\ndataset.path = {path}\n"
            "dataset.normalize = true\nattack.delta = 0.5\n")
        ds = cfg.build_dataset()
        attack = cfg.effective_attack(ds)
        assert attack.delta == pytest.approx(0.5 / ds.scale)


def write_config(tmp_path, text=BASE_CONFIG, name="cfg.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestCliTrain:
    def test_writes_outputs_and_exits_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "run")
        assert main(["train", "--config", cfg, "--out", out]) == 0
        metrics = (tmp_path / "run" / "metrics.csv").read_text()
        assert metrics.splitlines()[-1].startswith("4,")  # epoch 4 row
        net = load_checkpoint(tmp_path / "run" / "checkpoint.txt")
        assert net.input_dim == 2

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = write_config(tmp_path, "bogus.key = 1\n", "bad.txt")
        assert main(["train", "--config", bad]) == 1
        assert "config error" in capsys.readouterr().err

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "nope.txt")]) == 1

    def test_divergence_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG.replace(
            "train.base_lr = 0.1", "train.base_lr = 1e9"), "diverge.txt")
        out = str(tmp_path / "divrun")
        assert main(["train", "--config", cfg, "--out", out]) == 2
        # last-good checkpoint still written
        assert (tmp_path / "divrun" / "checkpoint.txt").exists()

    def test_trades_penalty_logged_in_header(self, tmp_path):
        text = BASE_CONFIG.replace("loss.kind = at",
                                   "loss.kind = trades\nloss.penalty = 6.0")
        cfg = write_config(tmp_path, text, "trades.txt")
        out = str(tmp_path / "trun")
        assert main(["train", "--config", cfg, "--out", out]) == 0
        header = (tmp_path / "trun" / "metrics.csv").read_text()
        assert "# loss.lambda_t = 6.0" in header


class TestCliEval:
    def test_zero_radius_matches_clean(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "run")
        main(["train", "--config", cfg, "--out", out])
        capsys.readouterr()  # drop training output
        zero_cfg = write_config(tmp_path, BASE_CONFIG.replace(
            "attack.delta = 0.02", "attack.delta = 0.0"), "zero.txt")
        ckpt = str(tmp_path / "run" / "checkpoint.txt")
        assert main(["eval", "--config", zero_cfg, "--checkpoint", ckpt,
                     "--out", out]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        clean = float(line.split()[0].split("=")[1])
        robust = float(line.split()[1].split("=")[1])
        assert clean == robust

    def test_repeated_eval_reproducible(self, tmp_path):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "run")
        main(["train", "--config", cfg, "--out", out])
        ckpt = str(tmp_path / "run" / "checkpoint.txt")
        contents = []
        for name in ("e1", "e2"):
            edir = str(tmp_path / name)
            assert main(["eval", "--config", cfg, "--checkpoint", ckpt,
                         "--out", edir, "--restarts", "3"]) == 0
            contents.append((tmp_path / name / "eval.csv").read_bytes())
        assert contents[0] == contents[1]

    def test_trades_eval_attacks_with_ce_with_or_without_restarts(
            self, tmp_path, capsys):
        # a TRADES config trains against the KL inner loss; evaluation
        # attacks with CE whether or not --restarts is given
        text = BASE_CONFIG.replace(
            "loss.kind = at", "loss.kind = trades\nloss.penalty = 6.0").replace(
            "attack.delta = 0.02\nattack.steps = 1",
            "attack.delta = 0.3\nattack.steps = 5\nattack.restarts = 2")
        cfg = write_config(tmp_path, text, "trades.txt")
        main(["train", "--config", cfg, "--out", str(tmp_path / "run")])
        ckpt = str(tmp_path / "run" / "checkpoint.txt")
        outputs = []
        for name, extra in (("plain", []), ("restarts", ["--restarts", "2"])):
            capsys.readouterr()
            assert main(["eval", "--config", cfg, "--checkpoint", ckpt,
                         "--out", str(tmp_path / name), *extra]) == 0
            outputs.append((capsys.readouterr().out.splitlines()[0],
                            (tmp_path / name / "eval.csv").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_dimension_mismatch_is_config_error(self, tmp_path, capsys):
        # a checkpoint trained on 2-d points, evaluated on 3-d rows
        cfg = write_config(tmp_path)
        out = str(tmp_path / "run")
        main(["train", "--config", cfg, "--out", out])
        (tmp_path / "d.csv").write_text("1.0,2.0,3.0,0\n1.0,2.0,3.0,1\n")
        text = "\n".join(line for line in BASE_CONFIG.splitlines()
                         if not line.startswith(("dataset.n", "dataset.seed")))
        bad_data = write_config(tmp_path, text.replace(
            "dataset.kind = two_moons",
            f"dataset.kind = csv\ndataset.path = {tmp_path}/d.csv"), "mism.txt")
        ckpt = str(tmp_path / "run" / "checkpoint.txt")
        capsys.readouterr()
        assert main(["eval", "--config", bad_data, "--checkpoint", ckpt]) == 1
        assert ("checkpoint input dim 2 does not match dataset dim 3"
                in capsys.readouterr().err)

    def test_fewer_outputs_than_classes_is_config_error(self, tmp_path, capsys):
        # a 2-class checkpoint on data with a label 2
        cfg = write_config(tmp_path)
        main(["train", "--config", cfg, "--out", str(tmp_path / "run")])
        (tmp_path / "d.csv").write_text("0.1,0.2,0\n0.3,0.1,1\n0.5,0.5,2\n")
        text = "\n".join(line for line in BASE_CONFIG.splitlines()
                         if not line.startswith(("dataset.n", "dataset.seed")))
        three = write_config(tmp_path, text.replace(
            "dataset.kind = two_moons",
            f"dataset.kind = csv\ndataset.path = {tmp_path}/d.csv"), "three.txt")
        ckpt = str(tmp_path / "run" / "checkpoint.txt")
        capsys.readouterr()
        assert main(["eval", "--config", three, "--checkpoint", ckpt]) == 1
        err = capsys.readouterr().err
        assert "2 outputs" in err and "3 classes" in err

    def test_checkpoint_with_trailing_line_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        main(["train", "--config", cfg, "--out", str(tmp_path / "run")])
        ckpt = tmp_path / "run" / "checkpoint.txt"
        lines = ckpt.read_text().splitlines()
        ckpt.write_text("\n".join(lines + ["0.5 0.5"]) + "\n")
        capsys.readouterr()
        assert main(["eval", "--config", cfg, "--checkpoint", str(ckpt)]) == 1
        assert f"line {len(lines) + 1} follows the last layer" in capsys.readouterr().err


class TestCliTraceSpectrum:
    def test_trace_csv_schema(self, tmp_path):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "tr")
        assert main(["trace", "--config", cfg, "--out", out,
                     "--measure", "full", "--every", "2", "--probes", "8"]) == 0
        lines = (tmp_path / "tr" / "trace.csv").read_text().splitlines()
        header = [ln for ln in lines if not ln.startswith("#")][0]
        cols = header.split(",")
        assert cols[:4] == ["epoch", "trh_top_analytic", "trh_full_estimate",
                            "trh_full_stderr"]
        assert "trh_layer_1" in cols and "trh_layer_3" in cols
        assert cols[-2:] == ["train_loss", "robust_acc"]

    def test_top_measure_column_matches_layer_column(self, tmp_path):
        # the top analytic value and the top layer closed form are the
        # same quantity through two code paths
        cfg = write_config(tmp_path)
        out = str(tmp_path / "tr2")
        assert main(["trace", "--config", cfg, "--out", out,
                     "--measure", "top", "--every", "1"]) == 0
        lines = [ln for ln in (tmp_path / "tr2" / "trace.csv").read_text()
                 .splitlines() if not ln.startswith("#")]
        cols = lines[0].split(",")
        i_top = cols.index("trh_top_analytic")
        i_l3 = cols.index("trh_layer_3")
        for row in lines[1:]:
            vals = row.split(",")
            assert float(vals[i_top]) == pytest.approx(float(vals[i_l3]),
                                                       rel=1e-10)

    def test_spectrum_csv(self, tmp_path):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "sp")
        assert main(["spectrum", "--config", cfg, "--out", out,
                     "--every", "4", "--probes", "6"]) == 0
        lines = [ln for ln in (tmp_path / "sp" / "spectrum.csv").read_text()
                 .splitlines() if not ln.startswith("#")]
        assert lines[0] == "epoch,layer,trace,trace_sq,eig_mean,eig_std"
        rows = [ln.split(",") for ln in lines[1:]]
        by_epoch = {}
        for r in rows:
            by_epoch.setdefault(int(r[0]), {})[int(r[1])] = list(map(float, r[2:]))
        for epoch, layers in by_epoch.items():
            total = sum(layers[i][0] for i in layers if i > 0)
            assert layers[0][0] == pytest.approx(total, rel=1e-6)
            assert all(layers[i][3] >= 0 for i in layers)


class TestCliSweep:
    def test_duplicate_values_identical_rows(self, tmp_path):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "sw")
        assert main(["sweep", "--config", cfg, "--out", out,
                     "--param", "lambda", "--values", "0.0,0.01,0.01"]) == 0
        lines = [ln for ln in (tmp_path / "sw" / "sweep.csv").read_text()
                 .splitlines() if not ln.startswith("#")]
        assert lines[0] == "value,clean_acc,robust_acc"
        assert lines[2] == lines[3]

    def test_needs_two_values(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["sweep", "--config", cfg, "--param", "lambda",
                     "--values", "0.1"]) == 1

    def test_unknown_param_rejected(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["sweep", "--config", cfg, "--param", "nope",
                     "--values", "0.1,0.2"]) == 1


class TestCliVerify:
    def test_quick_passes(self, capsys):
        assert main(["verify", "--level", "quick"]) == 0
        out = capsys.readouterr().out
        for group in ("gradients", "trh_formulas", "layer_traces", "pacbayes",
                      "hutchinson"):
            assert f"PASS group={group}" in out

    # seeds where the former 3-standard-error probe checks failed by chance
    CHANCE_FAILURES = (778, 904, 958, 1034, 1159, 1238, 1268, 1305, 1460,
                       1564, 1680)

    @pytest.mark.parametrize("seeds", [range(100), CHANCE_FAILURES,
                                       [s + 4 for s in CHANCE_FAILURES]],
                             ids=["0-99", "verify-seeds", "hutchinson-seeds"])
    def test_hutchinson_passes_on_every_seed(self, seeds):
        for seed in seeds:
            results = check_hutchinson(seed)
            assert len(results) == 4
            assert all(r.passed for r in results), (seed, results)

    def test_quick_passes_at_a_former_chance_failure(self, capsys):
        assert main(["verify", "--level", "quick", "--seed", "778"]) == 0
        assert "PASS group=hutchinson checks=4 failed=0" in capsys.readouterr().out

    def test_injected_fault_exits_three(self, capsys, monkeypatch):
        import trhreg.trh as trh_module
        original = trh_module.trh_at
        monkeypatch.setattr(trh_module, "trh_at",
                            lambda trace_adv: -original(trace_adv))
        assert main(["verify", "--level", "quick"]) == 3
        out = capsys.readouterr().out
        assert "FAIL group=trh_formulas" in out
        assert "seed=" in out  # failing checks carry a reproduction seed


class TestCliNamedErrors:
    """Divergence outside a training step, and oracle, smoothness and
    regime errors, get their own exit code and one line on stderr, not a
    traceback."""

    @pytest.mark.parametrize("error,code,words", [
        (TrainingDivergence("objective evaluated to nan"), 2, "diverged"),
        (OracleError("non-finite evaluation at index 7", index=7), 4, "index 7"),
        (NonSmoothInput("pre-activation within 0.001 of a ReLU kink"), 5,
         "non-smooth input"),
        (OutOfRegimeError("trace -9.0 too negative"), 6, "out of regime"),
    ], ids=["diverged", "oracle", "non-smooth", "out-of-regime"])
    def test_exit_code_and_one_line(self, capsys, monkeypatch, error, code, words):
        def raise_error(**kwargs):
            raise error

        # cmd_verify imports run_verification when it runs
        monkeypatch.setattr(verify, "run_verification", raise_error)
        assert main(["verify", "--level", "quick"]) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and words in err and str(error) in err


class TestClosedStdout:
    """A reader that closes stdout early (``trhreg verify | head -1``) ends
    the run with its own exit code and no traceback."""

    @staticmethod
    def run_with_closed_stdout(args, **extra_env):
        env = dict(os.environ, **extra_env)
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
        read_end, write_end = os.pipe()
        os.close(read_end)  # no reader: every write to the pipe fails
        try:
            return subprocess.run([sys.executable, "-m", "trhreg", *args],
                                  stdout=write_end, stderr=subprocess.PIPE,
                                  text=True, env=env, timeout=120)
        finally:
            os.close(write_end)

    def test_verify(self):
        proc = self.run_with_closed_stdout(["verify", "--level", "quick"])
        assert proc.returncode == cli.EXIT_BROKEN_PIPE == 141
        assert proc.stderr == ""

    def test_eval(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["train", "--config", cfg, "--out", str(tmp_path / "run")])
        proc = self.run_with_closed_stdout(
            ["eval", "--config", cfg, "--out", str(tmp_path / "run"),
             "--checkpoint", str(tmp_path / "run" / "checkpoint.txt")])
        assert proc.returncode == cli.EXIT_BROKEN_PIPE
        assert proc.stderr == ""
        assert (tmp_path / "run" / "eval.csv").exists()

    def test_sweep_keeps_every_printed_trial(self, tmp_path):
        # unbuffered, the first trial's line is the write that fails; its
        # row is in sweep.csv already
        cfg = write_config(tmp_path)
        out = tmp_path / "sw"
        proc = self.run_with_closed_stdout(
            ["sweep", "--config", cfg, "--out", str(out), "--param", "lambda",
             "--values", "0.0,0.1"], PYTHONUNBUFFERED="1")
        assert proc.returncode == cli.EXIT_BROKEN_PIPE
        assert proc.stderr == ""
        rows = _lines(out / "sweep.csv")
        assert rows[0] == "value,clean_acc,robust_acc"
        assert [row.split(",")[0] for row in rows[1:]] == ["0.0"]


class TestCliDivergenceOutsideTraining:
    """A non-finite objective met outside a training step (an oracle's
    gradient, the AWP ascent step) exits 2 with one line, not a traceback."""

    def test_measurement_exits_two(self, tmp_path, capsys, monkeypatch):
        import trhreg.trainer as trainer_module

        def raise_error(*args):
            raise TrainingDivergence("objective evaluated to inf")

        monkeypatch.setattr(trainer_module, "measure_trace_row", raise_error)
        cfg = write_config(tmp_path)
        assert main(["trace", "--config", cfg, "--out", str(tmp_path / "run"),
                     "--measure", "top"]) == 2
        err = capsys.readouterr().err
        assert err == "diverged: objective evaluated to inf\n"

    def test_awp_step_divergence_keeps_last_good_checkpoint(
            self, tmp_path, capsys, monkeypatch):
        import trhreg.trainer as trainer_module

        real_awp_step = trainer_module.awp_step
        calls = []

        def failing_awp_step(*args):
            calls.append(1)
            if len(calls) == 2:
                raise TrainingDivergence("objective evaluated to nan")
            return real_awp_step(*args)

        monkeypatch.setattr(trainer_module, "awp_step", failing_awp_step)
        cfg = write_config(tmp_path, BASE_CONFIG + "train.baseline = awp\n")
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("diverged at epoch 1; last-good checkpoint")
        assert err.count("\n") == 1
        assert load_checkpoint(out / "checkpoint.txt").input_dim == 2


class TestCliTraceModes:
    def test_layers_and_top_write_equal_rows(self, tmp_path):
        cfg = write_config(tmp_path)
        raw = {}
        for mode in ("top", "layers"):
            out = tmp_path / mode
            assert main(["trace", "--config", cfg, "--out", str(out),
                         "--measure", mode, "--every", "2"]) == 0
            raw[mode] = (out / "trace.csv").read_bytes()
        assert raw["layers"] == raw["top"]  # the preamble included
        table = [ln for ln in raw["top"].decode().splitlines()
                 if not ln.startswith("#")]
        cols = table[0].split(",")
        for row in table[1:]:
            vals = dict(zip(cols, row.split(",")))
            assert vals["trh_full_estimate"] == "nan"
            assert vals["trh_full_stderr"] == "nan"

    def test_layers_is_read_at_parsing_only(self):
        args = cli.build_parser().parse_args(["trace", "--config", "c.txt",
                                              "--measure", "layers"])
        assert args.measure == "top"
        with pytest.raises(ValueError, match="unknown measure mode 'layers'"):
            MeasureConfig(mode="layers")


BOUND_CONFIG = BASE_CONFIG + ("pacbayes.sigma0_sq = 0.2\npacbayes.beta = 10\n"
                              "train.gamma = 0.25\n")

# one rejected value per section (and the regularizer coefficient)
BAD_VALUES = [
    ("train.momentum = 1.5", "train.momentum"),
    ("attack.steps = 0", "attack.steps"),
    ("trh.schedule = bogus", "trh.schedule"),
    ("loss.penalty = -1", "loss.penalty"),
    ("pacbayes.sigma0_sq = 0.2\npacbayes.beta = 10\npacbayes.tau = 2",
     "pacbayes.tau"),
    ("trh.full_coeff = -5", "trh.full_coeff"),
]
_KEY_IDS = [key for _, key in BAD_VALUES]


def _with(line):
    """BASE_CONFIG with `line`'s keys set by `line`, appended last."""
    keys = {ln.partition("=")[0].strip() for ln in line.splitlines()}
    base = [ln for ln in BASE_CONFIG.splitlines()
            if ln.partition("=")[0].strip() not in keys]
    return "\n".join(base + [line]) + "\n"


def _lines(path):
    return [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]


class TestKeyNaming:
    @pytest.mark.parametrize("line,key", BAD_VALUES, ids=_KEY_IDS)
    def test_rejected_value_names_its_key_and_line(self, line, key):
        text = _with(line)
        lineno = 1 + [ln.partition("=")[0].strip()
                      for ln in text.splitlines()].index(key)
        with pytest.raises(ConfigError) as info:
            ExperimentConfig.from_text(text)
        assert (info.value.key, info.value.line) == (key, lineno)

    @pytest.mark.parametrize("line,key", BAD_VALUES, ids=_KEY_IDS)
    def test_cli_exits_one_naming_the_key(self, tmp_path, capsys, line, key):
        cfg = write_config(tmp_path, _with(line))
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "duplicate" not in err
        assert f"(key {key!r}, line " in err

    def test_required_bound_key_named(self):
        with pytest.raises(ConfigError, match=r"pacbayes\.sigma0_sq"):
            ExperimentConfig.from_text("pacbayes.beta = 10\n")


class TestBoundSampleSize:
    """pacbayes.m defaults to dataset.n, which sizes two-moons data only."""

    BOUND = "pacbayes.sigma0_sq = 0.2\npacbayes.beta = 10\n"

    @staticmethod
    def csv_config(tmp_path, extra=""):
        path = tmp_path / "d.csv"
        path.write_text("0.0,1.0,0\n1.0,0.0,1\n0.5,0.5,0\n")
        return (f"dataset.kind = csv\ndataset.path = {path}\n"
                f"{TestBoundSampleSize.BOUND}{extra}")

    def test_two_moons_default_is_dataset_n(self):
        cfg = ExperimentConfig.from_text(BASE_CONFIG + self.BOUND)
        assert cfg.pacbayes.m == 80
        assert ExperimentConfig.from_text(self.BOUND).pacbayes.m == 500

    def test_csv_without_m_rejected(self, tmp_path):
        with pytest.raises(ConfigError) as info:
            ExperimentConfig.from_text(self.csv_config(tmp_path))
        assert info.value.key == "pacbayes.m"

    def test_csv_with_explicit_m(self, tmp_path):
        cfg = ExperimentConfig.from_text(self.csv_config(tmp_path, "pacbayes.m = 3\n"))
        assert cfg.pacbayes.m == 3

    def test_cli_exits_one_naming_m(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.csv_config(tmp_path))
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "(key 'pacbayes.m')" in err


class TestSingleRoute:
    def test_seed_flag_writes_the_bytes_of_a_seed_line(self, tmp_path):
        flag = write_config(tmp_path, BASE_CONFIG, "flag.txt")
        line = write_config(tmp_path, BASE_CONFIG.replace(
            "train.seed = 0", "train.seed = 3"), "line.txt")
        assert main(["train", "--config", flag, "--seed", "3",
                     "--out", str(tmp_path / "flag")]) == 0
        assert main(["train", "--config", line, "--out", str(tmp_path / "line")]) == 0
        for name in ("metrics.csv", "checkpoint.txt"):
            assert ((tmp_path / "flag" / name).read_bytes()
                    == (tmp_path / "line" / name).read_bytes())

    def test_overrides_are_checked_like_file_lines(self, tmp_path):
        path = write_config(tmp_path, BOUND_CONFIG)
        assert ExperimentConfig.from_file(path).trh.lam == 0.1
        with pytest.raises(ConfigError, match=r"\(key 'trh\.lambda'\)"):
            ExperimentConfig.from_file(path, {"trh.lambda": 0.3})
        with pytest.raises(ConfigError, match="unknown key"):
            ExperimentConfig.from_file(path, {"trh.lam": 0.1})

    def test_bound_consistent_sweep_rejects_inconsistent_trial(self, tmp_path,
                                                               capsys):
        cfg = write_config(tmp_path, BOUND_CONFIG)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "t")]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "sw"),
                     "--param", "lambda", "--values", "0.1,0.3"]) == 0
        captured = capsys.readouterr()
        assert "lambda=0.3: FAILED" in captured.err
        assert "(key 'trh.lambda')" in captured.err
        assert "(2 trials, 1 failed)" in captured.out
        metrics = _lines(tmp_path / "t" / "metrics.csv")
        last = dict(zip(metrics[0].split(","), metrics[-1].split(",")))
        rows = _lines(tmp_path / "sw" / "sweep.csv")
        assert rows[1] == f"0.1,{last['clean_acc']},{last['pgd_acc']}"
        assert rows[2] == "0.3,nan,nan"

    def test_diverging_trial_writes_nan_row(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG.replace(
            "train.base_lr = 0.1", "train.base_lr = 1e9"))
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "sw"),
                     "--param", "lambda", "--values", "0.0,0.1"]) == 0
        assert "diverged at epoch" in capsys.readouterr().err
        assert _lines(tmp_path / "sw" / "sweep.csv")[1:] == ["0.0,nan,nan",
                                                             "0.1,nan,nan"]

    def test_sweep_lets_programming_errors_escape(self, tmp_path, monkeypatch):
        import trhreg.cli as cli

        def broken(*args, **kwargs):
            raise TypeError("a fault, not a bad value")

        monkeypatch.setattr(cli, "_run_training", broken)
        cfg = write_config(tmp_path)
        with pytest.raises(TypeError):
            main(["sweep", "--config", cfg, "--out", str(tmp_path / "sw"),
                  "--param", "lambda", "--values", "0.0,0.1"])


# values that a later stage used to take or reject without naming the key
UNCHECKED_VALUES = [
    ("attack.clamp_min = 1\nattack.clamp_max = -1", "attack.clamp_min"),
    ("pacbayes.tau = abc", "pacbayes.tau"),
    ("pacbayes.m = zz\npacbayes.sigma0_sq = 0.2\npacbayes.beta = 10",
     "pacbayes.m"),
    ("dataset.n = 0", "dataset.n"),
    ("dataset.noise_std = -1", "dataset.noise_std"),
    ("net.hidden = 0", "net.hidden"),
    ("net.hidden = 8,0", "net.hidden"),
]
_UNCHECKED_IDS = [line.partition("\n")[0] for line, _ in UNCHECKED_VALUES]


class TestValueChecks:
    @pytest.mark.parametrize("line,key", UNCHECKED_VALUES, ids=_UNCHECKED_IDS)
    def test_rejected_value_names_its_key_and_line(self, line, key):
        text = _with(line)
        lineno = 1 + [ln.partition("=")[0].strip()
                      for ln in text.splitlines()].index(key)
        with pytest.raises(ConfigError) as info:
            ExperimentConfig.from_text(text)
        assert (info.value.key, info.value.line) == (key, lineno)

    @pytest.mark.parametrize("line,key", UNCHECKED_VALUES, ids=_UNCHECKED_IDS)
    def test_cli_exits_one_naming_the_key(self, tmp_path, capsys, line, key):
        cfg = write_config(tmp_path, _with(line))
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and f"(key {key!r}, line " in err
        assert not (tmp_path / "o" / "metrics.csv").exists()

    @pytest.mark.parametrize("given,missing", [
        ("pacbayes.tau = 0.1", "pacbayes.sigma0_sq"),
        ("pacbayes.c_const = 1", "pacbayes.sigma0_sq"),
        ("pacbayes.sigma0_sq = 0.2", "pacbayes.beta"),
    ])
    def test_any_bound_key_gives_the_section(self, given, missing):
        with pytest.raises(ConfigError) as info:
            ExperimentConfig.from_text(_with(given))
        assert info.value.key == missing

    def test_equal_clamp_bounds_and_no_bound_keys_still_load(self):
        cfg = ExperimentConfig.from_text(
            _with("attack.clamp_min = 0.5\nattack.clamp_max = 0.5"))
        assert cfg.attack.clamp == (0.5, 0.5) and cfg.pacbayes is None
