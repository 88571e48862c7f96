import os
import subprocess
import sys
import warnings

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

# the example config of the README
README_CONFIG = """
dataset.kind = two_moons
dataset.n = 500
dataset.noise_std = 0.1
dataset.seed = 1

net.hidden = 100,100

loss.kind = at
attack.norm = linf
attack.delta = 0.02
attack.steps = 1

trh.lambda = 0.5
trh.schedule = constant
train.epochs = 100
train.base_lr = 0.1
train.momentum = 0.9
train.lr_decay = constant
train.seed = 0
"""

# more rows per batch than the dataset holds
BIG_BATCH_CONFIG = BASE_CONFIG.replace("dataset.n = 80", "dataset.n = 50") + (
    "train.batch_size = 80\n")


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

    def test_unknown_key_reports_key_and_line(self, tmp_path, capsys):
        # the bound keys that no module read are unknown, as any typo is, and
        # so is the removed train.eval_restarts (attack.restarts replaced it)
        for key in ("bogus.key", "pacbayes.tau", "pacbayes.m",
                    "train.eval_restarts"):
            text = f"dataset.n = 80\n{key} = 3\n"
            with pytest.raises(ConfigError, match="unknown key") as info:
                ExperimentConfig.from_text(text)
            assert (info.value.key, info.value.line) == (key, 2)
            cfg = write_config(tmp_path, text)
            assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
            assert f"unknown key (key {key!r}, line 2)" in capsys.readouterr().err
            assert not (tmp_path / "o").exists()

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


def _csv_config(tmp_path, rows, name):
    """BASE_CONFIG on a CSV file of `rows` in place of two moons."""
    (tmp_path / f"{name}.csv").write_text(rows)
    text = "\n".join(line for line in BASE_CONFIG.splitlines()
                     if not line.startswith(("dataset.n", "dataset.seed")))
    return write_config(tmp_path, text.replace(
        "dataset.kind = two_moons",
        f"dataset.kind = csv\ndataset.path = {tmp_path}/{name}.csv"), f"{name}.txt")


def _two_class_checkpoint(tmp_path):
    """The checkpoint of a BASE_CONFIG training run (2-d inputs, 2 classes)."""
    main(["train", "--config", write_config(tmp_path), "--out", str(tmp_path / "run")])
    return str(tmp_path / "run" / "checkpoint.txt")


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

    def test_batch_size_above_dataset_size_names_the_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BIG_BATCH_CONFIG, "big_batch.txt")
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert "'train.batch_size'" in err
        assert "batch size 80 exceeds dataset size 50" in err

    def test_divergence_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG.replace(
            "train.base_lr = 0.1", "train.base_lr = 1e9"), "diverge.txt")
        out = str(tmp_path / "divrun")
        assert main(["train", "--config", cfg, "--out", out]) == 2
        # last-good checkpoint still written
        assert (tmp_path / "divrun" / "checkpoint.txt").exists()

    def test_mart_with_a_saturated_runner_up_trains(self, tmp_path, capsys):
        # the README config as MART at seed 19: by epoch 3 the runner-up's
        # adversarial logit gap has median about 300 and reaches about
        # 1000, past the 745 at which 1 - s'_kappa summed as probabilities
        # underflows to 0 and its log is -inf
        text = README_CONFIG.replace("loss.kind = at", "loss.kind = mart\nloss.penalty = 5")
        text = text.replace("dataset.seed = 1", "dataset.seed = 19")
        text = text.replace("train.seed = 0", "train.seed = 19")
        text = text.replace("train.epochs = 100", "train.epochs = 10")
        out = tmp_path / "run"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["train", "--config", write_config(tmp_path, text),
                         "--out", str(out)]) == 0
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert _lines(out / "metrics.csv")[-1].startswith("9,")

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
        ckpt = _two_class_checkpoint(tmp_path)
        bad_data = _csv_config(tmp_path, "1.0,2.0,3.0,0\n1.0,2.0,3.0,1\n", "mism")
        capsys.readouterr()
        assert main(["eval", "--config", bad_data, "--checkpoint", ckpt]) == 1
        assert ("checkpoint input dim 2 does not match dataset dim 3"
                in capsys.readouterr().err)

    def test_fewer_outputs_than_classes_is_config_error(self, tmp_path, capsys):
        # a 2-class checkpoint on data with a label 2
        ckpt = _two_class_checkpoint(tmp_path)
        three = _csv_config(tmp_path, "0.1,0.2,0\n0.3,0.1,1\n0.5,0.5,2\n", "three")
        capsys.readouterr()
        assert main(["eval", "--config", three, "--checkpoint", ckpt]) == 1
        err = capsys.readouterr().err
        assert "2 outputs" in err and "3 classes" in err

    def test_nonfinite_feature_is_config_error(self, tmp_path, capsys):
        ckpt = _two_class_checkpoint(tmp_path)
        bad = _csv_config(tmp_path, "0.1,0.2,0\nnan,0.1,1\n", "nan")
        capsys.readouterr()
        assert main(["eval", "--config", bad, "--checkpoint", ckpt]) == 1
        assert "line 2: non-finite feature value" in capsys.readouterr().err

    def test_one_class_data_trains_no_network(self, tmp_path, capsys):
        one = _csv_config(tmp_path, "0.1,0.2,0\n0.3,0.1,0\n", "one")
        assert main(["train", "--config", one, "--out", str(tmp_path / "t")]) == 1
        assert "(key 'dataset.path')" in capsys.readouterr().err
        # a two-class checkpoint still evaluates on it
        ckpt = _two_class_checkpoint(tmp_path)
        assert main(["eval", "--config", one, "--checkpoint", ckpt]) == 0

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

    @pytest.mark.parametrize("argv, name, header", [
        (["trace", "--measure", "top"], "trace.csv",
         "epoch,trh_top_analytic,trh_full_estimate,trh_full_stderr,"
         "trh_layer_1,trh_layer_2,trh_layer_3,train_loss,robust_acc"),
        (["spectrum"], "spectrum.csv", "epoch,layer,trace,trace_sq,eig_mean,eig_std"),
    ], ids=["trace", "spectrum"])
    def test_divergence_before_first_measurement_writes_header(
            self, tmp_path, capsys, argv, name, header):
        # the second step of epoch 0 diverges, before any measurement
        text = BASE_CONFIG.replace("train.base_lr = 0.1", "train.base_lr = 100000")
        cfg = write_config(tmp_path, text + "train.batch_size = 20\n")
        out = tmp_path / "run"
        assert main(argv + ["--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "diverged at epoch 0\n"
        assert _lines(out / name) == [header]


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

    def test_batch_size_above_dataset_size_fails_each_trial(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BIG_BATCH_CONFIG, "big_batch.txt")
        out = tmp_path / "sw"
        assert main(["sweep", "--config", cfg, "--out", str(out),
                     "--param", "lambda", "--values", "0.1,0.2"]) == 0
        rows = [ln for ln in (out / "sweep.csv").read_text().splitlines()
                if not ln.startswith("#")]
        assert rows[1:] == ["0.1,nan,nan", "0.2,nan,nan"]
        assert "train.batch_size" in capsys.readouterr().err

    def test_needs_two_values(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["sweep", "--config", cfg, "--param", "lambda",
                     "--values", "0.1"]) == 1

    def test_unknown_param_rejected(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["sweep", "--config", cfg, "--param", "nope",
                     "--values", "0.1,0.2"]) == 1

    def test_unreadable_value_names_the_flag(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "sw"),
                     "--param", "lambda", "--values", "0.1,abc"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: --values ") and "'0.1,abc'" in err
        assert not (tmp_path / "sw").exists()


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


class TestCliUsageErrors:
    """A command line argparse rejects exits 1, the config-error code, after
    argparse's usage message; 2 is kept for divergence."""

    @pytest.mark.parametrize("argv, flag", [
        (["trace", "--measure", "bogus"], None),
        (["verify", "--level", "medium"], None),
        (["train"], None),
        (["verify", "--seed", "-1"], "--seed"),
        (["eval", "--config", "c.txt", "--checkpoint", "k.txt", "--restarts", "0"],
         "--restarts"),
        (["trace", "--config", "c.txt", "--every", "0", "--out", "D"], "--every"),
        (["trace", "--config", "c.txt", "--probes", "two"], "--probes"),
        (["spectrum", "--config", "c.txt", "--probes", "0"], "--probes"),
    ], ids=["bad-choice", "bad-level", "no-config", "negative-verify-seed",
            "zero-restarts", "zero-every", "word-probes", "zero-probes"])
    def test_exits_one_after_usage(self, tmp_path, monkeypatch, capsys, argv,
                                   flag):
        # an integer flag's error names the flag, before the (valid) config
        # is read or an output directory made
        monkeypatch.chdir(tmp_path)
        write_config(tmp_path, name="c.txt")
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "usage: trhreg" in err
        assert flag is None or f"argument {flag}: expected an integer >= " in err
        assert [p.name for p in tmp_path.iterdir()] == ["c.txt"]

    def test_help_exits_zero(self, capsys):
        assert main(["verify", "--help"]) == 0
        assert "usage: trhreg verify" in capsys.readouterr().out

    def test_negative_seed_flag_names_the_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["train", "--config", cfg, "--seed", "-1",
                     "--out", str(tmp_path / "o")]) == 1
        assert "(key 'train.seed')" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


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

    def test_failed_epoch_end_attack_keeps_the_epoch_start_weights(
            self, tmp_path, capsys):
        # epoch 0's one full-batch step leaves weights of order 1e14, on
        # which the epoch-end attack is not finite: the last good weights
        # are the initial ones
        text = BASE_CONFIG.replace("train.base_lr = 0.1", "train.base_lr = 1e15")
        out = tmp_path / "run"
        assert main(["train", "--config", write_config(tmp_path, text),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("diverged at epoch 0; last-good checkpoint")
        exp = ExperimentConfig.from_text(text)
        init = exp.build_network(exp.build_dataset())
        saved = load_checkpoint(out / "checkpoint.txt")
        assert len(saved.layers) == len(init.layers)
        for layer, ref in zip(saved.layers, init.layers):
            assert np.array_equal(layer.weights, ref.weights)
            assert (layer.bias is None) == (ref.bias is None)
            if ref.bias is not None:
                assert np.array_equal(layer.bias, ref.bias)


class TestCliDirectoryInput:
    """An input path that names a directory is a config error: exit 1 and
    one line, not a traceback."""

    @pytest.mark.parametrize("given", ["config", "dataset", "checkpoint"])
    def test_exits_one_with_one_line(self, tmp_path, capsys, given):
        folder = tmp_path / "folder"
        folder.mkdir()
        out = str(tmp_path / "o")
        if given == "config":
            argv = ["train", "--config", str(folder)]
        elif given == "dataset":
            text = BASE_CONFIG.replace("dataset.kind = two_moons",
                                       f"dataset.kind = csv\ndataset.path = {folder}")
            argv = ["train", "--config", write_config(tmp_path, text)]
        else:
            argv = ["eval", "--config", write_config(tmp_path),
                    "--checkpoint", str(folder)]
        assert main(argv + ["--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "Traceback" not in err


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

# one rejected value per section (and the regularizer coefficient), then
# one line per remaining check of a config value; a line with no key
# (None) is named by its line alone
BAD_VALUES = [
    ("train.momentum = 1.5", "train.momentum"),
    ("attack.steps = 0", "attack.steps"),
    ("trh.schedule = bogus", "trh.schedule"),
    ("loss.penalty = -1", "loss.penalty"),
    ("pacbayes.sigma0_sq = 0.2\npacbayes.beta = 0", "pacbayes.beta"),
    ("trh.full_coeff = -5", "trh.full_coeff"),
    ("= 5", None),
    ("dataset.normalize = maybe", "dataset.normalize"),
    ("dataset.kind = images", "dataset.kind"),
    ("attack.clamp_min = -1", "attack.clamp_min"),
    ("trh.lambda = -1", "trh.lambda"),
    ("train.lr_decay = step", "train.lr_decay"),
    ("train.swa_alpha = 1.5", "train.swa_alpha"),
    ("train.awp_delta = 0", "train.awp_delta"),
    ("train.warmup_iters = -1", "train.warmup_iters"),
    ("train.base_lr = nan", "train.base_lr"),
    ("attack.delta = nan", "attack.delta"),
    ("trh.lambda = inf", "trh.lambda"),
    ("dataset.noise_std = inf", "dataset.noise_std"),
    ("pacbayes.sigma0_sq = 1e400\npacbayes.beta = 10", "pacbayes.sigma0_sq"),
    ("attack.clamp_min = 0\nattack.clamp_max = nan", "attack.clamp_max"),
    ("train.lr_drop = -1\ntrain.lr_decay = multistep", "train.lr_drop"),
    ("train.lr_drop = 0", "train.lr_drop"),
    ("train.lr_milestones = 0.5,1.5", "train.lr_milestones"),
    ("train.lr_milestones = 0.5,nan", "train.lr_milestones"),
]
# a row's id is its key; a key's later rows are named by their line
_KEY_IDS = [key if key and key not in [k for _, k in BAD_VALUES[:i]] else line
            for i, (line, key) in enumerate(BAD_VALUES)]


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
                      for ln in text.splitlines()].index(key or "")
        with pytest.raises(ConfigError) as info:
            ExperimentConfig.from_text(text)
        assert (info.value.key, info.value.line) == (key, lineno)

    @pytest.mark.parametrize("line,key", BAD_VALUES, ids=_KEY_IDS)
    def test_cli_exits_one_naming_the_key(self, tmp_path, capsys, line, key):
        cfg = write_config(tmp_path, _with(line))
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "duplicate" not in err
        assert (f"(key {key!r}, line " if key else "(line ") in err

    def test_required_bound_key_named(self):
        with pytest.raises(ConfigError, match=r"pacbayes\.sigma0_sq"):
            ExperimentConfig.from_text("pacbayes.beta = 10\n")


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
    ("pacbayes.c_const = abc", "pacbayes.c_const"),
    ("dataset.n = 0", "dataset.n"),
    ("dataset.noise_std = -1", "dataset.noise_std"),
    ("net.hidden = 0", "net.hidden"),
    ("net.hidden = 8,0", "net.hidden"),
    ("dataset.seed = -3", "dataset.seed"),
    ("train.seed = -1", "train.seed"),
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
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("given,missing", [
        ("pacbayes.c_const = 1", "pacbayes.sigma0_sq"),
        ("pacbayes.sigma0_sq = 0.2", "pacbayes.beta"),
    ])
    def test_any_bound_key_gives_the_section(self, given, missing):
        with pytest.raises(ConfigError) as info:
            ExperimentConfig.from_text(_with(given))
        assert info.value.key == missing

    def test_csv_bound_section_loads(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0.0,1.0,0\n1.0,0.0,1\n0.5,0.5,0\n")
        cfg = ExperimentConfig.from_text(
            f"dataset.kind = csv\ndataset.path = {path}\n"
            "pacbayes.sigma0_sq = 0.2\npacbayes.beta = 10\n")
        assert (cfg.pacbayes.sigma0_sq, cfg.pacbayes.beta) == (0.2, 10.0)

    def test_equal_clamp_bounds_and_no_bound_keys_still_load(self):
        cfg = ExperimentConfig.from_text(
            _with("attack.clamp_min = 0.5\nattack.clamp_max = 0.5"))
        assert cfg.attack.clamp == (0.5, 0.5) and cfg.pacbayes is None

    def test_one_sided_clamp_box_loads(self):
        # an infinite end is meaningful: only the other side is bounded
        cfg = ExperimentConfig.from_text(
            _with("attack.clamp_min = -inf\nattack.clamp_max = 1"))
        assert cfg.attack.clamp == (-np.inf, 1.0)
