import numpy as np
import pytest

from trhreg.cli import main
from trhreg.config import ConfigError, ExperimentConfig, parse_kv
from trhreg.network import load_checkpoint

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

    def test_dimension_mismatch_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "run")
        main(["train", "--config", cfg, "--out", out])
        bad_data = write_config(tmp_path, BASE_CONFIG + "\ndataset.kind = csv\n"
                                f"dataset.path = {tmp_path}/d.csv\n", "mism.txt")
        (tmp_path / "d.csv").write_text("1.0,2.0,3.0,0\n1.0,2.0,3.0,1\n")
        ckpt = str(tmp_path / "run" / "checkpoint.txt")
        assert main(["eval", "--config", bad_data, "--checkpoint", ckpt]) == 1


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

    def test_injected_fault_exits_three(self, capsys, monkeypatch):
        import trhreg.trh as trh_module
        original = trh_module.trh_at
        monkeypatch.setattr(trh_module, "trh_at",
                            lambda trace_adv: -original(trace_adv))
        assert main(["verify", "--level", "quick"]) == 3
        out = capsys.readouterr().out
        assert "FAIL group=trh_formulas" in out
        assert "seed=" in out  # failing checks carry a reproduction seed


class TestCliTraceModes:
    def test_layers_and_top_write_equal_rows(self, tmp_path):
        cfg = write_config(tmp_path)
        tables = {}
        for mode in ("top", "layers"):
            out = tmp_path / mode
            assert main(["trace", "--config", cfg, "--out", str(out),
                         "--measure", mode, "--every", "2"]) == 0
            tables[mode] = [ln for ln in (out / "trace.csv").read_text()
                            .splitlines() if not ln.startswith("#")]
        assert tables["layers"] == tables["top"]
        cols = tables["top"][0].split(",")
        for row in tables["top"][1:]:
            vals = dict(zip(cols, row.split(",")))
            assert vals["trh_full_estimate"] == "nan"
            assert vals["trh_full_stderr"] == "nan"
