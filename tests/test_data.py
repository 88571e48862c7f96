import numpy as np
import pytest

from trhreg.attacks import AttackConfig, clean_accuracy
from trhreg.config import TrHConfig
from trhreg.data import CsvFormatError, Dataset, load_csv, normalize_center, two_moons
from trhreg.losses import RobustLossKind
from trhreg.network import init_mlp
from trhreg.numerics import Rng
from trhreg.trainer import TrainConfig, train


class TestTwoMoons:
    def test_noiseless_points_sit_on_the_arcs(self):
        ds = two_moons(40, noise_std=0.0, seed=7)
        upper = ds.inputs[ds.labels == 0]
        lower = ds.inputs[ds.labels == 1]
        assert np.allclose(np.linalg.norm(upper, axis=1), 1.0, atol=1e-12)
        centered = lower - np.array([1.0, 0.5])
        assert np.allclose(np.linalg.norm(centered, axis=1), 1.0, atol=1e-12)
        assert np.all(upper[:, 1] >= -1e-12)
        assert np.all(lower[:, 1] <= 0.5 + 1e-12)

    def test_four_points_two_per_class(self):
        ds = two_moons(4, noise_std=0.0, seed=0)
        assert list(np.bincount(ds.labels)) == [2, 2]

    def test_exact_balance_odd(self):
        ds = two_moons(11, seed=0)
        assert list(np.bincount(ds.labels)) == [6, 5]

    def test_deterministic_per_seed(self):
        a = two_moons(100, seed=5)
        b = two_moons(100, seed=5)
        c = two_moons(100, seed=6)
        assert np.array_equal(a.inputs, b.inputs)
        assert not np.array_equal(a.inputs, c.inputs)

    def test_validation(self):
        with pytest.raises(ValueError):
            two_moons(1)
        with pytest.raises(ValueError):
            two_moons(10, noise_std=-0.1)

    def test_mlp_beats_linear_model(self):
        # the interleaved arcs are not linearly separable: a trained MLP
        # must beat a trained linear softmax model on clean accuracy
        ds = two_moons(300, noise_std=0.1, seed=2)
        kind = RobustLossKind("at")
        null_attack = AttackConfig(delta=0.0, steps=1)
        cfg = TrainConfig(epochs=60, base_lr=0.1, lr_decay="constant", seed=0)
        linear = init_mlp([2, 2], Rng(0).child("lin"))
        mlp = init_mlp([2, 32, 32, 2], Rng(0).child("mlp"))
        res_lin = train(linear, ds, kind, TrHConfig(), null_attack, cfg)
        res_mlp = train(mlp, ds, kind, TrHConfig(), null_attack, cfg)
        acc_lin = clean_accuracy(res_lin.net, ds)
        acc_mlp = clean_accuracy(res_mlp.net, ds)
        assert acc_mlp > acc_lin
        assert acc_mlp > 0.95


class TestCsv:
    def test_round_trip_values(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0.25,-1.5,0\n1e-3,2.25,1\n")
        ds = load_csv(path)
        assert np.array_equal(ds.inputs, [[0.25, -1.5], [1e-3, 2.25]])
        assert np.array_equal(ds.labels, [0, 1])
        assert ds.num_classes == 2

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x1,x2,label\n1.0,2.0,0\n3.0,4.0,1\n")
        assert len(load_csv(path)) == 2

    def test_crlf_line_endings(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"1.0,2.0,0\r\n3.0,4.0,1\r\n")
        ds = load_csv(path)
        assert np.array_equal(ds.inputs, [[1.0, 2.0], [3.0, 4.0]])

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0,0\noops,4.0,1\n")
        with pytest.raises(CsvFormatError, match="line 2"):
            load_csv(path)

    def test_non_integer_label_reports_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0,0\n3.0,4.0,1.5\n")
        with pytest.raises(CsvFormatError, match="line 2"):
            load_csv(path)

    def test_inconsistent_columns(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0,0\n3.0,1\n")
        with pytest.raises(CsvFormatError, match="line 2"):
            load_csv(path)

    @pytest.mark.parametrize("text,message", [
        ("1.0\n", "line 1: need features plus a label"),
        ("x1,x2,label\n", "no data rows"),
        ("1.0,2.0,0\n3.0,4.0,-1\n", "line 2: negative label -1"),
        ("1.0,2.0,0\nnan,4.0,1\n", "line 2: non-finite feature value"),
        ("1.0,2.0,0\n3.0,4.0,1\n5.0,-inf,1\n", "line 3: non-finite feature value"),
        ("1.0,1e400,0\n", "line 1: non-finite feature value"),
    ], ids=["one-field", "header-only", "negative-label", "nan-feature",
            "inf-feature", "overflowing-feature"])
    def test_bad_file_names_its_line(self, tmp_path, text, message):
        path = tmp_path / "d.csv"
        path.write_text(text)
        with pytest.raises(CsvFormatError, match=message):
            load_csv(path)


class TestNormalizeCenter:
    def test_global_mean_zero_std_one(self):
        ds = two_moons(200, seed=3)
        norm = normalize_center(ds)
        assert abs(norm.inputs.mean()) <= 1e-9
        assert abs(norm.inputs.std() - 1.0) <= 1e-9
        assert norm.scale is not None

    def test_idempotent(self):
        ds = two_moons(100, seed=4)
        once = normalize_center(ds)
        twice = normalize_center(once)
        assert np.allclose(once.inputs, twice.inputs, atol=1e-9)

    def test_constant_features_guarded(self):
        ds = Dataset(np.full((5, 2), 3.0), np.zeros(5, dtype=int), 2)
        norm = normalize_center(ds)
        assert np.allclose(norm.inputs, 0.0)

    def test_labels_preserved(self):
        ds = two_moons(50, seed=5)
        assert np.array_equal(normalize_center(ds).labels, ds.labels)
