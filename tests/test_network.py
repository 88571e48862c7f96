import os

import numpy as np
import pytest

from oracle_helpers import rowwise
import trhreg.network
from trhreg import tape
from trhreg.losses import softmax
from trhreg.network import (DenseLayer, MlpNetwork, backprop, flatten_weights,
                            forward, forward_nodes, init_mlp, input_gradient,
                            lift, load_checkpoint, param_count,
                            save_checkpoint, unflatten_weights)
from trhreg.numerics import Rng, finite_diff_gradient
from trhreg.trainer import MetricsLog


def small_net(seed=0, dims=(3, 4, 2)):
    return init_mlp(dims, Rng(seed).child("init"))


class TestForward:
    def test_identity_single_layer(self):
        net = MlpNetwork([DenseLayer(np.eye(2))])
        tr = forward(net, np.array([1.0, 2.0]))
        assert np.array_equal(tr.logits, [1.0, 2.0])
        assert np.array_equal(tr.features, [1.0, 2.0])

    def test_zero_input_zero_logits_without_bias(self):
        net = init_mlp([3, 5, 4], Rng(1).child("i"), hidden_bias=False)
        tr = forward(net, np.zeros(3))
        assert np.array_equal(tr.logits, np.zeros(4))

    def test_hand_computed_2_3_2(self):
        w0 = np.array([[1.0, 0.0, -1.0], [0.5, 2.0, 1.0]])
        b0 = np.array([0.0, -1.0, 0.5])
        w1 = np.array([[1.0, -1.0], [0.0, 1.0], [2.0, 0.0]])
        net = MlpNetwork([DenseLayer(w0, b0), DenseLayer(w1)])
        x = np.array([1.0, 2.0])
        pre = x @ w0 + b0                      # [2, 3, 1.5]
        hidden = np.maximum(pre, 0.0)
        expected = hidden @ w1                  # [5, 1]
        tr = forward(net, x)
        assert np.allclose(tr.preacts[0], pre)
        assert np.allclose(tr.logits, expected)
        assert np.allclose(tr.logits, [5.0, 1.0])

    def test_positive_homogeneity_bias_free(self):
        net = init_mlp([3, 6, 6, 2], Rng(9).child("i"), hidden_bias=False)
        x = Rng(2).child("x").normal(size=3)
        base = forward(net, x).logits
        for c in (0.5, 2.0, 7.0):
            assert np.allclose(forward(net, c * x).logits, c * base, rtol=1e-12)

    def test_relu_links_trace_fields(self):
        net = small_net()
        tr = forward(net, np.array([0.3, -0.5, 1.0]))
        assert np.array_equal(tr.layer_inputs[1], np.maximum(tr.preacts[0], 0.0))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            forward(small_net(), np.zeros(5))

    def test_batched_matches_single(self):
        net = small_net()
        X = Rng(4).child("b").normal(size=(6, 3))
        batched = forward(net, X)
        for i in range(6):
            single = forward(net, X[i])
            # BLAS may vectorize the two shapes differently; values agree
            # to rounding even though the last ulp can differ
            assert np.allclose(batched.logits[i], single.logits, rtol=1e-13)


class TestInvariants:
    def test_chaining_enforced(self):
        with pytest.raises(ValueError):
            MlpNetwork([DenseLayer(np.zeros((2, 3))), DenseLayer(np.zeros((4, 2)))])

    def test_top_layer_bias_free(self):
        with pytest.raises(ValueError):
            MlpNetwork([DenseLayer(np.zeros((2, 2)), np.zeros(2))])

    def test_min_two_classes(self):
        with pytest.raises(ValueError):
            MlpNetwork([DenseLayer(np.zeros((2, 1)))])

    def test_init_variance_and_zero_bias(self):
        net = init_mlp([50, 400, 2], Rng(0).child("v"))
        w = net.layers[1].weights
        assert abs(w.var() - 1.0 / 400) < 0.01 / 400 * 400
        assert np.array_equal(net.layers[0].bias, np.zeros(400))
        assert net.layers[-1].bias is None


class TestFlatten:
    def test_round_trips_bit_exact(self):
        net = small_net(seed=5)
        w = flatten_weights(net)
        assert w.size == param_count(net)
        net2 = unflatten_weights(net, w)
        assert np.array_equal(flatten_weights(net2), w)
        vec = Rng(1).child("w").normal(size=w.size)
        assert np.array_equal(flatten_weights(unflatten_weights(net, vec)), vec)

    def test_example_architecture_parameter_count(self):
        net = init_mlp([2, 100, 100, 2], Rng(0).child("i"))
        assert param_count(net) == 2 * 100 + 100 + 100 * 100 + 100 + 100 * 2
        assert param_count(net) == 10_600

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            unflatten_weights(small_net(), np.zeros(3))


class TestBackprop:
    def test_linear_softmax_ce_gradient_closed_form(self):
        # single linear layer: dCE/dW = z (s - y)^T
        net = MlpNetwork([DenseLayer(Rng(3).child("w").normal(size=(3, 4)))])
        z = Rng(3).child("x").normal(size=3)
        y = 2
        onehot = np.zeros(4)
        onehot[y] = 1.0

        def objective(lifted):
            logits = tape.constant(z[None, :]) @ lifted[0][0]
            return tape.mean(-tape.row_sum(tape.log_softmax(logits)
                                           * tape.constant(onehot[None, :])))

        _, grads = backprop(net, objective)
        s = softmax(z @ net.layers[0].weights)
        assert np.allclose(grads[0][0], np.outer(z, s - onehot), rtol=1e-12)

    def test_constant_objective_zero_gradients(self):
        net = small_net()
        _, grads = backprop(net, lambda lifted: tape.constant(np.asarray(3.0)))
        for gw, gb in grads:
            assert np.all(gw == 0)
            if gb is not None:
                assert np.all(gb == 0)

    def test_generic_objective_matches_fd(self):
        net = small_net(seed=8)
        X = Rng(8).child("x").normal(size=(4, 3))

        def objective(lifted):
            _, preacts = forward_nodes(lifted, X)
            return tape.mean(preacts[-1] * preacts[-1])

        from trhreg.network import gradient_vector
        _, g = gradient_vector(net, objective)

        def value(w):
            cand = unflatten_weights(net, w)
            return float(np.mean(forward(cand, X).logits ** 2))

        fd = finite_diff_gradient(rowwise(value), flatten_weights(net))
        assert np.linalg.norm(g - fd) / np.linalg.norm(fd) <= 1e-7


class TestInputGradient:
    def test_matches_fd_wrt_input(self):
        net = small_net(seed=6)
        X = Rng(6).child("x").normal(size=(2, 3))
        y = np.array([0, 1])

        def dlogits_at(Xq):
            s = softmax(forward(net, Xq).logits)
            s[np.arange(2), y] -= 1.0
            return s

        g = input_gradient(net, forward(net, X), dlogits_at(X))

        def ce_sum(flat):
            Xq = flat.reshape(2, 3)
            tr = forward(net, Xq)
            ls = tr.logits - np.log(np.exp(tr.logits).sum(axis=1, keepdims=True))
            return float(-ls[np.arange(2), y].sum())

        fd = finite_diff_gradient(rowwise(ce_sum), X.ravel().copy()).reshape(2, 3)
        assert np.linalg.norm(g - fd) / np.linalg.norm(fd) <= 1e-7


class TestSinglePrecision:
    """A float32 layer, input and dlogits stay float32; anything else is
    cast to float64, as before."""

    def test_float32_kept_through_forward_and_input_gradient(self):
        net = small_net(seed=7)
        net32 = MlpNetwork([DenseLayer(l.weights.astype(np.float32),
                                       None if l.bias is None else l.bias.astype(np.float32))
                            for l in net.layers])
        assert all(l.weights.dtype == np.float32 for l in net32.layers)
        assert net32.layers[0].bias.dtype == np.float32
        X = Rng(7).child("x").normal(size=(5, 3)).astype(np.float32)
        tr = forward(net32, X)
        assert tr.layer_inputs[0] is X
        assert all(a.dtype == np.float32 for a in tr.layer_inputs + tr.preacts)
        g = input_gradient(net32, tr, np.ones((5, 2), dtype=np.float32))
        assert g.dtype == np.float32
        want = input_gradient(net, forward(net, X.astype(np.float64)), np.ones((5, 2)))
        assert np.allclose(g, want, rtol=1e-5, atol=1e-6)

    def test_other_dtypes_become_float64(self):
        layer = DenseLayer([[1, 2], [3, 4]], np.array([1, 0], dtype=np.int32))
        assert layer.weights.dtype == np.float64 and layer.bias.dtype == np.float64
        net = small_net(seed=8)
        tr = forward(net, [[1, 0, 2]])
        assert tr.logits.dtype == np.float64
        g = input_gradient(net, forward(net, np.zeros((1, 3))),
                           np.ones((1, 2), dtype=np.float32))
        assert g.dtype == np.float64


class TestCheckpoint:
    def test_round_trip_value_exact(self, tmp_path):
        net = small_net(seed=13)
        # stress the shortest round-trip float formatting
        net.layers[0].weights[0, 0] = 1e-17
        net.layers[0].weights[0, 1] = -0.1
        net.layers[0].bias[2] = np.pi
        path = tmp_path / "ckpt.txt"
        save_checkpoint(net, path)
        loaded = load_checkpoint(path)
        assert np.array_equal(flatten_weights(loaded), flatten_weights(net))
        assert loaded.layers[-1].bias is None

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("NOT A CHECKPOINT\n")
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_golden_format(self, tmp_path):
        # the wire format is a public interface: pin the exact layout
        net = MlpNetwork([
            DenseLayer(np.array([[1.0, -0.5], [0.25, 2.0]]), np.array([0.0, -1.0])),
            DenseLayer(np.array([[3.0, 0.1], [-2.0, 4.5]])),
        ])
        path = tmp_path / "golden.txt"
        save_checkpoint(net, path)
        assert path.read_text() == (
            "TRHNET v1 2\n"
            "layer 0 2 2 1\n"
            "1.0 -0.5\n"
            "0.25 2.0\n"
            "0.0 -1.0\n"
            "layer 1 2 2 0\n"
            "3.0 0.1\n"
            "-2.0 4.5\n"
        )

    def test_truncated_checkpoint_rejected(self, tmp_path):
        net = small_net()
        path = tmp_path / "t.txt"
        save_checkpoint(net, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(ValueError, match="truncated|expected"):
            load_checkpoint(path)

    @pytest.mark.parametrize("text,message", [
        ("TRHNET v1 1\nlayer 0 2 2 0\n1.0 0.5\n0.0 1.0\n0.0 1.0\n",
         "line 5 follows the last layer"),
        ("TRHNET v1 1\nlayer 0 2 2 7\n1.0 0.5\n0.0 1.0\n",
         "malformed layer header at line 2"),
        ("TRHNET v1 1\nlayer 0 2 2 0\n1.0 0.5\n0.0 x\n",
         "unparsable number at line 4"),
        ("TRHNET v1 1\nlayer 0 2 2\n1.0 0.5\n0.0 1.0\n",
         "malformed layer header at line 2"),
        ("TRHNET v1 2\nlayer 0 2 2 0\n1.0 0.5\n0.0 1.0\nlayer 1 3 2 0\n",
         "layer header at line 5 does not chain"),
        ("TRHNET v1 1\nlayer 0 2 2 1\n1.0 0.5\n0.0 1.0\n0.0 0.0\n",
         "layer header at line 2 .* final layer a bias"),
        ("", "empty checkpoint file"),
        ("TRHNET v1 x\n", "malformed header at line 1"),
        ("TRHNET v1 1\nlayer 0 2 2 0\n1.0 0.5\n0.0\n",
         "expected 2 values at line 4"),
        ("TRHNET v1 0\n", "malformed header at line 1"),
        ("TRHNET v1 \u00b2\n", "malformed header at line 1"),
        ("TRHNET v1 1\nlayer 0 2 2 0\n1.0 nan\n0.0 1.0\n",
         "non-finite weight at line 3"),
        ("TRHNET v1 1\nlayer 0 2 2 0\n1.0 0.5\n-inf 1.0\n",
         "non-finite weight at line 4"),
        ("TRHNET v1 1\nlayer 0 2 1 0\n1.0\n0.5\n",
         "layer header at line 2 .* fewer than 2 outputs"),
    ], ids=["trailing-line", "bias-flag", "bad-number", "short-header",
            "unchained-layer", "final-bias", "empty", "bad-depth", "short-row",
            "zero-depth", "non-ascii-depth", "nan-weight", "inf-weight",
            "one-output"])
    def test_malformed_checkpoint_names_its_line(self, tmp_path, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_checkpoint(path)


class TestInitChecks:
    @pytest.mark.parametrize("dims", [(2, 0, 2), (0, 3, 2), (2, 3, 0)])
    def test_zero_width_layer_rejected(self, dims):
        with pytest.raises(ValueError, match="width"):
            init_mlp(dims, Rng(0))


class _FailingFile:
    """A text file that writes half of what it is given, then fails as a
    full disk would."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[:len(text) // 2])
        self.fh.flush()
        raise OSError(28, "No space left on device")


def _write_metrics(net, path):
    log = MetricsLog(columns=["a", "b"])
    log.append(a=1, b=float(net.layers[0].weights[0, 0]))
    log.write_csv(path)


@pytest.mark.parametrize("write", [save_checkpoint, _write_metrics])
class TestAtomicWrites:
    def test_failed_write_keeps_old_file(self, tmp_path, monkeypatch, write):
        path = tmp_path / "out.txt"
        write(small_net(seed=1), path)
        old = path.read_bytes()
        real_open = open
        monkeypatch.setattr(trhreg.network, "open",
                            lambda *a, **kw: _FailingFile(real_open(*a, **kw)),
                            raising=False)
        with pytest.raises(OSError, match="No space"):
            write(small_net(seed=2), path)
        assert path.read_bytes() == old
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_write_replaces_and_leaves_no_temp(self, tmp_path, write):
        path = tmp_path / "out.txt"
        write(small_net(seed=1), path)
        write(small_net(seed=2), path)
        fresh = tmp_path / "fresh.txt"
        write(small_net(seed=2), fresh)
        assert path.read_bytes() == fresh.read_bytes()
        assert sorted(os.listdir(tmp_path)) == ["fresh.txt", "out.txt"]
