import platform

import numpy as np
import pytest

from oracle_helpers import rowwise
from trhreg import cli, numerics
from trhreg.losses import softmax
from trhreg.numerics import (OracleError, Rng, finite_diff_gradient,
                             hessian_diag_subset, pin_allocator,
                             rademacher_vector)


class TestFiniteDiffGradient:
    def test_quadratic_exact(self):
        grad = finite_diff_gradient(rowwise(lambda w: w[0] ** 2), np.array([3.0]))
        assert abs(grad[0] - 6.0) <= 1e-9

    def test_linear_exact(self):
        c = np.array([2.5, -1.25, 0.5])
        grad = finite_diff_gradient(rowwise(lambda w: float(c @ w) + 7.0),
                                    np.array([0.3, -0.2, 1.1]))
        assert np.allclose(grad, c, atol=1e-9)

    def test_matches_closed_form_ce_gradient(self):
        # linear softmax model on one example: dCE/dW[j,k] = x_j (s_k - y_k)
        rng = Rng(3)
        x = rng.child("x").normal(size=2)
        w0 = rng.child("w").normal(size=4)
        y = 1

        def ce(w):
            logits = x @ w.reshape(2, 2)
            return float(np.log(np.exp(logits).sum()) - logits[y])

        grad = finite_diff_gradient(rowwise(ce), w0)
        s = softmax(x @ w0.reshape(2, 2))
        s_minus_y = s.copy()
        s_minus_y[y] -= 1.0
        expected = np.outer(x, s_minus_y).ravel()
        rel = np.linalg.norm(grad - expected) / np.linalg.norm(expected)
        assert rel <= 1e-6

    def test_nonfinite_reports_index(self):
        def f(w):
            return float("nan") if w[1] > 0.5 else float(w @ w)

        with pytest.raises(OracleError) as err:
            finite_diff_gradient(rowwise(f), np.array([0.0, 0.5]))
        assert err.value.index == 1


class TestFiniteDiffHessianDiag:
    def test_diagonal_quadratic(self):
        d = np.array([1.0, 3.0])
        grad = lambda w: d * w
        diag = hessian_diag_subset(grad, np.array([0.7, -0.3]))
        assert np.allclose(diag, d, atol=1e-9)
        assert abs(diag.sum() - 4.0) <= 1e-9

    def test_linear_zero(self):
        c = np.array([5.0, -2.0, 1.0, 0.25])
        diag = hessian_diag_subset(rowwise(lambda w: c), np.zeros(4))
        assert np.allclose(diag, 0.0, atol=1e-12)

    def test_two_parameter_net_matches_hand_second_derivatives(self):
        # logits (w1 x, w2 x), CE at y=0: d2/dwk2 = x^2 s_k (1 - s_k)
        x = 1.3
        w0 = np.array([0.4, -0.9])

        def grad(w):
            s = softmax(w * x)
            return x * (s - np.array([1.0, 0.0]))

        diag = hessian_diag_subset(grad, w0)
        s = softmax(w0 * x)
        expected = x ** 2 * s * (1 - s)
        assert np.allclose(diag, expected, rtol=1e-7)


class TestRng:
    def test_identical_seed_identical_stream(self):
        a = Rng(42).uniform(size=5)
        b = Rng(42).uniform(size=5)
        assert np.array_equal(a, b)

    def test_pinned_stream_values(self):
        # counter-based generator: values must never drift across platforms
        vals = Rng(2024).uniform(size=3)
        pinned = [0.2706129375647399, 0.6189835150824522, 0.038714373390908996]
        assert [float(v) for v in vals] == pinned

    def test_children_independent_and_reproducible(self):
        root = Rng(7)
        a1 = root.child("alpha", 3).normal(size=4)
        a2 = Rng(7).child("alpha", 3).normal(size=4)
        b = Rng(7).child("alpha", 4).normal(size=4)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b)

    def test_child_rejects_negative_component(self):
        with pytest.raises(ValueError):
            Rng(0).child(-1)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            Rng(-1)

    def test_streams_pinned(self):
        # values of these streams before generators were built lazily
        assert [float(v) for v in Rng(0).normal(size=3)] == [
            -0.2059740286292238, -0.12884495093462758, -0.28978987549091256]
        assert [float(v) for v in Rng(3).child("instance", 17).uniform(size=3)] == [
            0.5394879352327202, 0.20083279384756392, 0.7819093701625155]
        assert [int(v) for v in Rng(1564).child("attack", 2, 0).integers(
            0, 1000, size=4)] == [97, 858, 245, 592]
        assert [int(v) for v in Rng(9).child("shuffle").child(4).permutation(6)] == [
            5, 0, 3, 2, 4, 1]

    @pytest.mark.parametrize("path, key", [
        ((), ()), ((5,), (5,)), (("alpha",), (1569418667,)),
        (("alpha", 3, "b"), (1569418667, 3, 3876335077))])
    def test_draws_equal_a_direct_construction(self, path, key):
        # a string component is its 32-bit FNV-1a hash
        seq = np.random.SeedSequence(entropy=11, spawn_key=key)
        direct = np.random.Generator(np.random.Philox(seq))
        rng = Rng(11).child(*path) if path else Rng(11)
        assert np.array_equal(rng.normal(size=5), direct.normal(size=5))
        assert np.array_equal(rng.integers(0, 9, size=5), direct.integers(0, 9, size=5))
        if path:  # a path given in two steps is the same stream
            two = Rng(11).child(path[0]).child(*path[1:])
            assert np.array_equal(two.normal(size=5),
                                  Rng(11).child(*path).normal(size=5))

    def test_generator_built_at_first_draw(self, monkeypatch):
        built = []
        real = np.random.Philox

        def counting(*args, **kwargs):
            built.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting)
        root = Rng(4)
        leaf = root.child("a").child(1, "b")
        assert built == []  # a stream used only for child() builds none
        leaf.uniform(size=2)
        leaf.normal(size=2)
        assert len(built) == 1


class TestRademacher:
    def test_deterministic_pattern(self):
        v1 = rademacher_vector(4, Rng(11).child("r"))
        v2 = rademacher_vector(4, Rng(11).child("r"))
        assert np.array_equal(v1, v2)
        assert set(np.unique(v1)).issubset({-1.0, 1.0})

    def test_squared_norm_is_n(self):
        for n in (1, 5, 137):
            v = rademacher_vector(n, Rng(n).child("norm"))
            assert float(v @ v) == float(n)

    def test_mean_near_zero(self):
        v = rademacher_vector(100_000, Rng(5).child("mean"))
        assert abs(v.mean()) < 0.02

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            rademacher_vector(0, Rng(0))


class TestPinAllocator:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc only")
    def test_sets_thresholds_on_glibc_and_is_idempotent(self):
        assert pin_allocator() is True
        assert pin_allocator() is True

    def test_does_nothing_off_glibc(self, monkeypatch):
        monkeypatch.setattr(numerics.platform, "libc_ver", lambda: ("", ""))
        assert pin_allocator() is False

    def test_cli_pins_before_parsing(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "pin_allocator", lambda: calls.append(1))
        assert cli.main(["--no-such-flag"]) == 1
        assert calls == [1]
