import numpy as np
import pytest

from oracle_helpers import rowwise, weight_indices
from trhreg.hessian_oracle import (eigen_stats, exact_trace,
                                   frozen_objective_fns, hessian_diag_subset,
                                   hutchinson_trace, hutchinson_trace_pair,
                                   hvp_from_grad, quad_form_from_values)
from trhreg.losses import RobustLossKind
from trhreg.network import flatten_weights, forward
from trhreg.numerics import OracleError, Rng
from trhreg.trh import trh_at
from trhreg.verify import sample_smooth_instance


class TestExactTrace:
    def test_diagonal_quadratic(self):
        d = np.array([1.0, 3.0])
        trace = exact_trace(lambda w: d * w, np.array([0.2, -0.5]))
        assert trace == pytest.approx(4.0, abs=1e-9)

    def test_subset_selection(self):
        d = np.array([1.0, 3.0, 7.0])
        grad = lambda w: d * w
        assert exact_trace(grad, np.zeros(3), [2]) == pytest.approx(7.0, abs=1e-9)
        diag = hessian_diag_subset(grad, np.zeros(3), [0, 2])
        assert np.allclose(diag, [1.0, 7.0], atol=1e-9)

    def test_top_layer_equals_closed_form(self):
        net, x, x_adv, y = sample_smooth_instance(301)
        _, grad_fn = frozen_objective_fns(net, x, x_adv, y, RobustLossKind("at"))
        oracle = exact_trace(grad_fn, flatten_weights(net),
                             weight_indices(net, layer=net.depth - 1))
        assert oracle == pytest.approx(trh_at(forward(net, x_adv[0])), rel=1e-5)

    def test_block_additivity(self):
        net, x, _, y = sample_smooth_instance(302)
        _, grad_fn = frozen_objective_fns(net, x, x, y, RobustLossKind("at"))
        w0 = flatten_weights(net)
        total = exact_trace(grad_fn, w0, weight_indices(net))
        parts = sum(exact_trace(grad_fn, w0, weight_indices(net, layer=i))
                    for i in range(net.depth))
        assert parts == pytest.approx(total, rel=1e-8)

    def test_nonfinite_gradient_reported(self):
        # nan half a stencil step (HESS_STEP) beyond the centre
        def grad(w):
            out = w.copy()
            if abs(w[0]) > 0.50005:
                out[0] = np.nan
            return out

        with pytest.raises(OracleError):
            exact_trace(rowwise(grad), np.array([0.5, 0.0]))


class TestHutchinsonTrace:
    def test_diagonal_hessian_exact_with_one_probe(self):
        d = np.array([2.0, -1.0, 4.0])
        quad = lambda v: float(v @ (d * v))
        est, se = hutchinson_trace(quad, 3, probes=1, rng=Rng(0).child("h"))
        assert est == pytest.approx(float(d.sum()), abs=1e-12)
        assert se == 0.0

    def test_fixed_trace_quadratic_within_three_se(self):
        rng = Rng(1)
        a = rng.child("m").normal(size=(10, 10))
        h_mat = a + a.T
        h_mat *= 10.0 / np.trace(h_mat)
        quad = lambda v: float(v @ h_mat @ v)
        est, se = hutchinson_trace(quad, 10, probes=1000, rng=rng.child("p"))
        assert abs(est - 10.0) <= 3 * se

    def test_variance_shrinks_like_one_over_probes(self):
        rng = Rng(2)
        a = rng.child("m").normal(size=(8, 8))
        h_mat = a + a.T
        quad = lambda v: float(v @ h_mat @ v)

        def spread(probes, reps=30):
            ests = [hutchinson_trace(quad, 8, probes, rng.child("r", probes, i))[0]
                    for i in range(reps)]
            return np.var(ests)

        v_small = spread(20)
        v_large = spread(320)
        # 16x probes: variance ratio should be ~16, allow wide slack
        assert v_small / v_large > 4.0

    def test_unbiasedness_over_200_runs(self):
        rng = Rng(3)
        a = rng.child("m").normal(size=(7, 7))
        h_mat = a + a.T
        truth = float(np.trace(h_mat))
        quad = lambda v: float(v @ h_mat @ v)
        ests, ses = [], []
        for i in range(200):
            e, s = hutchinson_trace(quad, 7, probes=25, rng=rng.child("run", i))
            ests.append(e)
            ses.append(s)
        pooled_se = float(np.sqrt(np.mean(np.square(ses)) / 200))
        assert abs(np.mean(ests) - truth) <= 3 * pooled_se

    def test_requires_probes(self):
        with pytest.raises(ValueError):
            hutchinson_trace(lambda v: 0.0, 3, probes=0, rng=Rng(0))


class TestHutchinsonTraceSq:
    def test_diagonal_exact_per_probe(self):
        d = np.array([1.0, 3.0])
        hvp = lambda v: d * v
        est, _ = hutchinson_trace_pair(hvp, 2, probes=1, rng=Rng(5).child("h"))[1]
        assert est == pytest.approx(10.0, abs=1e-12)

    def test_zero_matrix(self):
        est, se = hutchinson_trace_pair(lambda v: np.zeros_like(v), 5,
                                        probes=3, rng=Rng(6).child("h"))[1]
        assert est == 0.0 and se == 0.0

    def test_matches_dense_eigensolver(self):
        rng = Rng(7)
        a = rng.child("m").normal(size=(6, 6))
        sym = a + a.T
        truth = float(np.sum(np.linalg.eigvalsh(sym) ** 2))
        est, se = hutchinson_trace_pair(lambda v: sym @ v, 6, probes=4000,
                                        rng=rng.child("p"))[1]
        assert abs(est - truth) <= 3 * se


class TestQuadFormAndHvp:
    def test_quad_form_from_values_on_quadratic(self):
        h_mat = np.array([[2.0, 1.0], [1.0, 4.0]])
        value_fn = lambda w: 0.5 * float(w @ h_mat @ w) + float(w.sum()) + 3.0
        quad = quad_form_from_values(value_fn, np.array([0.3, -0.7]))
        v = np.array([1.0, -1.0])
        assert quad(v) == pytest.approx(float(v @ h_mat @ v), rel=1e-6)

    def test_quad_form_nonfinite_value_reported(self):
        # nan one QUAD_STEP beyond the centre, on the + side of the stencil
        quad = quad_form_from_values(
            lambda w: np.nan if w[0] > 0.5 else float(w @ w), np.array([0.5, 0.0]))
        with pytest.raises(OracleError, match="non-finite value in quadratic form"):
            quad(np.array([1.0, 0.0]))

    def test_hvp_from_grad_on_quadratic(self):
        h_mat = np.array([[2.0, 1.0], [1.0, 4.0]])
        grad_fn = lambda w: h_mat @ w + 1.0
        hvp = hvp_from_grad(grad_fn, np.array([0.1, 0.2]))
        v = np.array([0.5, 2.0])
        assert np.allclose(hvp(v), h_mat @ v, rtol=1e-8)


class TestEigenStats:
    def test_diag_one_three(self):
        mean, std = eigen_stats(4.0, 10.0, 2)
        assert mean == 2.0 and std == 1.0

    def test_equal_eigenvalues_zero_std(self):
        mean, std = eigen_stats(6.0, 12.0, 3)  # all eigenvalues 2
        assert mean == 2.0 and std == 0.0

    def test_matches_eigensolver_on_random_matrix(self):
        a = Rng(8).child("m").normal(size=(9, 9))
        sym = a + a.T
        eig = np.linalg.eigvalsh(sym)
        mean, std = eigen_stats(float(eig.sum()), float((eig ** 2).sum()), 9)
        assert mean == pytest.approx(float(eig.mean()), abs=1e-9)
        assert std == pytest.approx(float(eig.std()), abs=1e-9)

    def test_tiny_negative_variance_clamped(self):
        _, std = eigen_stats(2.0, 2.0 - 1e-12, 2)
        assert std == 0.0
