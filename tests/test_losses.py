import numpy as np
import pytest

from loss_references import (alp_pair_loss, cross_entropy, kl_div,
                             log_softmax, mart_losses, softmax_derivs)
from oracle_helpers import rowwise
from trhreg.network import forward, init_mlp
from trhreg.numerics import Rng, finite_diff_gradient
from trhreg.tape import softmax


class TestSoftmaxDerivs:
    def test_symmetric_two_logits(self):
        d = softmax_derivs(np.array([0.0, 0.0]))
        assert np.allclose(d.s, [0.5, 0.5])
        assert np.allclose(d.phi, [[0.25, -0.25], [-0.25, 0.25]])
        assert np.allclose(d.psi, [[0.5, -0.5], [-0.5, 0.5]])
        assert np.allclose(d.h, [0.25, 0.25])

    def test_uniform_h_sum(self):
        for k in (2, 3, 7, 10):
            d = softmax_derivs(np.full(k, 1.3))
            assert abs(d.h.sum() - (1 - 1 / k)) <= 1e-12

    def test_jacobians_match_finite_differences(self):
        g0 = Rng(5).child("g").normal(size=4) * 2

        for row in range(4):
            fd_phi = finite_diff_gradient(
                rowwise(lambda g, r=row: float(softmax(g)[r])), g0.copy())
            fd_psi = finite_diff_gradient(
                rowwise(lambda g, r=row: float(log_softmax(g)[r])), g0.copy())
            d = softmax_derivs(g0)
            assert np.linalg.norm(d.phi[row] - fd_phi) / np.linalg.norm(fd_phi) <= 1e-7
            assert np.linalg.norm(d.psi[row] - fd_psi) / np.linalg.norm(fd_psi) <= 1e-7

    def test_second_derivative_identity(self):
        # d Phi[i, k] / d g[k] = Phi[i, k] (1 - 2 s[k]); the curvature
        # formulas in trh.py lean on this, so pin it against finite
        # differences here
        g0 = Rng(9).child("g").normal(size=5)
        d0 = softmax_derivs(g0)
        h = 1e-6
        for k in range(5):
            gp, gm = g0.copy(), g0.copy()
            gp[k] += h
            gm[k] -= h
            fd = (softmax_derivs(gp).phi[:, k] - softmax_derivs(gm).phi[:, k]) / (2 * h)
            analytic = d0.phi[:, k] * (1 - 2 * d0.s[k])
            assert np.linalg.norm(fd - analytic) <= 1e-8

    def test_structural_invariants(self):
        rng = Rng(2).child("inv")
        for i in range(50):
            k = int(rng.integers(2, 8))
            d = softmax_derivs(rng.normal(size=k) * 3)
            assert abs(d.s.sum() - 1) <= 1e-12
            assert np.all((d.s > 0) & (d.s < 1))
            assert np.allclose(d.phi, d.phi.T, atol=1e-15)
            assert np.allclose(d.phi @ np.ones(k), 0, atol=1e-12)
            assert np.allclose(d.psi @ np.ones(k), 0, atol=1e-12)
            assert np.allclose(d.phi, np.diag(d.s) @ d.psi, atol=1e-12)
            assert np.allclose(d.h, np.diag(d.phi), atol=1e-15)
            assert 0 < d.h.sum() <= 1 - 1 / k + 1e-12

    def test_rejects_single_logit(self):
        with pytest.raises(ValueError):
            softmax_derivs(np.array([1.0]))


class TestCrossEntropy:
    def test_symmetric_binary(self):
        assert abs(cross_entropy(np.array([0.0, 0.0]), 0) - np.log(2)) <= 1e-12

    def test_saturated(self):
        assert cross_entropy(np.array([100.0, 0.0]), 0) <= 1e-12

    def test_three_class_value(self):
        val = cross_entropy(np.array([1.0, 2.0, 3.0]), 2)
        expected = np.log(1 + np.exp(-1) + np.exp(-2))  # -log(e^3 / sum)
        assert abs(val - expected) <= 1e-12
        assert abs(val - 0.40760596444438) <= 1e-9

    def test_label_range(self):
        with pytest.raises(ValueError):
            cross_entropy(np.array([0.0, 0.0]), 2)


class TestKlDiv:
    def test_zero_iff_equal(self):
        p = np.array([0.3, 0.2, 0.5])
        assert kl_div(p, p) == 0.0
        assert kl_div(p, np.array([0.2, 0.3, 0.5])) > 0

    def test_half_vs_quarter(self):
        val = kl_div(np.array([0.5, 0.5]), np.array([0.25, 0.75]))
        expected = 0.5 * np.log(2) + 0.5 * np.log(2 / 3)
        assert abs(val - expected) <= 1e-12
        assert abs(val - 0.1438410362258904) <= 1e-12

    def test_nonnegative_on_random_pairs(self):
        rng = Rng(3).child("kl")
        for _ in range(1000):
            p = softmax(rng.normal(size=4) * 2)
            q = softmax(rng.normal(size=4) * 2)
            assert kl_div(p, q) >= 0

    def test_zero_mass_handled(self):
        assert kl_div(np.array([0.0, 1.0]), np.array([0.5, 0.5])) == pytest.approx(np.log(2))

    def test_mass_where_q_has_none_is_infinite(self):
        assert kl_div(np.array([0.5, 0.5]), np.array([1.0, 0.0])) == np.inf


class TestAlpPairLoss:
    def test_identical_zero(self):
        p = np.array([0.4, 0.6])
        assert alp_pair_loss(p, p) == 0.0

    def test_extreme_two(self):
        assert alp_pair_loss(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 2.0

    def test_quarter_value(self):
        assert alp_pair_loss(np.array([0.5, 0.5]),
                             np.array([0.25, 0.75])) == pytest.approx(0.125)


def _traces(net, x, x_adv):
    return forward(net, x), forward(net, x_adv)


class TestMartLosses:
    def test_symmetric_binary_value(self):
        # clean logits [0,0], adv softmax [.5,.5], y=0:
        # bce = ln 2 - ln(1 - 0.5) = 2 ln 2
        net = init_mlp([2, 2], Rng(0).child("i"), hidden_bias=False)
        net.layers[0].weights[:] = 0.0
        tr = forward(net, np.array([1.0, 1.0]))
        terms = mart_losses(tr, tr, 0)
        assert abs(terms.bce - 2 * np.log(2)) <= 1e-12
        assert terms.kappa_star == 1

    def test_wkl_vanishes_when_confident_and_clean_equals_adv(self):
        net = init_mlp([2, 2], Rng(0).child("i"), hidden_bias=False)
        net.layers[0].weights[:] = np.array([[30.0, 0.0], [0.0, 0.0]])
        tr = forward(net, np.array([1.0, 0.0]))  # s ~ [1, 0]
        terms = mart_losses(tr, tr, 0)
        assert terms.wkl <= 1e-10

    def test_three_class_step_by_step(self):
        rng = Rng(7)
        net = init_mlp([3, 4, 3], rng.child("i"))
        x = rng.child("x").normal(size=3)
        x_adv = x + 0.05 * rng.child("e").normal(size=3)
        tr, tr_adv = _traces(net, x, x_adv)
        y = 1
        terms = mart_losses(tr, tr_adv, y)
        s = softmax(tr.logits)
        s_adv = softmax(tr_adv.logits)
        masked = s_adv.copy()
        masked[y] = -np.inf
        ks = int(np.argmax(masked))
        assert terms.kappa_star == ks
        assert terms.bce == pytest.approx(
            cross_entropy(tr.logits, y) - np.log(1 - s_adv[ks]), rel=1e-12)
        assert terms.wkl == pytest.approx(kl_div(s, s_adv) * (1 - s[y]), rel=1e-12)
        assert terms.bce >= 0 and terms.wkl >= 0

    def test_kappa_tie_breaks_to_lowest_index(self):
        net = init_mlp([3, 3], Rng(0).child("i"), hidden_bias=False)
        net.layers[0].weights[:] = 0.0  # uniform adv softmax: 0 vs 2 tie at y=1
        tr = forward(net, np.ones(3))
        assert mart_losses(tr, tr, 1).kappa_star == 0


class TestShiftInvariance:
    def test_losses_invariant_to_constant_logit_shift(self):
        rng = Rng(11)
        g = rng.child("g").normal(size=4)
        g2 = rng.child("g2").normal(size=4)
        for shift in (5.0, -3.0):
            assert abs(cross_entropy(g, 1) - cross_entropy(g + shift, 1)) <= 1e-10
            assert abs(kl_div(softmax(g), softmax(g2))
                       - kl_div(softmax(g + shift), softmax(g2 + shift))) <= 1e-10
            assert abs(alp_pair_loss(softmax(g), softmax(g2))
                       - alp_pair_loss(softmax(g + shift), softmax(g2 + shift))) <= 1e-10

