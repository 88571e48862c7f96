import numpy as np
import pytest

from trhreg.attacks import AttackConfig, pgd
from trhreg.config import RobustLossKind
from trhreg.data import two_moons
from trhreg.hessian_oracle import frozen_objective_fns
from trhreg.network import flatten_weights, init_mlp, lift, param_count
from trhreg.numerics import Rng, hessian_diag_subset
from trhreg.pacbayes import (GaussianPosterior, OutOfRegimeError,
                             PacBayesConfig, bound_surrogate, expected_loss_mc,
                             gaussian_kl, optimal_sigma_diag,
                             optimal_sigma_spherical,
                             second_order_inner_objective)
from trhreg.trh import analytic_trh_rows, objective_nodes, robust_loss_rows


class TestGaussianKl:
    def test_zero_at_prior(self):
        post = GaussianPosterior(np.zeros(5), 0.3)
        assert gaussian_kl(post, 0.3) == pytest.approx(0.0, abs=1e-15)

    def test_worked_example(self):
        # theta=[1,0], all variances 0.5 = prior: 0.5 * [0 - 2 + 2 + 2] = 1
        post = GaussianPosterior(np.array([1.0, 0.0]), 0.5)
        assert gaussian_kl(post, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_matches_per_dimension_quadrature(self):
        rng = Rng(1)
        mean = rng.child("m").normal(size=3)
        var = np.exp(rng.child("v").normal(size=3) * 0.4) * 0.2
        post = GaussianPosterior(mean, var)
        sigma0_sq = 0.25

        total = 0.0
        for mu, s2 in zip(mean, var):
            half_width = 10.0 * np.sqrt(max(s2, sigma0_sq))
            grid = np.linspace(mu - half_width, mu + half_width, 400_001)
            q = np.exp(-0.5 * (grid - mu) ** 2 / s2) / np.sqrt(2 * np.pi * s2)
            p = np.exp(-0.5 * grid ** 2 / sigma0_sq) / np.sqrt(2 * np.pi * sigma0_sq)
            integrand = np.where(q > 0, q * (np.log(np.where(q > 0, q, 1.0))
                                             - np.log(p)), 0.0)
            total += np.trapezoid(integrand, grid)
        assert gaussian_kl(post, sigma0_sq) == pytest.approx(total, abs=1e-9)

    def test_nonnegative_random(self):
        rng = Rng(2)
        for i in range(200):
            r = rng.child(i)
            post = GaussianPosterior(r.normal(size=6),
                                     np.exp(r.normal(size=6)) * 0.1)
            assert gaussian_kl(post, 0.1) >= -1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianPosterior(np.zeros(2), 0.0)
        with pytest.raises(ValueError):
            GaussianPosterior(np.zeros(2), np.array([0.1, -0.1]))
        with pytest.raises(ValueError):
            gaussian_kl(GaussianPosterior(np.zeros(2), 0.1), -1.0)


class TestOptimalSigma:
    def test_zero_trace_keeps_prior(self):
        assert optimal_sigma_spherical(0.0, 0.1, 100.0, 7) == pytest.approx(0.1)

    def test_worked_example(self):
        # sigma0^2=0.1, beta=100, N=10, trace=10 -> 0.1 / (1 + 0.1*100*1)
        val = optimal_sigma_spherical(10.0, 0.1, 100.0, 10)
        assert val == pytest.approx(0.1 / 11.0, rel=1e-12)

    def test_grid_confirms_spherical_minimizer(self):
        rng = Rng(3)
        for i in range(5):
            r = rng.child(i)
            dim = 6
            diag = np.abs(r.normal(size=dim)) * 2
            theta = r.normal(size=dim)
            sph = optimal_sigma_spherical(float(diag.sum()), 0.1, 50.0, dim)
            best = second_order_inner_objective(0.3, diag, theta, sph, 0.1, 50.0)
            for g in np.logspace(np.log10(sph) - 2, np.log10(sph) + 2, 100):
                assert best <= second_order_inner_objective(
                    0.3, diag, theta, float(g), 0.1, 50.0) + 1e-9

    def test_diag_zero_curvature_keeps_prior(self):
        out = optimal_sigma_diag(np.zeros(4), 0.2, 10.0)
        assert np.allclose(out, 0.2)

    def test_diag_single_entry_matches_spherical(self):
        d = np.array([3.7])
        diag = optimal_sigma_diag(d, 0.1, 40.0)
        sph = optimal_sigma_spherical(3.7, 0.1, 40.0, 1)
        assert diag[0] == pytest.approx(sph, rel=1e-15)

    def test_diag_beats_spherical_family(self):
        rng = Rng(4)
        for i in range(5):
            r = rng.child(i)
            diag = np.abs(r.normal(size=8)) * r.uniform(0.5, 3.0)
            theta = r.normal(size=8)
            sph = optimal_sigma_spherical(float(diag.sum()), 0.1, 50.0, 8)
            dvec = optimal_sigma_diag(diag, 0.1, 50.0)
            v_sph = second_order_inner_objective(0.0, diag, theta, sph, 0.1, 50.0)
            v_diag = second_order_inner_objective(0.0, diag, theta, dvec, 0.1, 50.0)
            assert v_diag <= v_sph + 1e-12

    def test_out_of_regime_reports(self):
        with pytest.raises(OutOfRegimeError):
            optimal_sigma_spherical(-1e4, 0.1, 100.0, 2)
        with pytest.raises(OutOfRegimeError) as err:
            optimal_sigma_diag(np.array([1.0, -1e5, 2.0, -1e5]), 0.1, 100.0)
        assert err.value.indices == [1, 3]


def tiny_problem(seed=0, n=16):
    ds = two_moons(n, noise_std=0.1, seed=seed)
    net = init_mlp([2, 4, 2], Rng(seed).child("net"))
    kind = RobustLossKind("at")
    attack = AttackConfig(delta=0.05, steps=3)
    return ds, net, kind, attack


class TestExpectedLossMc:
    def test_degenerate_posterior_recovers_point_loss(self):
        ds, net, kind, attack = tiny_problem()
        post = GaussianPosterior(flatten_weights(net), 1e-30)
        mean, _ = expected_loss_mc(net, ds, kind, attack, post, samples=3,
                                   rng=Rng(1).child("mc"))
        x_adv = pgd(net, ds.inputs, ds.labels, attack,
                    Rng(1).child("mc").child("draw", 0).child("attack"))
        ref = float(np.mean(robust_loss_rows(net, ds.inputs, x_adv,
                                             ds.labels, kind)))
        assert mean == pytest.approx(ref, abs=1e-6)

    def test_gaussian_moment_on_quadratic(self):
        # E[0.5 ||theta||^2] under N(0, sigma^2 I) equals N sigma^2 / 2;
        # check the Monte-Carlo machinery through the same draw pattern
        dim, sigma_sq = 40, 0.3
        post = GaussianPosterior(np.zeros(dim), sigma_sq)
        rng = Rng(2).child("mc")
        samples = 400
        vals = np.empty(samples)
        sigma = np.sqrt(post.variances())
        for i in range(samples):
            theta = post.mean + sigma * rng.child("draw", i).normal(size=dim)
            vals[i] = 0.5 * float(theta @ theta)
        se = float(np.std(vals, ddof=1) / np.sqrt(samples))
        assert abs(vals.mean() - dim * sigma_sq / 2) <= 3 * se

    def test_se_shrinks_with_samples(self):
        ds, net, kind, attack = tiny_problem(seed=3, n=8)
        post = GaussianPosterior(flatten_weights(net), 0.05)
        _, se_small = expected_loss_mc(net, ds, kind, attack, post, 20,
                                       Rng(4).child("a"))
        _, se_big = expected_loss_mc(net, ds, kind, attack, post, 80,
                                     Rng(4).child("a"))
        assert se_big < se_small

    def test_posterior_dimension_checked(self):
        ds, net, kind, attack = tiny_problem()
        post = GaussianPosterior(np.zeros(3), 0.1)
        with pytest.raises(ValueError):
            expected_loss_mc(net, ds, kind, attack, post, 1, Rng(0))


class TestBoundSurrogate:
    def test_vanishing_penalties_reduce_to_risk(self):
        ds, net, kind, attack = tiny_problem(seed=5)
        cfg = PacBayesConfig(sigma0_sq=1e-9, beta=1e15)
        x_adv = pgd(net, ds.inputs, ds.labels, attack, Rng(6).child("b"))
        risk = float(np.mean(robust_loss_rows(net, ds.inputs, x_adv,
                                              ds.labels, kind)))
        val = bound_surrogate(net, ds.inputs, x_adv, ds.labels, kind, cfg,
                              trh_value=5.0)
        assert val == pytest.approx(risk, rel=1e-3)

    @pytest.mark.parametrize("variant", ["at", "trades"])
    def test_is_the_risk_at_the_given_points_plus_penalties(self, variant):
        # any points, not only an attack's: the surrogate attacks nothing
        ds, net, _, _ = tiny_problem(seed=11)
        kind = RobustLossKind(variant, 6.0 if variant == "trades" else 0.0)
        x_adv = ds.inputs + Rng(12).child("p").normal(size=ds.inputs.shape) * 0.1
        cfg = PacBayesConfig(sigma0_sq=0.03, beta=50.0, c_const=0.7)
        theta = flatten_weights(net)
        want = (float(np.mean(robust_loss_rows(net, ds.inputs, x_adv, ds.labels,
                                               kind)))
                + float(theta @ theta) / (2 * cfg.beta * cfg.sigma0_sq)
                + (cfg.sigma0_sq / 2) * 4.0 + cfg.c_const)
        got = bound_surrogate(net, ds.inputs, x_adv, ds.labels, kind, cfg, 4.0)
        assert got == pytest.approx(want, rel=1e-14, abs=0)

    def test_reparameterization_identity(self):
        ds, net, kind, attack = tiny_problem(seed=7)
        cfg = PacBayesConfig(sigma0_sq=0.02, beta=250.0)
        x_adv = pgd(net, ds.inputs, ds.labels, attack, Rng(8).child("atk"))
        trh_mean = float(np.mean(analytic_trh_rows(net, ds.inputs, x_adv,
                                                   ds.labels, kind)))
        surrogate = bound_surrogate(net, ds.inputs, x_adv, ds.labels, kind, cfg,
                                    trh_mean)
        node = objective_nodes(lift(net), ds.inputs, x_adv, ds.labels, kind,
                               cfg.lam, cfg.gamma)
        assert abs(surrogate - float(node.value)) <= 1e-12 * max(1.0, abs(surrogate))

    def test_surrogate_dominates_expanded_inner_objective(self):
        # with the optimal per-weight variances the expanded bound sits at
        # most O(sigma0^4 N) below the surrogate
        ds, net, kind, attack = tiny_problem(seed=9, n=10)
        n_params = param_count(net)
        x_adv = pgd(net, ds.inputs, ds.labels, attack, Rng(10).child("a"))
        _, grad_fn = frozen_objective_fns(net, ds.inputs, x_adv, ds.labels, kind)
        diag = hessian_diag_subset(grad_fn, flatten_weights(net))
        risk = float(np.mean(robust_loss_rows(net, ds.inputs, x_adv,
                                              ds.labels, kind)))
        theta = flatten_weights(net)
        for sigma0_sq in (1e-2, 1e-3):
            beta = 1.0 / sigma0_sq
            try:
                dvec = optimal_sigma_diag(diag, sigma0_sq, beta)
            except OutOfRegimeError:
                continue
            inner = second_order_inner_objective(risk, diag, theta, dvec,
                                                 sigma0_sq, beta)
            surrogate = (risk + float(theta @ theta) / (2 * beta * sigma0_sq)
                         + (sigma0_sq / 2) * float(diag.sum()))
            assert inner <= surrogate + 10 * sigma0_sq ** 2 * n_params

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PacBayesConfig(sigma0_sq=-1.0, beta=1.0)
        with pytest.raises(ValueError):
            PacBayesConfig(sigma0_sq=1.0, beta=0.0)
        cfg = PacBayesConfig(sigma0_sq=0.1, beta=5.0)
        assert cfg.gamma == pytest.approx(1.0)
        assert cfg.lam == pytest.approx(0.05)
        assert cfg.consistent_with(1.0, 0.05)
        assert not cfg.consistent_with(1.1, 0.05)
