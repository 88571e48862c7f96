import numpy as np
import pytest

from trhreg.attacks import AttackConfig, pgd, predictions
from trhreg.config import RobustLossKind, TrHConfig
from trhreg.data import two_moons
from trhreg.network import flatten_weights, forward, init_mlp
from trhreg.numerics import Rng
from trhreg.trainer import (MeasureConfig, TrainConfig, awp_step, lambda_at,
                            lr_at, swa_update, train)
from trhreg.trh import robust_loss_rows
from trhreg.verify import sample_smooth_instance


class TestLambdaSchedule:
    def test_multistep_phases(self):
        # T=100, lam=1: 0.01 before 10%, 0.1 before 50%, then full
        assert lambda_at("multistep", 5, 100, 1.0) == 0.01
        assert lambda_at("multistep", 30, 100, 1.0) == 0.1
        assert lambda_at("multistep", 80, 100, 1.0) == 1.0

    def test_multistep_boundaries(self):
        assert lambda_at("multistep", 9, 100, 1.0) == 0.01
        assert lambda_at("multistep", 10, 100, 1.0) == 0.1
        assert lambda_at("multistep", 49, 100, 1.0) == 0.1
        assert lambda_at("multistep", 50, 100, 1.0) == 1.0

    def test_linear_endpoints(self):
        assert lambda_at("linear", 0, 40, 2.0) == 0.0
        assert lambda_at("linear", 39, 40, 2.0) == 2.0

    def test_constant(self):
        for t in (0, 7, 99):
            assert lambda_at("constant", t, 100, 0.3) == 0.3

    def test_range_checked(self):
        with pytest.raises(ValueError):
            lambda_at("constant", 100, 100, 1.0)


class TestLrSchedule:
    def cfg(self, **kw):
        base = dict(epochs=1, base_lr=1.0)
        base.update(kw)
        return TrainConfig(**base)

    def test_warmup_reaches_base(self):
        cfg = self.cfg(warmup_iters=10, lr_decay="cosine")
        assert lr_at(cfg, 0, 100) == 0.0
        assert lr_at(cfg, 5, 100) == pytest.approx(0.5)
        assert lr_at(cfg, 10, 100) == pytest.approx(1.0)

    def test_cosine_midpoint_half(self):
        cfg = self.cfg(warmup_iters=0, lr_decay="cosine")
        assert lr_at(cfg, 50, 100) == pytest.approx(0.5)

    def test_cosine_final_near_zero(self):
        cfg = self.cfg(warmup_iters=0, lr_decay="cosine")
        assert lr_at(cfg, 99, 100) < 0.001

    def test_multistep_drops(self):
        cfg = self.cfg(lr_decay="multistep", lr_milestones=(0.5, 0.75),
                       lr_drop=0.1)
        assert lr_at(cfg, 10, 100) == pytest.approx(1.0)
        assert lr_at(cfg, 60, 100) == pytest.approx(0.1)
        assert lr_at(cfg, 90, 100) == pytest.approx(0.01)

    def test_constant(self):
        cfg = self.cfg(lr_decay="constant")
        assert lr_at(cfg, 73, 100) == 1.0


class TestSwa:
    def test_worked_example(self):
        avg = swa_update(np.zeros(3), np.ones(3), 0.995)
        assert np.allclose(avg, 0.005)

    def test_alpha_zero_copies_new_weights(self):
        theta = np.array([1.0, -2.0])
        assert np.array_equal(swa_update(np.array([5.0, 5.0]), theta, 0.0), theta)

    def test_fixed_point_convergence(self):
        avg = np.zeros(2)
        theta = np.array([1.0, 2.0])
        for _ in range(3000):
            avg = swa_update(avg, theta, 0.995)
        assert np.allclose(avg, theta, atol=1e-6)

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            swa_update(np.zeros(2), np.zeros(3), 0.5)


class TestAwp:
    def test_projection_contract_exact(self):
        net, x, x_adv, y = sample_smooth_instance(401)
        xi = awp_step(net, x, x_adv, y, RobustLossKind("at"), delta_awp=0.01)
        for layer, xi_w in zip(net.layers, xi):
            ratio = np.linalg.norm(xi_w) / np.linalg.norm(layer.weights)
            assert ratio == pytest.approx(0.01, rel=1e-12) or ratio == 0.0

    def test_vanishing_budget_vanishing_perturbation(self):
        net, x, x_adv, y = sample_smooth_instance(402)
        xi = awp_step(net, x, x_adv, y, RobustLossKind("at"), delta_awp=1e-9)
        for xi_w in xi:
            assert np.linalg.norm(xi_w) <= 1e-9 * 100

    def test_ascent_increases_loss_on_most_instances(self):
        kind = RobustLossKind("at")
        wins = 0
        total = 40
        for i in range(total):
            net, x, x_adv, y = sample_smooth_instance(500 + i)
            xi = awp_step(net, x, x_adv, y, kind, delta_awp=0.005)
            perturbed = net.copy()
            for layer, xi_w in zip(perturbed.layers, xi):
                layer.weights += xi_w
            before = float(np.mean(robust_loss_rows(net, x, x_adv, y, kind)))
            after = float(np.mean(robust_loss_rows(perturbed, x, x_adv, y, kind)))
            wins += after >= before
        assert wins / total >= 0.95

    def test_budget_validated(self):
        net, x, x_adv, y = sample_smooth_instance(403)
        with pytest.raises(ValueError):
            awp_step(net, x, x_adv, y, RobustLossKind("at"), delta_awp=0.0)


def toy_run(seed=0, epochs=6, baseline="none", lam=0.0, **kw):
    ds = two_moons(60, noise_std=0.1, seed=1)
    net = init_mlp([2, 8, 2], Rng(seed).child("init"))
    kw.setdefault("base_lr", 0.1)
    cfg = TrainConfig(epochs=epochs, lr_decay="constant",
                      seed=seed, baseline=baseline, **kw)
    attack = AttackConfig(delta=0.02, steps=1)
    return train(net, ds, RobustLossKind("at"), TrHConfig(lam=lam),
                 attack, cfg), ds


class TestTrainLoop:
    def test_bitwise_deterministic(self):
        res_a, _ = toy_run(seed=3, lam=0.1)
        res_b, _ = toy_run(seed=3, lam=0.1)
        assert res_a.metrics.to_csv() == res_b.metrics.to_csv()
        assert np.array_equal(flatten_weights(res_a.net),
                              flatten_weights(res_b.net))

    def test_seed_changes_trajectory(self):
        res_a, _ = toy_run(seed=3)
        res_b, _ = toy_run(seed=4)
        assert res_a.metrics.to_csv() != res_b.metrics.to_csv()

    def test_metrics_columns_and_rows(self):
        res, _ = toy_run(epochs=4)
        assert [r["epoch"] for r in res.metrics.rows] == [0, 1, 2, 3]
        assert set(res.metrics.rows[0]) == {"epoch", "train_loss", "clean_acc",
                                            "pgd_acc", "lambda_eff", "lr"}

    def test_learns_the_toy_problem(self):
        res, ds = toy_run(epochs=40)
        assert res.metrics.rows[-1]["clean_acc"] >= 0.9

    def test_swa_average_tracks_weights(self):
        res, _ = toy_run(epochs=5, baseline="swa", swa_alpha=0.5)
        assert not np.array_equal(flatten_weights(res.net),
                                  flatten_weights(res.raw_net))

    def test_awp_baseline_runs(self):
        res, _ = toy_run(epochs=3, baseline="awp", awp_delta=0.005)
        assert len(res.metrics.rows) == 3
        assert not res.diverged

    def test_negative_full_coeff_rejected(self):
        # a negative coefficient would reward curvature
        with pytest.raises(ValueError, match="full_coeff"):
            TrHConfig(full_coeff=-1.0)
        assert TrHConfig(full_coeff=0.0).full_coeff == 0.0

    def test_a_step_runs_one_forward_per_side(self, monkeypatch):
        # the whole-network term rides on the objective's adversarial
        # forward; the attack's forwards (network.forward) are not counted
        from trhreg import layer_traces, trh
        calls = []
        original = trh.forward_nodes

        def forward_nodes(lifted, X):
            calls.append(len(X))
            return original(lifted, X)

        for module in (trh, layer_traces):
            monkeypatch.setattr(module, "forward_nodes", forward_nodes)
        ds = two_moons(40, seed=2)
        cfg = TrainConfig(epochs=2, base_lr=0.05, lr_decay="constant", seed=0)
        train(init_mlp([2, 6, 2], Rng(1).child("i")), ds,
              RobustLossKind("trades", 6.0), TrHConfig(lam=0.1, full_coeff=0.05),
              AttackConfig(delta=0.02, steps=1), cfg)
        assert calls == [40] * 4  # two full-batch steps, clean and adversarial

    def test_divergence_aborts_with_flag(self):
        res, _ = toy_run(epochs=5, base_lr=1e9)
        assert res.diverged
        assert res.diverged_epoch is not None
        assert all(np.isfinite(flatten_weights(res.net)))

    def test_non_finite_epoch_end_attack_stops_the_run(self):
        # one full-batch step at this rate leaves float64-finite weights on
        # which the float32 attack overflows: the run stops at that epoch
        # with a nan robust accuracy instead of carrying a nan attack on
        res, _ = toy_run(epochs=3, base_lr=1e25)
        assert res.diverged_epoch == 0
        [row] = res.metrics.rows
        assert np.isnan(row["pgd_acc"]) and np.isfinite(row["clean_acc"])
        assert all(np.isfinite(flatten_weights(res.net)))

    def test_minibatch_iteration_count(self):
        ds = two_moons(50, seed=1)
        net = init_mlp([2, 4, 2], Rng(0).child("i"))
        cfg = TrainConfig(epochs=2, base_lr=0.05, batch_size=16,
                          lr_decay="constant", seed=0)
        res = train(net, ds, RobustLossKind("at"), TrHConfig(),
                    AttackConfig(delta=0.02, steps=1), cfg)
        # 50 // 16 = 3 iterations per epoch, remainder dropped
        assert len(res.metrics.rows) == 2

    def test_measure_top_records_rows(self):
        ds = two_moons(40, seed=2)
        net = init_mlp([2, 6, 2], Rng(1).child("i"))
        cfg = TrainConfig(epochs=4, base_lr=0.05, lr_decay="constant", seed=0)
        res = train(net, ds, RobustLossKind("at"), TrHConfig(),
                    AttackConfig(delta=0.02, steps=1), cfg,
                    measure=MeasureConfig(mode="top", every=2))
        epochs = [r["epoch"] for r in res.measurements]
        assert epochs == [0, 2, 3]  # every 2 plus the final epoch
        assert all("trh_top_analytic" in r for r in res.measurements)

    def test_full_estimate_agrees_with_exact_trace_on_tiny_net(self):
        # the probe estimate and the gradient-difference oracle measure the
        # same frozen objective; on a tiny net they must agree within 3 SE.
        # Probe stencils step every weight at once, so the smooth-point
        # policy needs a margin wider than the per-coordinate threshold:
        # keep only examples whose pre-activations clear 0.05.
        from trhreg.attacks import pgd
        from trhreg.hessian_oracle import (exact_trace, frozen_objective_fns,
                                           hutchinson_trace,
                                           quad_form_from_values)
        from trhreg.network import forward

        ds = two_moons(60, noise_std=0.1, seed=6)
        net = init_mlp([2, 6, 2], Rng(5).child("i"))
        kind = RobustLossKind("at")
        attack = AttackConfig(delta=0.02, steps=1)
        x_adv = pgd(net, ds.inputs, ds.labels, attack, Rng(6).child("a"))
        margins = np.minimum(
            np.abs(forward(net, ds.inputs).preacts[0]).min(axis=1),
            np.abs(forward(net, x_adv).preacts[0]).min(axis=1))
        keep = margins >= 0.05
        assert keep.sum() >= 20
        x, xa, y = ds.inputs[keep], x_adv[keep], ds.labels[keep]

        w0 = flatten_weights(net)
        value_fn, grad_fn = frozen_objective_fns(net, x, xa, y, kind)
        quad = quad_form_from_values(value_fn, w0)
        est, se = hutchinson_trace(quad, w0.size, probes=600,
                                   rng=Rng(7).child("p"))
        exact = exact_trace(grad_fn, w0)
        assert abs(est - exact) <= 3 * se

    def test_spectrum_rows_additive_trace(self):
        ds = two_moons(30, seed=2)
        net = init_mlp([2, 5, 2], Rng(2).child("i"))
        cfg = TrainConfig(epochs=2, base_lr=0.05, lr_decay="constant", seed=0)
        res = train(net, ds, RobustLossKind("at"), TrHConfig(),
                    AttackConfig(delta=0.02, steps=1), cfg,
                    measure=MeasureConfig(mode="spectrum", every=1, probes=8))
        by_epoch = {}
        for row in res.measurements:
            by_epoch.setdefault(row["epoch"], {})[row["layer"]] = row
        for epoch, rows in by_epoch.items():
            layer_sum = sum(rows[i]["trace"] for i in rows if i > 0)
            assert rows[0]["trace"] == pytest.approx(layer_sum, rel=1e-12)
            assert all(rows[i]["eig_std"] >= 0 for i in rows)

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0, base_lr=0.1)
        with pytest.raises(ValueError):
            TrainConfig(epochs=1, base_lr=0.1, momentum=1.0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=1, base_lr=0.1, baseline="sam")


def reuse_run(epochs=4, kind=RobustLossKind("at"), inner="ce", restarts=1,
              **kw):
    """A full-batch AT run whose attack moves the accuracy: 80 moons, a
    3-step attack at delta 0.1 whose short steps leave the random start
    mattering, a constant rate."""
    ds = two_moons(80, noise_std=0.1, seed=2)
    net = init_mlp([2, 10, 2], Rng(5).child("init"))
    attack = AttackConfig(delta=0.1, steps=3, step_size=0.05, inner_loss=inner,
                          restarts=restarts)
    cfg = TrainConfig(epochs=epochs, base_lr=0.1, lr_decay="constant", seed=5, **kw)
    return train(net, ds, kind, TrHConfig(lam=0.1), attack, cfg), ds, attack


class TestFullBatchAttackReuse:
    """A full-batch CE run whose attack has one restart reads each epoch's
    pgd_acc off the attack that the next epoch's step makes."""

    def test_pgd_acc_is_the_next_steps_attack(self):
        epochs = 4
        res, ds, attack = reuse_run(epochs)
        m = len(ds.labels)
        rng = Rng(5)
        for e, row in enumerate(res.metrics.rows):
            # the constant rate makes a shorter run stop at this epoch's weights
            net_e = reuse_run(e + 1)[0].raw_net
            p = rng.child("shuffle", e + 1).permutation(m)
            x_adv = pgd(net_e, ds.inputs[p], ds.labels[p], attack,
                        rng.child("attack", e + 1, 0))
            want = float(np.mean(predictions(net_e, x_adv) == ds.labels[p]))
            assert row["pgd_acc"] == want
        assert len({row["pgd_acc"] for row in res.metrics.rows}) > 1
        assert any(row["pgd_acc"] < row["clean_acc"] for row in res.metrics.rows)

    def test_evaluation_never_perturbs_training(self):
        # two restarts take the eval_robust_accuracy path; the training
        # attack makes one run either way
        reused, _, _ = reuse_run(restarts=1)
        separate, _, _ = reuse_run(restarts=2)
        assert np.array_equal(flatten_weights(reused.raw_net),
                              flatten_weights(separate.raw_net))
        for a, b in zip(reused.metrics.rows, separate.metrics.rows):
            for key in ("train_loss", "clean_acc", "lambda_eff", "lr"):
                assert a[key] == b[key]

    @pytest.mark.parametrize("case, evals", [
        ("full batch", 0), ("minibatch", 4), ("swa", 4), ("trades", 4),
        ("two restarts", 4)])
    def test_which_runs_reuse(self, monkeypatch, case, evals):
        import trhreg.trainer

        calls = {"pgd": 0, "eval": 0}
        real_pgd, real_eval = trhreg.trainer.pgd, trhreg.trainer.eval_robust_accuracy

        def counting_pgd(*args, **kwargs):
            calls["pgd"] += 1
            return real_pgd(*args, **kwargs)

        def counting_eval(*args, **kwargs):
            calls["eval"] += 1
            return real_eval(*args, **kwargs)

        monkeypatch.setattr(trhreg.trainer, "pgd", counting_pgd)
        monkeypatch.setattr(trhreg.trainer, "eval_robust_accuracy", counting_eval)
        kw = {"minibatch": {"batch_size": 40}, "swa": {"baseline": "swa"},
              "trades": {"kind": RobustLossKind("trades", 6.0), "inner": "kl"},
              "two restarts": {"restarts": 2}}.get(case, {})
        res, _, _ = reuse_run(4, **kw)
        assert len(res.metrics.rows) == 4 and not res.diverged
        assert calls["eval"] == evals
        # the training steps' attacks, plus the reused run's one more
        steps = 8 if case == "minibatch" else 4
        assert calls["pgd"] == steps + (evals == 0)


class TestNonFiniteGradient:
    def test_stops_before_the_update(self, monkeypatch):
        import trhreg.trainer as trainer_module

        real_backprop = trainer_module.backprop
        calls = []

        def nan_grad_backprop(net, objective):
            value, grads = real_backprop(net, objective)
            calls.append(value)
            if len(calls) < 3:
                return value, grads
            gw, gb = grads[0]
            gw = gw.copy()
            gw[0, 0] = np.nan
            return value, [(gw, gb)] + grads[1:]

        monkeypatch.setattr(trainer_module, "backprop", nan_grad_backprop)
        ds = two_moons(40, seed=3)
        net = init_mlp([2, 6, 2], Rng(3).child("i"))
        cfg = TrainConfig(epochs=4, base_lr=0.05, batch_size=20,
                          lr_decay="constant", seed=0)
        res = train(net, ds, RobustLossKind("at"), TrHConfig(),
                    AttackConfig(delta=0.02, steps=1), cfg)
        assert res.diverged and res.diverged_epoch == 1
        assert len(calls) == 3 and np.isfinite(calls[-1])
        assert np.all(np.isfinite(flatten_weights(res.net)))
        assert np.all(np.isfinite(flatten_weights(res.raw_net)))
        # the two updates before the nan step are kept
        assert not np.array_equal(flatten_weights(res.raw_net), flatten_weights(net))


class TestAwpDivergence:
    def test_non_finite_awp_gradient_stops_the_run(self, monkeypatch):
        # the AWP ascent step runs backprop before the update; a
        # non-finite objective there is a divergence of the step, not an
        # escaped error, and the updates before it are kept
        import trhreg.trainer as trainer_module
        from trhreg.network import TrainingDivergence

        real_awp_step = trainer_module.awp_step
        calls = []

        def failing_awp_step(*args):
            calls.append(1)
            if len(calls) == 3:
                raise TrainingDivergence("objective evaluated to nan")
            return real_awp_step(*args)

        monkeypatch.setattr(trainer_module, "awp_step", failing_awp_step)
        ds = two_moons(40, seed=3)
        net = init_mlp([2, 6, 2], Rng(3).child("i"))
        cfg = TrainConfig(epochs=4, base_lr=0.05, batch_size=20,
                          lr_decay="constant", seed=0, baseline="awp",
                          awp_delta=0.005)
        res = train(net, ds, RobustLossKind("at"), TrHConfig(),
                    AttackConfig(delta=0.02, steps=1), cfg)
        assert res.diverged and res.diverged_epoch == 1
        assert len(calls) == 3 and len(res.metrics.rows) == 2
        assert np.all(np.isfinite(flatten_weights(res.raw_net)))
        assert not np.array_equal(flatten_weights(res.raw_net), flatten_weights(net))
