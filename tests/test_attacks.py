import os
import platform
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import trhreg
from loss_references import cross_entropy_rows
from trhreg.attacks import (AttackConfig, clean_accuracy,
                            eval_robust_accuracy, pgd, predictions, project)
from trhreg.data import two_moons
from trhreg.losses import softmax
from trhreg.network import (DenseLayer, MlpNetwork, forward, init_mlp,
                            input_gradient)
from trhreg.numerics import Rng


class TestProject:
    def test_inside_unchanged(self):
        x0 = np.array([1.0, -2.0])
        assert np.array_equal(project(x0, x0, "linf", 0.1), x0)
        near = x0 + np.array([0.01, -0.02])
        assert np.array_equal(project(near, x0, "l2", 0.5), near)

    def test_linf_clipping(self):
        out = project(np.array([0.3, -0.3]), np.zeros(2), "linf", 0.1)
        assert np.allclose(out, [0.1, -0.1])

    def test_l2_rescale(self):
        out = project(np.array([3.0, 4.0]), np.zeros(2), "l2", 1.0)
        assert np.allclose(out, [0.6, 0.8])

    def test_idempotent(self):
        rng = Rng(1).child("p")
        for norm in ("linf", "l2"):
            v = rng.normal(size=(50, 4)) * 3
            x0 = rng.normal(size=(50, 4))
            once = project(v, x0, norm, 0.7)
            twice = project(once, x0, norm, 0.7)
            assert np.array_equal(once, twice)

    def test_batched_rows_independent(self):
        x0 = np.zeros((2, 2))
        v = np.array([[3.0, 4.0], [0.1, 0.0]])
        out = project(v, x0, "l2", 1.0)
        assert np.allclose(out[0], [0.6, 0.8])
        assert np.array_equal(out[1], v[1])


def linear_margin_net(c):
    # logits [c . x, 0]: ascending CE of class 1 pushes along sign(c)
    w = np.column_stack([np.asarray(c, dtype=float), np.zeros(len(c))])
    return MlpNetwork([DenseLayer(w)])


class TestPgd:
    def test_linear_model_single_step_exact_maximum(self):
        c = np.array([1.5, -2.0, 0.25])
        net = linear_margin_net(c)
        x = np.array([0.3, 0.1, -0.7])
        delta = 0.1
        for random_start in (False, True):
            cfg = AttackConfig(delta=delta, steps=1, norm="linf",
                               step_size=2.5 * delta, inner_loss="ce",
                               random_start=random_start)
            adv = pgd(net, x, np.array([1]), cfg, Rng(0).child("a"))
            assert np.allclose(adv, x + delta * np.sign(c))
            assert float(c @ adv) == pytest.approx(float(c @ x) + delta * np.abs(c).sum())

    def test_zero_radius_returns_input(self):
        net = init_mlp([2, 4, 2], Rng(0).child("i"))
        X = Rng(0).child("x").normal(size=(5, 2))
        cfg = AttackConfig(delta=0.0, steps=3)
        adv = pgd(net, X, np.zeros(5, dtype=int), cfg, Rng(1).child("a"))
        assert np.array_equal(adv, X)

    def test_ball_membership_exact_both_norms(self):
        rng = Rng(3)
        net = init_mlp([4, 8, 3], rng.child("i"))
        X = rng.child("x").normal(size=(2000, 4))
        y = rng.child("y").integers(0, 3, size=2000)
        for norm in ("linf", "l2"):
            cfg = AttackConfig(delta=0.3, steps=5, norm=norm)
            adv = pgd(net, X, y, cfg, rng.child("a", norm))
            d = adv - X
            if norm == "linf":
                assert float(np.abs(d).max()) <= 0.3 + 1e-12
            else:
                assert float(np.linalg.norm(d, axis=1).max()) <= 0.3 + 1e-12

    def test_clamp_box_respected(self):
        net = init_mlp([2, 4, 2], Rng(5).child("i"))
        X = Rng(5).child("x").uniform(0, 1, size=(64, 2))
        cfg = AttackConfig(delta=0.5, steps=4, clamp=(0.0, 1.0))
        adv = pgd(net, X, np.zeros(64, dtype=int), cfg, Rng(6).child("a"))
        assert adv.min() >= 0.0 and adv.max() <= 1.0

    def test_increases_inner_loss_on_most_points(self):
        ds = two_moons(500, noise_std=0.1, seed=2)
        net = init_mlp([2, 16, 2], Rng(4).child("i"))
        cfg = AttackConfig(delta=0.1, steps=10)
        adv = pgd(net, ds.inputs, ds.labels, cfg, Rng(7).child("a"))
        before = cross_entropy_rows(forward(net, ds.inputs).logits, ds.labels)
        after = cross_entropy_rows(forward(net, adv).logits, ds.labels)
        assert np.mean(after >= before - 1e-12) >= 0.99

    def test_kl_inner_loss_increases_divergence(self):
        net = init_mlp([2, 12, 3], Rng(8).child("i"))
        X = Rng(8).child("x").normal(size=(100, 2))
        cfg = AttackConfig(delta=0.2, steps=10, inner_loss="kl")
        adv = pgd(net, X, np.zeros(100, dtype=int), cfg, Rng(9).child("a"))
        s = softmax(forward(net, X).logits)
        s_adv = softmax(forward(net, adv).logits)
        kl = np.sum(np.where(s > 0, s * (np.log(s) - np.log(s_adv)), 0.0), axis=1)
        assert np.mean(kl > 0) >= 0.99

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            AttackConfig(delta=-0.1, steps=1)
        with pytest.raises(ValueError):
            AttackConfig(delta=0.1, steps=0)
        with pytest.raises(ValueError):
            AttackConfig(delta=0.1, steps=1, norm="l7")


class TestEvalRobustAccuracy:
    def test_zero_radius_equals_clean_bitwise(self):
        ds = two_moons(200, noise_std=0.1, seed=3)
        net = init_mlp([2, 8, 2], Rng(10).child("i"))
        cfg = AttackConfig(delta=0.0, steps=5, restarts=3)
        robust = eval_robust_accuracy(net, ds, cfg, Rng(11).child("e"))
        assert robust == clean_accuracy(net, ds)

    def test_monotone_in_restarts(self):
        ds = two_moons(150, noise_std=0.15, seed=4)
        net = init_mlp([2, 8, 2], Rng(12).child("i"))
        accs = []
        for restarts in (1, 3, 5):
            cfg = AttackConfig(delta=0.15, steps=5, restarts=restarts)
            accs.append(eval_robust_accuracy(net, ds, cfg, Rng(13).child("e")))
        assert accs[0] >= accs[1] >= accs[2]

    def test_predictions_shape(self):
        net = init_mlp([2, 4, 3], Rng(14).child("i"))
        X = Rng(14).child("x").normal(size=(7, 2))
        assert predictions(net, X).shape == (7,)


def reference_pgd(net, x, y, cfg, rng):
    """pgd stepped the plain way: forward, softmax, a fresh
    input_gradient(net, x_adv, dlogits) that runs its own forward, then the
    step rule."""
    x = np.asarray(x, dtype=np.float64)
    X = np.atleast_2d(x)
    y = np.atleast_1d(np.asarray(y, dtype=np.int64))
    s_clean = softmax(forward(net, X).logits) if cfg.inner_loss == "kl" else None
    if cfg.random_start and cfg.delta > 0:
        if cfg.norm == "linf":
            start = rng.uniform(-cfg.delta, cfg.delta, size=X.shape)
        else:
            direction = rng.normal(size=X.shape)
            norms = np.linalg.norm(direction, axis=1, keepdims=True)
            norms[norms == 0] = 1.0
            radius = cfg.delta * rng.uniform(0.0, 1.0, size=(X.shape[0], 1)) ** (1.0 / X.shape[1])
            start = direction / norms * radius
        x_adv = project(X + start, X, cfg.norm, cfg.delta)
    else:
        x_adv = X.copy()
    if cfg.clamp is not None:
        x_adv = np.clip(x_adv, *cfg.clamp)
    alpha = cfg.effective_step
    for _ in range(cfg.steps):
        s = softmax(forward(net, x_adv).logits)
        if cfg.inner_loss == "ce":
            dlogits = s.copy()
            dlogits[np.arange(len(y)), y] -= 1.0
        else:
            dlogits = s - s_clean
        g = input_gradient(net, x_adv, dlogits)
        if cfg.norm == "linf":
            step = alpha * np.sign(g)
        else:
            gn = np.linalg.norm(g, axis=1, keepdims=True)
            step = np.where(gn > 0, alpha * g / np.where(gn > 0, gn, 1.0), 0.0)
        x_adv = project(x_adv + step, X, cfg.norm, cfg.delta)
        if cfg.clamp is not None:
            x_adv = np.clip(x_adv, *cfg.clamp)
    return x_adv[0] if x.ndim == 1 else x_adv


class TestPgdBuffers:
    """The one-forward step matches the plain step."""

    @staticmethod
    def problem(dims, m, seed=20):
        rng = Rng(seed)
        net = init_mlp(dims, rng.child("i"))
        X = rng.child("x").normal(size=(m, dims[0]))
        y = rng.child("y").integers(0, dims[-1], size=m)
        return net, X, y

    @pytest.mark.parametrize("norm", ["linf", "l2"])
    @pytest.mark.parametrize("inner", ["ce", "kl"])
    def test_bitwise_equal_to_reference(self, norm, inner):
        net, X, y = self.problem([3, 16, 12, 4], 60)
        cfg = AttackConfig(delta=0.3, steps=6, norm=norm, inner_loss=inner)
        got = pgd(net, X, y, cfg, Rng(21).child("a"))
        want = reference_pgd(net, X, y, cfg, Rng(21).child("a"))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("cfg", [
        AttackConfig(delta=0.4, steps=5, clamp=(-0.5, 0.5)),
        AttackConfig(delta=0.4, steps=5, norm="l2", random_start=False),
        AttackConfig(delta=0.4, steps=5, inner_loss="kl", random_start=False,
                     clamp=(-1.0, 1.0)),
    ])
    def test_bitwise_equal_clamp_and_fixed_start(self, cfg):
        net, X, y = self.problem([2, 10, 3], 40)
        got = pgd(net, X, y, cfg, Rng(22).child("a"))
        assert np.array_equal(got, reference_pgd(net, X, y, cfg, Rng(22).child("a")))

    @pytest.mark.parametrize("inner", ["ce", "kl"])
    def test_bitwise_equal_single_example(self, inner):
        net, X, y = self.problem([3, 8, 3], 1)
        cfg = AttackConfig(delta=0.2, steps=4, norm="l2", inner_loss=inner)
        got = pgd(net, X[0], y[0], cfg, Rng(23).child("a"))
        assert got.shape == (3,)
        assert np.array_equal(got, reference_pgd(net, X[0], y[0], cfg, Rng(23).child("a")))

    @pytest.mark.parametrize("norm", ["linf", "l2"])
    def test_bitwise_equal_linear_net(self, norm):
        net, X, y = self.problem([4, 3], 30)
        assert net.depth == 1
        cfg = AttackConfig(delta=0.3, steps=3, norm=norm, inner_loss="kl")
        got = pgd(net, X, y, cfg, Rng(24).child("a"))
        assert np.array_equal(got, reference_pgd(net, X, y, cfg, Rng(24).child("a")))

    @pytest.mark.parametrize("inner, extra", [("ce", 0), ("kl", 1)])
    def test_one_forward_per_step(self, monkeypatch, inner, extra):
        import trhreg.attacks
        import trhreg.network

        calls = []
        real = trhreg.network.forward

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        # both bindings: a step that let input_gradient rerun the forward
        # would be counted through the network module's own name
        monkeypatch.setattr(trhreg.network, "forward", counting)
        monkeypatch.setattr(trhreg.attacks, "forward", counting)
        net, X, y = self.problem([2, 10, 10, 2], 50)
        cfg = AttackConfig(delta=0.1, steps=7, inner_loss=inner)
        pgd(net, X, y, cfg, Rng(25).child("a"))
        assert len(calls) == cfg.steps + extra

    def test_pinned_attack_steps_take_no_page_faults(self):
        """Each step allocates fresh arrays; with the allocator pinned they
        come from the heap, not from fresh pages.  Unpinned, the same loop
        takes tens of thousands of minor faults."""
        if platform.libc_ver()[0] != "glibc":
            pytest.skip("malloc thresholds are pinned on glibc only")
        script = textwrap.dedent("""
            import resource
            from trhreg.attacks import AttackConfig, pgd
            from trhreg.network import init_mlp
            from trhreg.numerics import Rng, pin_allocator
            assert pin_allocator()
            rng = Rng(30)
            net = init_mlp([2, 100, 100, 2], rng.child("i"))
            X = rng.child("x").normal(size=(500, 2))
            y = rng.child("y").integers(0, 2, size=500)
            cfg = AttackConfig(delta=0.1, steps=10)
            pgd(net, X, y, cfg, rng.child("warm-up"))
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for r in range(20):
                pgd(net, X, y, cfg, rng.child(r))
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.dirname(os.path.dirname(trhreg.__file__)),
             env.get("PYTHONPATH", "")])
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 1000

    def test_back_to_back_calls_independent(self):
        net, X, y = self.problem([2, 12, 12, 2], 40)
        cfg = AttackConfig(delta=0.2, steps=5)
        want_a = reference_pgd(net, X, y, cfg, Rng(27).child("a"))
        want_b = reference_pgd(net, X, y, cfg, Rng(27).child("b"))
        a = pgd(net, X, y, cfg, Rng(27).child("a"))
        b = pgd(net, X, y, cfg, Rng(27).child("b"))
        assert not np.array_equal(want_a, want_b)
        assert np.array_equal(a, want_a) and np.array_equal(b, want_b)
        a[:] = 99.0
        b[:] = -99.0
        assert np.array_equal(pgd(net, X, y, cfg, Rng(27).child("a")), want_a)
        assert np.array_equal(pgd(net, X, y, cfg, Rng(27).child("b")), want_b)

    def test_restarts_match_fresh_reference_calls(self):
        ds = two_moons(120, noise_std=0.15, seed=5)
        net = init_mlp([2, 10, 10, 2], Rng(28).child("i"))
        cfg = AttackConfig(delta=0.2, steps=5, restarts=3)
        rng = Rng(29).child("e")
        correct = np.ones(len(ds.labels), dtype=bool)
        for r in range(cfg.restarts):
            adv = reference_pgd(net, ds.inputs, ds.labels, cfg, rng.child(r))
            correct &= predictions(net, adv) == ds.labels
        assert eval_robust_accuracy(net, ds, cfg, rng) == float(np.mean(correct))


class TestAttackConfigChecks:
    def test_inverted_clamp_box_rejected(self):
        with pytest.raises(ValueError, match="lower bound above"):
            AttackConfig(delta=0.1, clamp=(1.0, -1.0))

    def test_degenerate_clamp_box_accepted(self):
        assert AttackConfig(delta=0.1, clamp=(0.0, 0.0)).clamp == (0.0, 0.0)
