import os
import platform
from dataclasses import replace
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import trhreg
from loss_references import cross_entropy_rows
from trhreg.attacks import (_ROUNDING_ALLOWANCE, AttackConfig,
                            clean_accuracy, eval_robust_accuracy,
                            margin_lower_bound, pgd, predictions, project)
from trhreg.data import Dataset, two_moons
from trhreg.network import (DenseLayer, MlpNetwork, TrainingDivergence,
                            forward, init_mlp, input_gradient)
from trhreg.numerics import Rng
from trhreg.tape import softmax


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


def single_precision(net):
    return MlpNetwork([DenseLayer(l.weights.astype(np.float32),
                                  None if l.bias is None else l.bias.astype(np.float32))
                       for l in net.layers])


def reference_pgd(net, x, y, cfg, rng):
    """pgd stepped the plain way, in single precision: a forward on a
    float32 copy of the net, the float64 softmax, a fresh
    input_gradient(net32, forward(net32, x_adv32), dlogits32) on a forward
    of its own, then the float64 step rule.  OpenBLAS's one-row float32
    kernel can raise a spurious "invalid" flag on finite operands, so, as
    in `pgd`, the float32 products run under
    ``np.errstate(invalid="ignore", over="ignore")`` and their results are
    asserted finite."""
    x = np.asarray(x, dtype=np.float64)
    X = np.atleast_2d(x)
    y = np.atleast_1d(np.asarray(y, dtype=np.int64))
    net32 = single_precision(net)
    s_clean = None
    if cfg.inner_loss == "kl":
        with np.errstate(invalid="ignore", over="ignore"):
            logits32 = forward(net32, X.astype(np.float32)).logits
        assert np.all(np.isfinite(logits32))
        s_clean = softmax(logits32.astype(np.float64))
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
        x32 = x_adv.astype(np.float32)
        with np.errstate(invalid="ignore", over="ignore"):
            logits32 = forward(net32, x32).logits
        assert np.all(np.isfinite(logits32))
        s = softmax(logits32.astype(np.float64))
        if cfg.inner_loss == "ce":
            dlogits = s.copy()
            dlogits[np.arange(len(y)), y] -= 1.0
        else:
            dlogits = s - s_clean
        with np.errstate(invalid="ignore", over="ignore"):
            g = input_gradient(net32, forward(net32, x32),
                               dlogits.astype(np.float32))
        assert np.all(np.isfinite(g))
        g = g.astype(np.float64)
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


class TestSinglePrecisionSteps:
    """The attack's directions come from a float32 copy of the net; what it
    returns, and the net it was given, stay float64."""

    @pytest.mark.parametrize("norm", ["linf", "l2"])
    def test_fixed_start_kl_attack_returns_x(self, norm):
        # the clean probabilities come from the same float32 forward as the
        # first step's, so the KL direction there is exactly zero
        net, X, y = TestPgdBuffers.problem([3, 16, 12, 4], 60)
        cfg = AttackConfig(delta=0.3, steps=5, norm=norm, inner_loss="kl",
                           random_start=False)
        assert np.array_equal(pgd(net, X, y, cfg, Rng(40).child("a")), X)
        assert np.array_equal(pgd(net, X[0], y[0], cfg, Rng(40).child("a")), X[0])

    @staticmethod
    def directions(net, X, y):
        """(g32, g64): the CE input gradient by the attack's float32 route
        and by the float64 one; the float32 products as in
        `reference_pgd`."""
        tr = forward(net, X)
        d64 = softmax(tr.logits)
        d64[np.arange(len(y)), y] -= 1.0
        g64 = input_gradient(net, tr, d64)
        net32 = single_precision(net)
        with np.errstate(invalid="ignore", over="ignore"):
            tr32 = forward(net32, X.astype(np.float32))
        assert np.all(np.isfinite(tr32.logits))
        d32 = softmax(tr32.logits.astype(np.float64))
        d32[np.arange(len(y)), y] -= 1.0
        with np.errstate(invalid="ignore", over="ignore"):
            g32 = input_gradient(net32, tr32, d32.astype(np.float32))
        assert np.all(np.isfinite(g32))
        assert g32.dtype == np.float32 and g64.dtype == np.float64
        return g32.astype(np.float64), g64

    @pytest.mark.parametrize("dims, m, data", [
        ([2, 100, 100, 2], 500, "moons"),
        ([20, 64, 64, 10], 1000, "normal"),
        ([3, 16, 12, 4], 200, "normal"),
    ])
    def test_float32_direction_matches_float64(self, dims, m, data):
        rng = Rng(41).child(*dims)
        net = init_mlp(dims, rng.child("i"))
        if data == "moons":
            ds = two_moons(m, noise_std=0.1, seed=6)
            X, y = ds.inputs, ds.labels
        else:
            X = rng.child("x").normal(size=(m, dims[0]))
            y = rng.child("y").integers(0, dims[-1], size=m)
        g32, g64 = self.directions(net, X, y)
        scale = np.abs(g64).max(axis=1, keepdims=True)
        assert np.all(np.abs(g32 - g64) <= 1e-4 * scale)
        clear = np.abs(g64) > 1e-4 * scale
        assert clear.mean() > 0.9
        assert np.array_equal(np.sign(g32[clear]), np.sign(g64[clear]))

    @pytest.mark.parametrize("inner", ["ce", "kl"])
    def test_net_and_result_stay_float64(self, inner):
        net, X, y = TestPgdBuffers.problem([3, 16, 12, 4], 60)
        before = net.copy()
        cfg = AttackConfig(delta=0.3, steps=3, inner_loss=inner)
        batch = pgd(net, X, y, cfg, Rng(42).child("a"))
        single = pgd(net, X[0], y[0], cfg, Rng(42).child("a"))
        assert batch.dtype == np.float64 and single.dtype == np.float64
        for layer, old in zip(net.layers, before.layers):
            assert layer.weights.dtype == np.float64
            assert np.array_equal(layer.weights, old.weights)
            if layer.bias is not None:
                assert layer.bias.dtype == np.float64
                assert np.array_equal(layer.bias, old.bias)

    @pytest.mark.parametrize("inner", ["ce", "kl"])
    def test_nan_weight_raises_named_error(self, inner):
        # the float32 products run with their flags ignored, so a
        # non-finite direction is caught by value, not by a warning
        net, X, y = TestPgdBuffers.problem([3, 16, 12, 4], 60)
        net.layers[1].weights[0, 0] = np.nan
        cfg = AttackConfig(delta=0.3, steps=3, inner_loss=inner)
        with pytest.raises(TrainingDivergence, match="attack step 0"):
            pgd(net, X, y, cfg, Rng(43).child("a"))


# -- interval bounds and the pruned robust evaluation -------------------


@pytest.fixture(scope="module")
def trained_moons():
    """A 2-16-16-2 net adversarially trained on two moons; about 80 % of
    its points are certified at delta 0.05."""
    from trhreg.config import RobustLossKind, TrHConfig
    from trhreg.trainer import TrainConfig, train

    ds = two_moons(200, noise_std=0.1, seed=7)
    net = init_mlp([2, 16, 16, 2], Rng(7).child("init"))
    res = train(net, ds, RobustLossKind("at"), TrHConfig(),
                AttackConfig(delta=0.05, steps=3),
                TrainConfig(epochs=40, base_lr=0.1, seed=7))
    return res.net, ds


def random_problem(dims, m, seed, scale=1.0, own_labels=False):
    """A random net and inputs, labelled at random or (`own_labels`) by
    the net's own predictions, so that every point is correct."""
    rng = Rng(seed)
    net = init_mlp(dims, rng.child("i"))
    X = scale * rng.child("x").normal(size=(m, dims[0]))
    y = (predictions(net, X) if own_labels else
         rng.child("y").integers(0, dims[-1], size=m))
    return net, Dataset(X, y, dims[-1])


BOUND_CONFIGS = {
    "linf": AttackConfig(delta=0.05, steps=10),
    "l2": AttackConfig(delta=0.08, steps=10, norm="l2"),
    # the moons' inputs reach about [-1, 2] x [-0.6, 1.1], so most points
    # lie outside the box and clipping carries them out of the ball
    "linf-clamp": AttackConfig(delta=0.1, steps=10, clamp=(-0.5, 0.5)),
    "l2-clamp": AttackConfig(delta=0.1, steps=10, norm="l2", clamp=(-0.5, 0.5)),
}


class TestMarginLowerBound:
    @pytest.mark.parametrize("name", list(BOUND_CONFIGS))
    @pytest.mark.parametrize("which", ["trained", "random"])
    def test_certified_points_survive_many_restarts(self, trained_moons,
                                                    name, which):
        cfg = replace(BOUND_CONFIGS[name], steps=20, restarts=30)
        if which == "trained":
            net, ds = trained_moons
        else:
            net, ds = random_problem([2, 12, 12, 3], 200, 50, scale=0.8,
                                     own_labels=True)
        bound = margin_lower_bound(net, ds.inputs, ds.labels, cfg)
        certified = bound > _ROUNDING_ALLOWANCE
        assert certified.mean() > 0.2
        if cfg.clamp is not None:
            outside = np.any((ds.inputs < cfg.clamp[0]) | (ds.inputs > cfg.clamp[1]),
                             axis=1)
            assert np.sum(certified & outside) > 10
        for r in range(cfg.restarts):
            x_adv = pgd(net, ds.inputs, ds.labels, cfg, Rng(51).child(name, r))
            logits = forward(net, x_adv).logits
            rows = np.arange(len(ds.labels))
            true = logits[rows, ds.labels]
            logits[rows, ds.labels] = -np.inf
            margin = true - logits.max(axis=1)
            # the attack reaches no point below the bound
            assert np.all(margin[certified] >= bound[certified] - 1e-12)

    @pytest.mark.parametrize("clamp", [None, (-0.3, 0.3)])
    def test_grid_search_finds_no_counterexample(self, clamp):
        """Every point of a 201 x 201 grid over the max-norm ball (clipped
        into the box, if any) has a margin no smaller than the bound."""
        net, ds = random_problem([2, 5, 4, 3], 40, 60, own_labels=True)
        cfg = AttackConfig(delta=0.1, clamp=clamp)
        bound = margin_lower_bound(net, ds.inputs, ds.labels, cfg)
        certified = np.flatnonzero(bound > _ROUNDING_ALLOWANCE)
        assert len(certified) >= 10
        offsets = np.linspace(-cfg.delta, cfg.delta, 201)
        grid = np.stack(np.meshgrid(offsets, offsets), axis=-1).reshape(-1, 2)
        for i in certified:
            points = ds.inputs[i] + grid
            if clamp is not None:
                points = np.clip(points, *clamp)
            logits = forward(net, points).logits
            y = ds.labels[i]
            margin = logits[:, y] - np.delete(logits, y, axis=1).max(axis=1)
            assert margin.min() >= bound[i] - 1e-12
            assert np.all(predictions(net, points) == y)

    @pytest.mark.parametrize("norm, order", [("linf", 1), ("l2", 2)])
    def test_no_hidden_layer_bound_is_exact(self, norm, order):
        """Without a hidden layer the bound is the exact worst case,
        ``margin - delta * ||w_y - w_k||_dual`` minimized over k != y."""
        net, ds = random_problem([5, 4], 60, 61)
        w = net.layers[0].weights
        cfg = AttackConfig(delta=0.3, norm=norm)
        got = margin_lower_bound(net, ds.inputs, ds.labels, cfg)
        want = np.full(len(ds.labels), np.inf)
        for i, (x, y) in enumerate(zip(ds.inputs, ds.labels)):
            for k in range(w.shape[1]):
                if k != y:
                    diff = w[:, y] - w[:, k]
                    want[i] = min(want[i], x @ diff
                                  - cfg.delta * np.linalg.norm(diff, ord=order))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_zero_radius_bound_is_the_margin(self, trained_moons):
        net, ds = trained_moons
        bound = margin_lower_bound(net, ds.inputs, ds.labels, AttackConfig(delta=0.0))
        logits = forward(net, ds.inputs).logits
        margin = logits[np.arange(len(ds.labels)), ds.labels] - logits[
            np.arange(len(ds.labels)), 1 - ds.labels]
        np.testing.assert_allclose(bound, margin, rtol=0, atol=1e-12)


def reference_eval(net, ds, cfg, rng):
    """Robust accuracy the plain way: every restart attacks every row, with
    the CE inner loss whatever `cfg`'s."""
    correct = np.ones(len(ds.labels), dtype=bool)
    for r in range(cfg.restarts):
        x_adv = pgd(net, ds.inputs, ds.labels, replace(cfg, inner_loss="ce"),
                    rng.child(r))
        correct &= predictions(net, x_adv) == ds.labels
    return float(np.mean(correct))


EVAL_CONFIGS = {
    **BOUND_CONFIGS,
    "zero-radius": AttackConfig(delta=0.0, steps=5),
    "kl": AttackConfig(delta=0.08, steps=10, inner_loss="kl"),
    "fixed-start": AttackConfig(delta=0.08, steps=10, random_start=False),
}


class TestPrunedEvaluation:
    @pytest.mark.parametrize("restarts", [1, 20])
    @pytest.mark.parametrize("name", list(EVAL_CONFIGS))
    @pytest.mark.parametrize("which", ["trained", "random"])
    def test_equals_attacking_every_row(self, trained_moons, which, name,
                                        restarts):
        if which == "trained":
            net, ds = trained_moons
        else:
            net, ds = random_problem([2, 12, 12, 3], 150, 70, scale=0.8)
        cfg = replace(EVAL_CONFIGS[name], restarts=restarts)
        rng = Rng(71).child(name)
        assert eval_robust_accuracy(net, ds, cfg, rng) == reference_eval(net, ds, cfg, rng)

    @pytest.mark.parametrize("which", ["trained", "random"])
    def test_kl_config_evaluates_with_ce(self, trained_moons, which):
        # robust accuracy has one definition: the CE attack, whatever loss
        # the config trains against
        if which == "trained":
            net, ds = trained_moons
        else:
            net, ds = random_problem([2, 12, 12, 3], 150, 70, scale=0.8)
        ce = AttackConfig(delta=0.08, steps=10)
        kl = replace(ce, inner_loss="kl")
        rng = Rng(74).child(which)
        assert eval_robust_accuracy(net, ds, kl, rng) == eval_robust_accuracy(
            net, ds, ce, rng)

    @staticmethod
    def attacked_rows(monkeypatch):
        """Patch the attack that eval_robust_accuracy calls; returns the
        list that each call's row count is appended to."""
        import trhreg.attacks

        counts = []

        def counting(net, x, y, cfg, rng, rows=None):
            counts.append(len(x) if rows is None else len(rows))
            return pgd(net, x, y, cfg, rng, rows=rows)

        monkeypatch.setattr(trhreg.attacks, "pgd", counting)
        return counts

    def test_certificate_prunes_rows(self, trained_moons, monkeypatch):
        net, ds = trained_moons
        counts = self.attacked_rows(monkeypatch)
        cfg = AttackConfig(delta=0.05, steps=10, restarts=20)
        robust = eval_robust_accuracy(net, ds, cfg, Rng(72).child("e"))
        m = len(ds.labels)
        assert 1 <= len(counts) <= cfg.restarts
        # about 82 % of the rows are certified, and a broken row leaves
        assert counts[0] < 0.3 * m
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        assert sum(counts) < 0.3 * m * len(counts)
        assert robust >= 1.0 - counts[0] / m

    def test_stops_when_no_row_is_left(self, trained_moons, monkeypatch):
        # at radius 0 a misclassified row breaks at the first restart and
        # every other row is certified
        net, ds = trained_moons
        counts = self.attacked_rows(monkeypatch)
        cfg = AttackConfig(delta=0.0, steps=5, restarts=5)
        robust = eval_robust_accuracy(net, ds, cfg, Rng(73).child("e"))
        assert robust == clean_accuracy(net, ds) < 1.0
        assert counts == [round((1.0 - robust) * len(ds.labels))]


    @pytest.mark.parametrize("steps, restarts, bounded", [
        (1, 1, False), (3, 1, False), (2, 2, True), (10, 1, True)])
    def test_bound_only_for_attacks_that_cost_more(self, trained_moons,
                                                   monkeypatch, steps,
                                                   restarts, bounded):
        import trhreg.attacks

        bounds = []
        real = trhreg.attacks.margin_lower_bound

        def counting(*args):
            bounds.append(1)
            return real(*args)

        monkeypatch.setattr(trhreg.attacks, "margin_lower_bound", counting)
        counts = self.attacked_rows(monkeypatch)
        net, ds = trained_moons
        cfg = AttackConfig(delta=0.05, steps=steps, restarts=restarts)
        rng = Rng(74).child("e")
        assert eval_robust_accuracy(net, ds, cfg, rng) == reference_eval(net, ds, cfg, rng)
        assert len(bounds) == int(bounded)
        assert (counts[0] < len(ds.labels)) == bounded


class TestRowSubsetAttack:
    @staticmethod
    def subset(m, size, seed=80):
        return np.sort(np.random.default_rng(seed + size).choice(m, size=size,
                                                                 replace=False))

    @pytest.mark.parametrize("size", [1, 2, 71, 72])
    @pytest.mark.parametrize("name", ["linf", "linf-clamp", "kl"])
    def test_sign_steps_equal_the_full_call_bitwise(self, trained_moons, name, size):
        net, ds = trained_moons
        cfg = EVAL_CONFIGS[name]
        rows = self.subset(len(ds.labels), size)
        full = pgd(net, ds.inputs, ds.labels, cfg, Rng(81).child(name))
        sub = pgd(net, ds.inputs, ds.labels, cfg, Rng(81).child(name), rows=rows)
        assert sub.shape == (size, 2)
        assert np.array_equal(sub, full[rows])

    @pytest.mark.parametrize("size", [1, 2, 71, 72])
    def test_l2_steps_equal_the_full_call_to_rounding(self, trained_moons, size):
        # the BLAS kernel that computes a row can change with the batch's
        # row count, and a normalized step passes the float32 rounding on
        net, ds = trained_moons
        cfg = EVAL_CONFIGS["l2"]
        rows = self.subset(len(ds.labels), size)
        full = pgd(net, ds.inputs, ds.labels, cfg, Rng(82).child("l2"))
        sub = pgd(net, ds.inputs, ds.labels, cfg, Rng(82).child("l2"), rows=rows)
        np.testing.assert_allclose(sub, full[rows], rtol=0, atol=1e-6 * cfg.delta)
        assert np.array_equal(predictions(net, sub), predictions(net, full[rows]))

    @pytest.mark.parametrize("name", ["linf", "l2", "kl"])
    def test_all_rows_is_the_full_call(self, trained_moons, name):
        net, ds = trained_moons
        cfg = EVAL_CONFIGS[name]
        full = pgd(net, ds.inputs, ds.labels, cfg, Rng(83).child(name))
        every = pgd(net, ds.inputs, ds.labels, cfg, Rng(83).child(name),
                    rows=np.arange(len(ds.labels)))
        assert np.array_equal(every, full)


class TestSettledRows:
    """A `pgd` call stops stepping a row once a step leaves it in place;
    what it returns is the plain loop's result."""

    @staticmethod
    def problem(trained_moons, m):
        net, _ = trained_moons
        ds = two_moons(m, noise_std=0.1, seed=90 + m)
        return net, ds.inputs, ds.labels

    @pytest.mark.parametrize("m", [168, 100])
    @pytest.mark.parametrize("cfg", [
        AttackConfig(delta=0.05, steps=10),
        AttackConfig(delta=0.05, steps=10, norm="l2"),
        AttackConfig(delta=0.05, steps=10, inner_loss="kl"),
        AttackConfig(delta=0.08, steps=10, norm="l2", inner_loss="kl"),
        AttackConfig(delta=0.1, steps=10, clamp=(-0.5, 0.5)),
        AttackConfig(delta=0.05, steps=20, random_start=False),
    ], ids=["linf", "l2", "linf-kl", "l2-kl", "linf-clamp", "fixed-start"])
    def test_equals_the_plain_loop_bitwise(self, trained_moons, m, cfg):
        net, X, y = self.problem(trained_moons, m)
        got = pgd(net, X, y, cfg, Rng(91).child("a"))
        assert np.array_equal(got, reference_pgd(net, X, y, cfg, Rng(91).child("a")))

    @pytest.mark.parametrize("size", [200, 17])
    def test_row_subset_equals_the_plain_loop(self, trained_moons, size):
        net, X, y = self.problem(trained_moons, 300)
        cfg = AttackConfig(delta=0.05, steps=10)
        rows = np.sort(np.random.default_rng(92).choice(300, size=size, replace=False))
        got = pgd(net, X, y, cfg, Rng(92).child("a"), rows=rows)
        want = reference_pgd(net, X, y, cfg, Rng(92).child("a"))[rows]
        assert np.array_equal(got, want)

    def test_single_example_equals_the_plain_loop(self, trained_moons):
        net, X, y = self.problem(trained_moons, 5)
        cfg = AttackConfig(delta=0.05, steps=10)
        got = pgd(net, X[0], y[0], cfg, Rng(93).child("a"))
        assert got.shape == (2,)
        assert np.array_equal(got, reference_pgd(net, X[0], y[0], cfg, Rng(93).child("a")))

    @staticmethod
    def forward_rows(monkeypatch):
        """Patch the attack's forward; returns the list each call's row
        count is appended to."""
        import trhreg.attacks

        sizes = []
        real = trhreg.attacks.forward

        def counting(net, x):
            sizes.append(len(x))
            return real(net, x)

        monkeypatch.setattr(trhreg.attacks, "forward", counting)
        return sizes

    def test_forward_batches_shrink(self, trained_moons, monkeypatch):
        net, X, y = self.problem(trained_moons, 168)
        sizes = self.forward_rows(monkeypatch)
        pgd(net, X, y, AttackConfig(delta=0.05, steps=10), Rng(94).child("a"))
        # every row of this net settles before the tenth step
        assert len(sizes) < 10 and sizes[0] == len(y)
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))
        assert sizes[-1] < len(y) // 2

    def test_returns_once_every_row_settles(self, monkeypatch):
        # a zero first layer gives a zero input gradient: no row moves
        net = init_mlp([2, 8, 2], Rng(95).child("i"))
        net.layers[0].weights[:] = 0.0
        ds = two_moons(128, noise_std=0.1, seed=95)
        cfg = AttackConfig(delta=0.05, steps=6)
        sizes = self.forward_rows(monkeypatch)
        got = pgd(net, ds.inputs, ds.labels, cfg, Rng(96).child("a"))
        assert sizes == [len(ds.labels)]
        assert np.array_equal(got, reference_pgd(net, ds.inputs, ds.labels, cfg,
                                                 Rng(96).child("a")))
