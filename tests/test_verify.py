"""The random instances of the verification suites."""

import numpy as np
import pytest

from trhreg.attacks import AttackConfig, pgd
from trhreg.network import forward, init_mlp, min_preact_magnitude
from trhreg.numerics import SMOOTH_TOL, Rng
from trhreg.tape import softmax
from trhreg.verify import LEVELS, sample_smooth_instance


def reference_instance(seed):
    """sample_smooth_instance in its first form: attack, then check the
    clean and the adversarial point."""
    rng = Rng(seed).child("instance")
    for attempt in range(200):
        r = rng.child(attempt)
        d_in = int(r.integers(2, 7))
        k = int(r.integers(2, 6))
        n_hidden = int(r.integers(1, 3))
        widths = [int(r.integers(2, 9)) for _ in range(n_hidden)]
        net = init_mlp([d_in] + widths + [k], r.child("init"))
        x = r.child("x").normal(size=(1, d_in))
        y = np.array([int(r.integers(0, k))])
        x_adv = pgd(net, x, y, AttackConfig(delta=0.1, steps=5), r.child("attack"))
        if min_preact_magnitude(net, x) < SMOOTH_TOL:
            continue
        if min_preact_magnitude(net, x_adv) < SMOOTH_TOL:
            continue
        tr, tr_adv = forward(net, x), forward(net, x_adv)
        if float(np.dot(tr.features[0], tr.features[0])) < 0.05:
            continue
        if float(np.dot(tr_adv.features[0], tr_adv.features[0])) < 0.05:
            continue
        masked = np.delete(softmax(tr_adv.logits[0]), y[0])
        top2 = np.sort(masked)[-2:] if masked.size >= 2 else np.array([0.0, masked[0]])
        if masked.size >= 2 and top2[1] - top2[0] < 1e-4:
            continue
        return net, x, x_adv, y
    raise RuntimeError(seed)


def full_level_seeds(seed=0):
    """The instance seeds `run_verification(level="full", seed=seed)` draws:
    gradients from seed * 1000, trh formulas from (seed + 1) * 1000, layer
    traces from (seed + 2) * 2000 and the layer inequality from
    (seed + 2) * 3000."""
    sizes = LEVELS["full"]
    return ([seed * 1000 + i for i in range(sizes["gradients"])]
            + [(seed + 1) * 1000 + i for i in range(sizes["trh"])]
            + [(seed + 2) * 2000 + i for i in range(sizes["layer_traces"])]
            + [(seed + 2) * 3000 + i for i in range(sizes["inequality"])])


def test_full_level_instances_unchanged():
    """Checking the clean point before attacking it returns every
    instance of the full level bit for bit."""
    seeds = full_level_seeds(0)
    assert len(seeds) == 250
    for s in seeds:
        net, x, x_adv, y = sample_smooth_instance(s)
        ref_net, ref_x, ref_adv, ref_y = reference_instance(s)
        assert len(net.layers) == len(ref_net.layers)
        for layer, ref in zip(net.layers, ref_net.layers):
            assert np.array_equal(layer.weights, ref.weights)
            assert (layer.bias is None) == (ref.bias is None)
            if layer.bias is not None:
                assert np.array_equal(layer.bias, ref.bias)
        assert np.array_equal(x, ref_x) and np.array_equal(x_adv, ref_adv)
        assert np.array_equal(y, ref_y)


def test_clean_point_rejected_without_an_attack(monkeypatch):
    """An attempt whose clean point sits near a kink or has faint features
    runs no attack: over the full level's seeds there are fewer attacks
    than attempts (each attempt builds one net)."""
    import trhreg.verify

    attempts, attacks = [], []

    def counting(calls, fn):
        def wrapped(*args, **kwargs):
            calls.append(1)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(trhreg.verify, "init_mlp", counting(attempts, init_mlp))
    monkeypatch.setattr(trhreg.verify, "pgd", counting(attacks, pgd))
    for s in full_level_seeds(0):
        sample_smooth_instance(s)
    assert len(attacks) < len(attempts)


def _refuse(*args, **kwargs):
    raise AssertionError("attacked")


def test_layer_traces_run_no_attack(monkeypatch):
    """Both loops of the layer-trace group read only the clean point, so
    they attack nothing; the gradient group still attacks."""
    import trhreg.verify

    monkeypatch.setattr(trhreg.verify, "pgd", _refuse)
    results = trhreg.verify.check_layer_traces(3, 3, seed=2)
    assert results and all(r.passed for r in results)
    with pytest.raises(AssertionError, match="attacked"):
        trhreg.verify.check_gradients(1, seed=0)



def test_layer_trace_instances_are_first_smooth_clean_points():
    """The layer-trace groups take the first attempt whose clean point is
    smooth; over the full level's layer-trace seeds some of those are
    attempts that `sample_smooth_instance` rejects on the attack (7 of
    these 150 seeds)."""
    from trhreg.verify import _smooth_clean_points

    sizes = LEVELS["full"]
    seeds = ([4000 + i for i in range(sizes["layer_traces"])]
             + [6000 + i for i in range(sizes["inequality"])])
    moved = 0
    for s in seeds:
        _, net, x, y = next(_smooth_clean_points(s))
        rng = Rng(s).child("instance")
        for attempt in range(200):
            r = rng.child(attempt)
            d_in = int(r.integers(2, 7))
            k = int(r.integers(2, 6))
            widths = [int(r.integers(2, 9)) for _ in range(int(r.integers(1, 3)))]
            ref_net = init_mlp([d_in] + widths + [k], r.child("init"))
            ref_x = r.child("x").normal(size=(1, d_in))
            ref_y = np.array([int(r.integers(0, k))])
            tr = forward(ref_net, ref_x)
            if (min_preact_magnitude(ref_net, ref_x) >= SMOOTH_TOL
                    and float(np.dot(tr.features[0], tr.features[0])) >= 0.05):
                break
        assert np.array_equal(x, ref_x) and np.array_equal(y, ref_y)
        for layer, ref in zip(net.layers, ref_net.layers):
            assert np.array_equal(layer.weights, ref.weights)
        moved += not np.array_equal(x, sample_smooth_instance(s)[1])
    assert moved == 7
