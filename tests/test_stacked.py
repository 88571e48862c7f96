"""Stacked evaluation: P weight vectors in one pass, equal to the bit to one
pass per vector, and the finite-difference stencils built on it equal to
the bit to the per-point loops they replace."""

import itertools

import numpy as np
import pytest

from trhreg import hessian_oracle, numerics, tape
from trhreg import pacbayes as pb
from trhreg import trh as trh_module
from trhreg.hessian_oracle import frozen_objective_fns
from trhreg.losses import RobustLossKind
from trhreg.network import (TrainingDivergence, flatten_weights, forward,
                            forward_nodes, gradient_vector, init_mlp, lift,
                            unflatten_weights)
from trhreg.numerics import (OracleError, Rng, finite_diff_gradient,
                             hessian_diag_subset, stackable)
from trhreg.trh import objective_nodes

KINDS = (RobustLossKind("at"), RobustLossKind("trades", 6.0),
         RobustLossKind("alp", 0.5), RobustLossKind("mart", 5.0))

# (hidden widths, hidden biases): one and two hidden layers, with and without
NETS = [([5], False), ([5], True), ([5, 4], False), ([5, 4], True)]
NET_IDS = ["1h", "1h-bias", "2h", "2h-bias"]


def _instance(hidden, bias, m=3):
    r = Rng(17).child("stacked", len(hidden), int(bias))
    net = init_mlp([3] + hidden + [4], r.child("net"), hidden_bias=bias)
    x = r.child("x").normal(size=(m, 3))
    x_adv = x + 0.1 * r.child("adv").normal(size=(m, 3))
    y = r.child("y").integers(0, 4, size=m)
    return net, x, x_adv, y


def _stack(net, p):
    """p weight vectors near the net's own (hidden biases away from 0)."""
    w0 = flatten_weights(net)
    return w0 + 0.05 * Rng(5).child("stack").normal(size=(p, w0.size))


# -- the per-point loops the stencils replaced, kept as references ----------


def _fd_gradient_loop(f, w, h=numerics.GRAD_STEP):
    grad = np.empty_like(w)
    for i in range(w.size):
        wp, wm = w.copy(), w.copy()
        wp[i] += h
        wm[i] -= h
        grad[i] = (f(wp) - f(wm)) / (2.0 * h)
    return grad


def _hessian_diag_loop(grad, w, indices, h=numerics.HESS_STEP):
    out = np.empty(len(indices))
    for j, i in enumerate(indices):
        wp, wm = w.copy(), w.copy()
        wp[i] += h
        wm[i] -= h
        out[j] = (grad(wp)[i] - grad(wm)[i]) / (2.0 * h)
    return out


# -- stacked networks -----------------------------------------------------


@pytest.mark.parametrize("hidden,bias", NETS, ids=NET_IDS)
def test_unflatten_stack_shapes(hidden, bias):
    net, *_ = _instance(hidden, bias)
    stacked = unflatten_weights(net, _stack(net, 4))
    for layer, ref in zip(stacked.layers, net.layers):
        assert layer.weights.shape == (4,) + ref.weights.shape
        if ref.bias is None:
            assert layer.bias is None
        else:
            assert layer.bias.shape == (4, 1, ref.d_out)
    with pytest.raises(ValueError):
        unflatten_weights(net, _stack(net, 4)[:, 1:])
    with pytest.raises(ValueError):
        unflatten_weights(net, _stack(net, 4)[None])


@pytest.mark.parametrize("hidden,bias", NETS, ids=NET_IDS)
def test_stacked_forward_equals_per_net_forward(hidden, bias):
    net, x, _, _ = _instance(hidden, bias)
    W = _stack(net, 4)
    for inputs in (x, x[0]):
        stacked = forward(unflatten_weights(net, W), inputs)
        for p, w in enumerate(W):
            single = forward(unflatten_weights(net, w), inputs)
            pairs = zip(stacked.layer_inputs[1:] + stacked.preacts,
                        single.layer_inputs[1:] + single.preacts)
            for a, b in pairs:
                assert np.array_equal(a[p], b)


@pytest.mark.parametrize("hidden,bias", NETS, ids=NET_IDS)
def test_tape_forward_on_constants_equals_numpy_forward(hidden, bias):
    """The objective's value route (the tape forward on constant weights)
    and the attack's numpy forward give the same layer inputs and
    pre-activations to the bit, signed zeros included, on one net and on a
    stack; the rows reach negative and exactly zero pre-activations."""
    net, x, _, _ = _instance(hidden, bias)
    x = np.vstack([x, np.zeros(3), -x])
    for candidate in (net, unflatten_weights(net, _stack(net, 4))):
        first = candidate.layers[0]
        first.weights[..., 0] = 0.0  # unit 0 of layer 0 is zero on every row
        if first.bias is not None:
            first.bias[..., 0] = 0.0
        trace = forward(candidate, x)
        layer_inputs, preacts = forward_nodes(lift(candidate, wrap=tape.constant), x)
        hidden_pre = np.concatenate([p.ravel() for p in trace.preacts[:-1]])
        assert np.any(hidden_pre < 0) and np.any(hidden_pre == 0)
        pairs = zip(trace.layer_inputs + trace.preacts,
                    [n.value for n in layer_inputs + preacts])
        for ref, tape_value in pairs:
            assert np.array_equal(ref, tape_value)
            assert np.array_equal(np.signbit(ref), np.signbit(tape_value))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_stacked_backprop_raises_on_any_nonfinite_copy():
    net, x, x_adv, y = _instance([5], True)
    W = _stack(net, 3)
    W[1, 0] = np.inf
    kind = KINDS[0]

    def objective(lifted):
        return objective_nodes(lifted, x, x_adv, y, kind, 0.0, 0.0)

    with pytest.raises(TrainingDivergence):
        gradient_vector(unflatten_weights(net, W), objective)
    with pytest.raises(TrainingDivergence):
        gradient_vector(unflatten_weights(net, W[1]), objective)
    values, _ = gradient_vector(unflatten_weights(net, W[[0, 2]]), objective)
    assert values.shape == (2,)


# -- frozen objective functions ---------------------------------------------


@pytest.mark.parametrize("hidden,bias", NETS, ids=NET_IDS)
@pytest.mark.parametrize("kind", KINDS, ids=[k.variant for k in KINDS])
def test_frozen_fns_stack_equals_per_point_calls(kind, hidden, bias):
    net, x, x_adv, y = _instance(hidden, bias)
    W = _stack(net, 5)
    for lam, gamma, stop_grad in itertools.product((0.0, 0.25), (0.0, 0.01),
                                                   (True, False)):
        value_fn, grad_fn = frozen_objective_fns(
            net, x, x_adv, y, kind, lam=lam, gamma=gamma,
            stop_grad_clean=stop_grad)
        values, grads = value_fn(W), grad_fn(W)
        assert values.shape == (5,) and grads.shape == W.shape
        assert np.array_equal(values, [value_fn(w) for w in W])
        assert np.array_equal(grads, np.stack([grad_fn(w) for w in W]))
        assert isinstance(value_fn(W[0]), float)


@pytest.mark.parametrize("chunk", [1, 2])
def test_stack_larger_than_one_chunk(monkeypatch, chunk):
    net, x, x_adv, y = _instance([5, 4], True)
    kind = RobustLossKind("mart", 5.0)
    units = sum(l.d_out for l in net.layers)
    whole = frozen_objective_fns(net, x, x_adv, y, kind, lam=0.25, gamma=0.01)
    monkeypatch.setattr(hessian_oracle, "_STACK_ACTIVATIONS",
                        chunk * 2 * len(x) * units)
    split = frozen_objective_fns(net, x, x_adv, y, kind, lam=0.25, gamma=0.01)
    W = _stack(net, 5)
    for whole_fn, split_fn in zip(whole, split):
        assert np.array_equal(split_fn(W), whole_fn(W))


# -- the layer-local route ----------------------------------------------------

# nets with one, two and three weight layers, hidden biases off and on
LOCAL_NETS = [([], False)] + NETS
LOCAL_NET_IDS = ["0h"] + NET_IDS


def _layer_stack(net, layer, p):
    """p weight vectors that move only weight layer `layer`."""
    W = np.tile(flatten_weights(net), (p, 1))
    idx = hessian_oracle.weight_indices(net, layer, include_bias=True)
    W[:, idx] += 0.05 * Rng(6).child("layer", layer).normal(size=(p, idx.size))
    return W, idx


@pytest.mark.parametrize("hidden,bias", LOCAL_NETS, ids=LOCAL_NET_IDS)
@pytest.mark.parametrize("kind", KINDS, ids=[k.variant for k in KINDS])
def test_layer_local_fns_equal_whole_network_block(kind, hidden, bias):
    net, x, x_adv, y = _instance(hidden, bias)
    w0 = flatten_weights(net)
    # the clean batch as its own adversarial batch too (one array for both)
    for x_adv, stop_grad in itertools.product((x_adv, x), (True, False)):
        whole_value, whole_grad = frozen_objective_fns(
            net, x, x_adv, y, kind, stop_grad_clean=stop_grad)
        for layer in range(net.depth):
            value_fn, grad_fn = frozen_objective_fns(
                net, x, x_adv, y, kind, stop_grad_clean=stop_grad, layer=layer)
            W, idx = _layer_stack(net, layer, 4)
            outside = np.setdiff1d(np.arange(w0.size), idx)
            for w in (w0, W[0], W):
                assert np.array_equal(value_fn(w), whole_value(w))
                grads = grad_fn(w)
                assert grads.shape == w.shape
                assert np.array_equal(grads[..., idx], whole_grad(w)[..., idx])
                assert not np.any(grads[..., outside])
            assert isinstance(value_fn(w0), float)
            assert (hessian_oracle.exact_trace(grad_fn, w0, idx)
                    == hessian_oracle.exact_trace(whole_grad, w0, idx))
            local = hessian_oracle.hvp_from_grad(grad_fn, w0)
            whole = hessian_oracle.hvp_from_grad(whole_grad, w0)
            v = np.zeros(w0.size)
            v[idx] = numerics.rademacher_vector(idx.size, Rng(7).child(layer))
            hv, ref = local(v), whole(v)
            assert np.array_equal(hv[idx], ref[idx])
            assert float(np.dot(v, hv)) == float(np.dot(v, ref))


@pytest.mark.parametrize("chunk", [1, 2])
def test_layer_local_stack_larger_than_one_chunk(monkeypatch, chunk):
    net, x, x_adv, y = _instance([5, 4], True)
    kind = RobustLossKind("trades", 6.0)
    for layer in range(net.depth):
        one_chunk = frozen_objective_fns(net, x, x_adv, y, kind,
                                         stop_grad_clean=False, layer=layer)
        units = sum(l.d_out for l in net.layers[layer:])
        with monkeypatch.context() as m:
            m.setattr(hessian_oracle, "_STACK_ACTIVATIONS",
                      chunk * 2 * len(x) * units)
            split = frozen_objective_fns(net, x, x_adv, y, kind,
                                         stop_grad_clean=False, layer=layer)
        W, _ = _layer_stack(net, layer, 5)
        for one_fn, split_fn in zip(one_chunk, split):
            assert np.array_equal(split_fn(W), one_fn(W))


def test_layer_local_rejects_what_it_cannot_compute():
    net, x, x_adv, y = _instance([5, 4], True)
    kind = RobustLossKind("mart", 5.0)
    value_fn, grad_fn = frozen_objective_fns(net, x, x_adv, y, kind, layer=1)
    W, idx = _layer_stack(net, 1, 3)
    for other in (0, 2):
        moved, _ = _layer_stack(net, other, 3)
        for fn in (value_fn, grad_fn):
            with pytest.raises(ValueError, match="outside layer 1"):
                fn(moved[0])
            with pytest.raises(ValueError, match="outside layer 1"):
                fn(np.vstack([W[:2], moved[2:]]))  # one bad row in a stack
    for bad in (dict(lam=0.25), dict(gamma=0.01)):
        with pytest.raises(ValueError, match="lam or gamma"):
            frozen_objective_fns(net, x, x_adv, y, kind, layer=1, **bad)
    for layer in (-1, net.depth):
        with pytest.raises(ValueError, match="out of range"):
            frozen_objective_fns(net, x, x_adv, y, kind, layer=layer)


def test_top_layer_probe_runs_no_hidden_layer(monkeypatch):
    net, x, x_adv, y = _instance([5, 4], True)
    kind = RobustLossKind("trades", 6.0)
    top = net.depth - 1
    top_shape = net.layers[top].weights.shape
    value_fn, grad_fn = frozen_objective_fns(net, x, x_adv, y, kind,
                                             stop_grad_clean=False, layer=top)
    hvp = hessian_oracle.frozen_hvp(net, x, x_adv, y, kind, layer=top)
    W, idx = _layer_stack(net, top, 3)
    v = np.zeros(W.shape[1])
    v[idx] = 1.0

    weights = []  # weight shape of every tape dense layer
    depths = []  # depth of every network a numpy forward pass runs
    dense, numpy_forward = tape.dense, trh_module.forward

    def counting_dense(x, w, b=None):
        weights.append(w.shape[-2:])
        return dense(x, w, b)

    def counting_forward(net, x):
        depths.append(net.depth)
        return numpy_forward(net, x)

    whole_grad = frozen_objective_fns(net, x, x_adv, y, kind)[1]
    monkeypatch.setattr(tape, "dense", counting_dense)
    monkeypatch.setattr(trh_module, "forward", counting_forward)
    for w in (W[0], W):
        grad_fn(w)
        value_fn(w)
    hvp(v)
    # two sides per evaluation (2 gradients, 2 values, 2 for the product),
    # each one dense layer of the top weights; no numpy forward at all
    assert weights == [top_shape] * 2 * (2 + 2 + 2)
    assert depths == []
    # the whole-network route runs every layer
    weights.clear()
    whole_grad(W[0])
    assert len(weights) == 2 * net.depth


# -- the stencils -------------------------------------------------------------


@pytest.mark.parametrize("hidden,bias", NETS, ids=NET_IDS)
def test_stencils_equal_per_point_loops(monkeypatch, hidden, bias):
    net, x, x_adv, y = _instance(hidden, bias)
    value_fn, grad_fn = frozen_objective_fns(
        net, x, x_adv, y, RobustLossKind("trades", 6.0), lam=0.25, gamma=0.01,
        stop_grad_clean=False)
    w0 = flatten_weights(net)
    idx = np.arange(w0.size)[::-3]
    expected_grad = _fd_gradient_loop(value_fn, w0)
    expected_diag = _hessian_diag_loop(grad_fn, w0, idx)
    assert np.array_equal(finite_diff_gradient(value_fn, w0), expected_grad)
    assert np.array_equal(hessian_diag_subset(grad_fn, w0, idx), expected_diag)
    # a function not marked stackable is called row by row
    assert np.array_equal(finite_diff_gradient(lambda w: value_fn(w), w0),
                          expected_grad)
    assert np.array_equal(hessian_diag_subset(lambda w: grad_fn(w), w0, idx),
                          expected_diag)
    # a stencil split into blocks of two coordinates
    monkeypatch.setattr(numerics, "_STENCIL_ENTRIES", 4 * w0.size)
    assert np.array_equal(finite_diff_gradient(value_fn, w0), expected_grad)
    assert np.array_equal(hessian_diag_subset(grad_fn, w0, idx), expected_diag)


def _raised(call):
    with pytest.raises(Exception) as err:
        call()
    return type(err.value), getattr(err.value, "index", None)


def test_gradient_errors_match_on_both_paths():
    # non-finite wherever w[3] or w[1] is pushed above 0.5: index 1 first
    def values(W):
        return np.where((W[..., [3, 1]] > 0.5).any(axis=-1), np.nan,
                        (W * W).sum(axis=-1))

    w0 = np.array([0.0, 0.5, 0.0, 0.5])
    stacked = _raised(lambda: finite_diff_gradient(stackable(values), w0))
    per_point = _raised(lambda: finite_diff_gradient(lambda w: float(values(w)), w0))
    assert stacked == per_point == (OracleError, 1)


def test_hessian_errors_match_on_both_paths():
    # entry i of the gradient is non-finite once w[i] passes 0.5, for i in {2, 4}
    def grads(W):
        out = 2.0 * W
        out[..., [2, 4]] = np.where(W[..., [2, 4]] > 0.5, np.nan, out[..., [2, 4]])
        return out

    w0 = np.full(5, 0.5)
    indices = [0, 4, 2]  # 4 comes first in the order asked for
    stacked = _raised(lambda: hessian_diag_subset(stackable(grads), w0, indices))
    per_point = _raised(lambda: hessian_diag_subset(lambda w: grads(w), w0, indices))
    assert stacked == per_point == (OracleError, 4)


# -- stacks of posterior variances ------------------------------------------


def _inner_objective_loop(risk, diag, theta, var, sigma0_sq, beta):
    kl = 0.5 * (float(np.sum(np.log(sigma0_sq / var))) - var.size
                + float(np.dot(theta, theta)) / sigma0_sq
                + float(var.sum()) / sigma0_sq)
    return risk + 0.5 * float(np.dot(var, diag)) + kl / beta


def test_inner_objective_and_kl_take_variance_stacks():
    r = Rng(8)
    for dim in (1, 3, 9):
        c = r.child(dim)
        diag = np.abs(c.child("d").normal(size=dim))
        theta = c.child("t").normal(size=dim)
        V = np.exp(c.child("v").normal(size=(7, dim))) * 0.1
        vals = pb.second_order_inner_objective(0.3, diag, theta, V, 0.1, 50.0)
        assert vals.shape == (7,)
        assert np.array_equal(vals, [_inner_objective_loop(0.3, diag, theta, v,
                                                           0.1, 50.0) for v in V])
        kls = pb.gaussian_kl(pb.GaussianPosterior(theta, V), 0.1)
        assert np.array_equal(kls, [pb.gaussian_kl(pb.GaussianPosterior(theta, v), 0.1)
                                    for v in V])
    with pytest.raises(ValueError):
        pb.GaussianPosterior(np.zeros(3), np.full((2, 4), 0.1))
    with pytest.raises(ValueError):
        pb.GaussianPosterior(np.zeros(3), np.full((2, 2, 3), 0.1))


def test_lift_of_a_stack_gives_stacked_leaves():
    net, *_ = _instance([5], True)
    lifted = lift(unflatten_weights(net, _stack(net, 2)))
    assert lifted[0][0].shape == (2, 3, 5) and lifted[0][1].shape == (2, 1, 5)
