"""Gradient checks for every tape op: adjoints vs central differences."""

import tracemalloc

import numpy as np
import pytest

from oracle_helpers import rowwise, whole_network_rows
from trhreg import tape
from trhreg.data import two_moons
from trhreg.losses import RobustLossKind
from trhreg.network import (backprop, flatten_weights, forward_nodes, init_mlp,
                            lift, unflatten_weights)
from trhreg.numerics import Rng, finite_diff_gradient
from trhreg.trh import capture_frozen, objective_nodes


def gradcheck(build, x0, rtol=1e-7):
    """build(leaf Node) -> scalar Node; compares backward to FD."""
    leaf = tape.leaf(x0)
    out = build(leaf)
    tape.backward(out)
    analytic = leaf.grad.ravel()

    def value(flat):
        node = tape.leaf(flat.reshape(x0.shape))
        return float(build(node).value)

    numeric = finite_diff_gradient(rowwise(value), x0.ravel().copy())
    err = np.linalg.norm(analytic - numeric) / max(1e-10, np.linalg.norm(numeric))
    assert err <= rtol, f"gradcheck failed: rel err {err:.3e}"


R = Rng(123)


class TestElementwise:
    def test_add_broadcast_bias(self):
        x0 = R.child("a").normal(size=(3, 4))
        bias = R.child("b").normal(size=4)
        gradcheck(lambda n: tape.nsum((n + tape.constant(bias)) * (n + 1.0)), x0)

    def test_neg_sub_scalars(self):
        x0 = R.child("d").normal(size=6)
        gradcheck(lambda n: tape.nsum(2.0 - (-n) * 3.0 - n), x0)

    def test_relu_masks_gradient(self):
        x0 = np.array([[-1.0, 2.0, -0.5, 3.0]])
        leaf = tape.leaf(x0)
        out = tape.nsum(tape.relu(leaf))
        tape.backward(out)
        assert np.array_equal(leaf.grad, [[0.0, 1.0, 0.0, 1.0]])


class TestMatmulReductions:
    def test_matmul_both_sides(self):
        a0 = R.child("f").normal(size=(3, 4))
        b = tape.constant(R.child("g").normal(size=(4, 2)))
        gradcheck(lambda n: tape.nsum((n @ b) * (n @ b)), a0)

        b0 = R.child("h").normal(size=(4, 2))
        a = tape.constant(R.child("i").normal(size=(3, 4)))
        gradcheck(lambda n: tape.nsum((a @ n) * (a @ n)), b0)

    def test_mean(self):
        x0 = R.child("k").normal(size=(5, 2))
        leaf = tape.leaf(x0)
        out = tape.mean(leaf)
        tape.backward(out)
        assert np.allclose(leaf.grad, np.full((5, 2), 0.1))


class TestAnyRank:
    """Stacks of matrices: products on the last two axes, reductions on the
    last one, adjoints summed back over broadcast stack axes."""

    def test_matmul_stacks_both_sides(self):
        a0 = R.child("sa").normal(size=(3, 2, 4))
        b = tape.constant(R.child("sb").normal(size=(3, 4, 2)))
        gradcheck(lambda n: tape.nsum((n @ b) * (n @ b)), a0)

        b0 = R.child("sc").normal(size=(3, 4, 2))
        a = tape.constant(R.child("sd").normal(size=(3, 2, 4)))
        gradcheck(lambda n: tape.nsum((a @ n) * (a @ n)), b0)

    def test_matmul_broadcasts_a_matrix_over_a_stack(self):
        x = tape.constant(R.child("se").normal(size=(2, 4)))
        w0 = R.child("sf").normal(size=(3, 4, 5))
        gradcheck(lambda n: tape.nsum((x @ n) * (x @ n)), w0)
        v = tape.constant(R.child("sg").normal(size=(3, 4, 5)))
        m0 = R.child("sh").normal(size=(2, 4))
        gradcheck(lambda n: tape.nsum((n @ v) * (n @ v)), m0)

    def test_mean_over_one_axis(self):
        x0 = R.child("si").normal(size=(3, 5))
        c = tape.constant(R.child("sj").normal(size=3))
        gradcheck(lambda n: tape.nsum(tape.mean(n * n, axis=-1) * c), x0)
        out = tape.mean(tape.constant(x0), axis=-1)
        assert type(out) is np.ndarray and np.array_equal(out, x0.mean(axis=-1))

    def test_sum_over_an_axis_tuple(self):
        x0 = R.child("sk").normal(size=(3, 2, 4))
        c = tape.constant(R.child("sl").normal(size=3))
        gradcheck(lambda n: tape.nsum(tape.nsum(n * n, (1, 2)) * c), x0)

    def test_row_ops_on_the_last_axis(self):
        x0 = R.child("sm").normal(size=(2, 3, 5))
        onehot = np.eye(5)[[[1, 4, 0], [2, 2, 3]]]
        gradcheck(lambda n: tape.nsum(-tape.row_sum(
            tape.log_softmax(n) * tape.constant(onehot))), x0)

    def test_stack_slices_equal_unstacked_bits(self):
        x0 = R.child("sn").normal(size=(3, 2, 5))
        onehot = tape.constant(np.eye(5)[[1, 4]])

        def objective(n, axis):
            return tape.mean(-tape.row_sum(tape.log_softmax(n) * onehot), axis)

        stacked = tape.leaf(x0)
        tape.backward(tape.nsum(objective(stacked, -1)))
        for p in range(3):
            single = tape.leaf(x0[p])
            out = objective(single, None)
            tape.backward(out)
            assert _same_bits(out.value, objective(tape.constant(x0), -1)[p])
            assert _same_bits(single.grad, stacked.grad[p])


class TestLogSoftmax:
    def test_rows_sum_to_one_probabilities(self):
        logits = R.child("l").normal(size=(4, 6)) * 5
        probs = tape.exp(tape.log_softmax(tape.constant(logits)))
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_gradcheck_cross_entropy(self):
        x0 = R.child("m").normal(size=(3, 5))
        onehot = np.zeros((3, 5))
        onehot[np.arange(3), [1, 4, 0]] = 1.0
        gradcheck(lambda n: tape.mean(-tape.row_sum(
            tape.log_softmax(n) * tape.constant(onehot))), x0)

    def test_extreme_logits_stable(self):
        logits = np.array([[1000.0, 0.0], [-1000.0, 0.0]])
        assert np.all(np.isfinite(tape.log_softmax(tape.constant(logits))))


class TestBackwardMechanics:
    def test_shared_subexpression_accumulates(self):
        leaf = tape.leaf(np.array(2.0))
        shared = leaf * leaf          # x^2
        out = shared + shared         # 2 x^2 -> d/dx = 4x = 8
        tape.backward(out)
        assert float(leaf.grad) == 8.0

    def test_backward_requires_scalar(self):
        leaf = tape.leaf(np.ones(3))
        with pytest.raises(ValueError):
            tape.backward(leaf + 1.0)

    def test_constant_gets_no_edges(self):
        const = tape.constant(np.ones(3))
        leaf = tape.leaf(np.ones(3))
        out = tape.nsum(const * leaf)
        tape.backward(out)
        assert np.array_equal(leaf.grad, np.ones(3))


class TestConstantPropagation:
    def test_ops_on_constants_record_no_edges(self):
        a = tape.constant(np.ones((2, 3)))
        out = tape.row_sum(tape.exp(a * 2.0 + a) @ tape.constant(np.ones((3, 1))))
        assert type(out) is np.ndarray

    def test_mixed_op_records_only_the_live_operand(self):
        const = tape.constant(np.ones((3, 3)))
        leaf = tape.leaf(np.ones((3, 3)))
        for node in (const * leaf, const + leaf, const @ leaf, leaf @ const,
                     2.0 * leaf):
            assert [p for p, _ in node._edges] == [leaf]
        tape.backward(tape.nsum(const - leaf))  # the reflected subtraction
        assert np.array_equal(leaf.grad, np.full((3, 3), -1.0))


# -- the lazy backward and the one-node log-softmax against what they replace


def _zeros_backward(out):
    """Reference backward: a zeros buffer per reachable node, then every
    contribution added into it (the tape's former accumulation)."""
    order = []
    seen = set()
    stack = [(out, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent, _ in node._edges:
            if id(parent) not in seen:
                stack.append((parent, False))
    for node in order:
        node.grad = np.zeros(node.shape)
    out.grad = np.ones(())
    for node in reversed(order):
        g = node.grad
        for parent, vjp in node._edges:
            parent.grad = parent.grad + vjp(g)


def _log(a):
    return tape.Node(np.log(a.value), ((a, lambda g: g / a.value),))


def _row_sum_keepdims(a):
    def vjp(g):
        out = np.empty(a.shape)
        out[...] = g
        return out
    return tape.Node(a.value.sum(axis=-1, keepdims=True), ((a, vjp),))


def _composite_log_softmax(logits):
    """Reference log-softmax as a chain of elementary tape ops, with a log
    and a keepdims row sum of its own."""
    shift = logits.value.max(axis=1, keepdims=True)
    centered = logits - tape.constant(shift)
    return centered - _log(_row_sum_keepdims(tape.exp(centered)))


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _grads_both_ways(monkeypatch, net, objective):
    """backprop's (value, grads) with the tape's backward and with the
    zeros-based reference."""
    lazy = backprop(net, objective)
    with monkeypatch.context() as m:
        m.setattr(tape, "backward", _zeros_backward)
        ref = backprop(net, objective)
    return lazy, ref


def _assert_same_grads(lazy, ref):
    assert lazy[0] == ref[0]
    for (gw, gb), (rw, rb) in zip(lazy[1], ref[1]):
        assert _same_bits(gw, rw)
        assert (gb is None) == (rb is None)
        if gb is not None:
            assert _same_bits(gb, rb)


class TestLazyBackwardMatchesZerosBackward:
    @pytest.mark.parametrize("variant", ["at", "trades", "alp", "mart"])
    def test_objective_nodes_bitwise(self, monkeypatch, variant):
        rng = Rng(31).child(variant)
        net = init_mlp([3, 7, 6, 4], rng.child("net"))
        X = rng.child("x").normal(size=(9, 3))
        X_adv = X + 0.1 * rng.child("dx").normal(size=X.shape)
        y = rng.child("y").integers(0, 4, size=9)
        kind = RobustLossKind(variant, 2.0)
        lazy, ref = _grads_both_ways(monkeypatch, net, lambda lifted: objective_nodes(
            lifted, X, X_adv, y, kind, lam=0.3, gamma=0.01, stop_grad_clean=False))
        _assert_same_grads(lazy, ref)

    def test_whole_network_trace_k10_bitwise(self, monkeypatch):
        rng = Rng(32)
        net = init_mlp([5, 8, 8, 10], rng.child("net"))
        X = rng.child("x").normal(size=(12, 5))
        lazy, ref = _grads_both_ways(monkeypatch, net, lambda lifted: tape.mean(
            whole_network_rows(lifted, X)))
        _assert_same_grads(lazy, ref)


class TestOneNodeLogSoftmax:
    @pytest.mark.parametrize("scale", [1.0, 30.0, 800.0])
    def test_value_and_vjp_bitwise_equal_composite(self, scale):
        rng = Rng(33).child(str(scale))
        logits0 = rng.child("z").normal(size=(6, 5)) * scale
        weights = tape.constant(rng.child("w").normal(size=(6, 5)))
        results = []
        for fn in (tape.log_softmax, _composite_log_softmax):
            x = tape.leaf(logits0)
            ls = fn(x)
            out = tape.nsum(ls * weights + tape.exp(ls) * weights)
            _zeros_backward(out)
            results.append((ls.value, x.grad))
        (v1, g1), (v2, g2) = results
        assert _same_bits(v1, v2) and _same_bits(g1, g2)

    def test_finite_at_800(self):
        x = tape.leaf(np.array([[800.0, -800.0, 0.0], [-800.0, -800.0, 800.0]]))
        ls = tape.log_softmax(x)
        tape.backward(tape.nsum(ls * tape.constant(np.arange(6.0).reshape(2, 3))))
        assert np.all(np.isfinite(ls.value)) and np.all(np.isfinite(x.grad))
        assert ls.value[0, 0] == 0.0 and ls.value[0, 1] == -1600.0

    def test_one_node_on_the_tape(self):
        x = tape.leaf(np.ones((2, 3)))
        ls = tape.log_softmax(x)
        assert [p for p, _ in ls._edges] == [x]


class TestLazyAccumulation:
    def test_three_consumers_accumulate(self):
        x = tape.leaf(np.array([1.0, 2.0]))
        out = tape.nsum(x * 2.0) + tape.nsum(x * x) + tape.nsum(tape.exp(x * 0.0) * x)
        tape.backward(out)
        assert np.array_equal(x.grad, 2.0 + 2.0 * np.array([1.0, 2.0]) + 1.0)

    def test_second_backward_over_same_leaves_recomputes(self):
        w = tape.leaf(np.array([[1.0, -2.0], [0.5, 3.0]]))
        x = tape.constant(np.array([[1.0, 2.0]]))
        grads = []
        for _ in range(2):
            tape.backward(tape.nsum((x @ w) * (x @ w)))
            grads.append(w.grad.copy())
        assert np.array_equal(grads[0], grads[1])

    @pytest.mark.parametrize("x_first", [True, False])
    def test_leaf_grads_share_no_memory(self, x_first):
        # x + w hands both leaves the sum's own gradient array; x's second
        # contribution must not be added into that shared array
        x, w = tape.leaf(np.ones(3)), tape.leaf(np.full(3, 2.0))
        shared, own = tape.nsum(x + w), tape.nsum(x * 3.0)
        tape.backward(shared + own if x_first else own + shared)
        assert np.array_equal(x.grad, np.full(3, 4.0))
        assert np.array_equal(w.grad, np.ones(3))
        assert not np.shares_memory(x.grad, w.grad)


# -- the lean tape: freed interior adjoints, a bool ReLU gate, one dense node


def _graph_nodes(out):
    """Every node reachable from `out` through recorded edges."""
    nodes, stack, seen = [], [out], set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(parent for parent, _ in node._edges)
    return nodes


def _float_mask_relu(a):
    """Reference ReLU with the former float64 mask."""
    mask = (a.value > 0).astype(np.float64)
    return tape.Node(a.value * mask, ((a, lambda g: g * mask),))


class TestLeanTape:
    @pytest.mark.parametrize("copies", [None, 3], ids=["single", "stacked"])
    def test_only_leaves_keep_grads_equal_to_zeros_backward(self, copies):
        rng = Rng(41).child("lean", str(copies))
        net = init_mlp([3, 7, 6, 4], rng.child("net"), hidden_bias=True)
        X = rng.child("x").normal(size=(9, 3))
        X_adv = X + 0.1 * rng.child("dx").normal(size=X.shape)
        y = rng.child("y").integers(0, 4, size=9)
        kind = RobustLossKind("mart", 5.0)
        # a stack evaluates under constants captured at one net's weights
        frozen = capture_frozen(net, X, X_adv, y, kind)
        if copies is not None:
            w0 = flatten_weights(net)
            net = unflatten_weights(net, w0 + 0.05 * rng.child("stack").normal(
                size=(copies, w0.size)))
        lifted = lift(net)
        out = objective_nodes(lifted, X, X_adv, y, kind, lam=0.3, gamma=0.01,
                              frozen=frozen)
        if copies is not None:
            out = tape.nsum(out)
        tape.backward(out)
        nodes = _graph_nodes(out)
        params = [p for pair in lifted for p in pair if p is not None]
        assert len(params) == 5
        assert all(any(p is n for n in nodes) for p in params)  # biases too
        interior = [n for n in nodes if n._edges]
        assert interior and all(n.grad is None for n in interior)
        lean = [p.grad.copy() for p in params]
        _zeros_backward(out)  # the edges stay: the same graph runs again
        for g, p in zip(lean, params):
            assert _same_bits(g, p.grad)

    def test_second_backward_over_the_same_graph(self):
        w = tape.leaf(np.array([[1.0, -2.0], [0.5, 3.0]]))
        x = tape.constant(np.array([[1.0, 2.0], [-1.0, 0.5]]))
        out = tape.nsum(tape.relu(tape.dense(x, w)) * 3.0)
        tape.backward(out)
        first = w.grad.copy()
        tape.backward(out)
        assert _same_bits(first, w.grad)

    def test_relu_value_is_maximum_and_vjp_bits_equal_float_mask(self):
        special = [0.0, -0.0, 1e-310, -1e-310, np.inf, -np.inf, np.nan, 2.5, -3.0]
        a0 = np.concatenate([special, R.child("rg").normal(size=31)]).reshape(5, 8)
        g = np.concatenate([special[::-1], R.child("rh").normal(size=31)]).reshape(5, 8)
        a = tape.leaf(a0)
        with np.errstate(invalid="ignore"):  # inf * 0 is nan either way
            lean, ref = tape.relu(a), _float_mask_relu(a)
            assert _same_bits(lean.value, np.maximum(a0, 0.0))
            assert _same_bits(lean._edges[0][1](g), ref._edges[0][1](g))

    @pytest.mark.parametrize("shapes", [
        ((5, 3), (3, 4), (4,)),            # one network
        ((5, 3), (2, 3, 4), (2, 1, 4)),    # a stacked layer on shared inputs
        ((2, 5, 3), (2, 3, 4), (2, 1, 4)),  # a stacked layer on stacked inputs
        ((5, 3), (3, 4), None),            # no bias
    ], ids=["single", "stack-shared-x", "stack", "no-bias"])
    def test_dense_bits_equal_matmul_plus_bias(self, shapes):
        rng = R.child("dense", str(shapes))
        arrays = [None if s is None else rng.child(i).normal(size=s)
                  for i, s in enumerate(shapes)]
        c = rng.child("c").normal(size=np.broadcast_shapes(
            shapes[0][:-1], shapes[1][:-2] + (1, 1)) + (4,))
        results = []
        for fused in (True, False):
            x, w, b = [None if v is None else tape.leaf(v) for v in arrays]
            pre = tape.dense(x, w, b) if fused else (
                x @ w if b is None else x @ w + b)
            tape.backward(tape.nsum(pre * tape.constant(c)))
            results.append([pre.value] + [n.grad for n in (x, w, b) if n is not None])
        for lean, ref in zip(*results):
            assert _same_bits(lean, ref)

    def test_dense_is_one_node_with_live_edges_only(self):
        x = tape.constant(np.ones((2, 3)))
        w, b = tape.leaf(np.ones((3, 4))), tape.leaf(np.zeros(4))
        pre = tape.dense(x, w, b)
        assert [p for p, _ in pre._edges] == [w, b]
        assert type(tape.dense(x, tape.constant(np.ones((3, 4))))) is np.ndarray

    def test_forward_nodes_records_one_node_per_layer(self):
        net = init_mlp([3, 5, 4, 2], Rng(42).child("net"))
        lifted = lift(net)
        layer_inputs, preacts = forward_nodes(lifted, np.ones((2, 3)))
        for i, ((w, b), pre) in enumerate(zip(lifted, preacts)):
            parents = [p for p, _ in pre._edges]
            below = [layer_inputs[i]] if i else []  # the input X is a constant
            assert parents == below + [w] + ([] if b is None else [b])

    def test_mart_backprop_peak_memory(self):
        # the README net and batch: 2-100-100-2, 500 clean + 500 adversarial
        ds = two_moons(500, 0.1, seed=1)
        net = init_mlp([2, 100, 100, 2], Rng(43).child("net"))
        X_adv = ds.inputs + 0.02 * np.sign(Rng(43).child("dx").normal(size=ds.inputs.shape))
        kind = RobustLossKind("mart", 5.0)

        def objective(lifted):
            return objective_nodes(lifted, ds.inputs, X_adv, ds.labels, kind,
                                   lam=0.5, gamma=0.0)
        backprop(net, objective)  # first-call allocations out of the way
        tracemalloc.start()
        try:
            backprop(net, objective)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7e6, f"backprop peak {peak / 1e6:.2f} MB"
