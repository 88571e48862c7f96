from decimal import Decimal, localcontext

import numpy as np
import pytest

from oracle_helpers import rowwise, weight_indices, whole_network_rows
# the saturated logits and the tolerance of the top-layer primitives' check
from test_trh_blocks import ATOL, RTOL, saturated_logits
from trhreg import tape
from trhreg.hessian_oracle import exact_trace, frozen_objective_fns
from trhreg.losses import RobustLossKind, softmax
from trhreg.network import (DenseLayer, MlpNetwork, flatten_weights, forward,
                            forward_nodes, gradient_vector, init_mlp, lift,
                            unflatten_weights)
from trhreg.numerics import Rng, finite_diff_gradient
from trhreg.layer_traces import (INEQUALITY_SLACK, NonSmoothInput,
                                 _jacobian_stacks,
                                 _summed_quadratic_form,
                                 check_layer_inequality,
                                 l1_operator_norm,
                                 layer_trace_rows)
from trhreg.trh import trh_at
from trhreg.verify import sample_smooth_instance


# -- the per-example reference for the recursion ---------------------------


def logits_jacobian(net, x, level):
    """Reference: d logits / d level activations at one example, shape
    (K, D_level), by the chain rule one weight matrix at a time."""
    tr = forward(net, x)
    depth = net.depth
    if not 0 <= level <= depth:
        raise ValueError(f"level must be in [0, {depth}]")
    jac = np.eye(net.num_classes)
    for i in range(depth - 1, level - 1, -1):
        jac = jac @ net.layers[i].weights.T
        if i > level:
            jac = jac * (tr.preacts[i - 1] > 0)
    return jac


def _h(net, x):
    s = softmax(forward(net, x).logits)
    return s * (1 - s)


def _peak_h(net, x, level):
    """Reference ``max_{k,d} (d logits_k / d level_d)^2 h_k``."""
    return float((logits_jacobian(net, x, level) ** 2 * _h(net, x)[:, None]).max())


def _level_jacobians(net, x):
    """The recursion at one example: ``{level: (K, D) Jacobian of the
    level's activations}``, read as ``W_i @ jac`` from the stack at weight
    layer i, plus the stacks themselves keyed by weight layer."""
    lifted = lift(net, leaves=())
    preacts = forward_nodes(lifted, x[None, :]).preacts
    stacks = dict(_jacobian_stacks(lifted, preacts))
    levels = {i: (lifted[i][0] @ jac)[:, :, 0] for i, jac in stacks.items()}
    return levels, {i: jac[:, :, 0] for i, jac in stacks.items()}


class TestLayerHTensor:
    """``H = (d logits / d level)^2 h`` as the recursion carries it."""

    def test_logits_level_identity_jacobian(self):
        net, x, _, _ = sample_smooth_instance(201)
        _, stacks = _level_jacobians(net, x[0])
        k = net.num_classes
        assert np.array_equal(stacks[net.depth - 1], np.eye(k))
        h = _h(net, x[0])
        top = stacks[net.depth - 1] ** 2 * h[:, None]
        assert top.sum() == pytest.approx(h.sum(), rel=1e-12)
        r = check_layer_inequality(net, x[0])[net.depth - 1]
        w_norm = l1_operator_norm(net.layers[-1].weights)
        assert r.rhs == h.max() * w_norm ** 2

    def test_entries_match_fd_jacobians_times_h(self):
        net, x, _, _ = sample_smooth_instance(202)
        level = 1  # first hidden level
        tr = forward(net, x[0])
        act0 = tr.layer_inputs[level].copy()

        def forward_from_level(act):
            cur = act
            for i in range(level, net.depth):
                cur = cur @ net.layers[i].weights
                if net.layers[i].bias is not None:
                    cur = cur + net.layers[i].bias
                if i < net.depth - 1:
                    cur = np.maximum(cur, 0.0)
            return cur

        k = net.num_classes
        fd_jac = np.empty((k, act0.size))
        for c in range(k):
            fd_jac[c] = finite_diff_gradient(
                rowwise(lambda a, cc=c: float(forward_from_level(a)[cc])), act0.copy())
        h = _h(net, x[0])
        expected = fd_jac ** 2 * h[:, None]
        levels, stacks = _level_jacobians(net, x[0])
        got = levels[level] ** 2 * h[:, None]
        rel = np.abs(got - expected).max() / max(1e-12, np.abs(expected).max())
        assert rel <= 1e-6
        # the stack one layer down holds the same Jacobian behind the gates
        gated = fd_jac * (tr.preacts[level - 1] > 0)
        assert np.abs(stacks[level - 1] - gated).max() <= 1e-6 * np.abs(fd_jac).max()
        assert check_layer_inequality(net, x[0])[level].lhs == pytest.approx(
            expected.max(), rel=1e-6)

    def test_all_entries_nonnegative(self):
        for seed in (203, 204):
            net, x, _, _ = sample_smooth_instance(seed)
            levels, _ = _level_jacobians(net, x[0])
            h = _h(net, x[0])
            for level, jac in levels.items():
                assert np.all(jac ** 2 * h[:, None] >= 0)
            for r in check_layer_inequality(net, x[0]):
                assert r.lhs >= 0 and r.rhs >= 0

    def test_zero_input_rejected_for_bias_free_net(self):
        net = init_mlp([3, 2], Rng(1).child("i"), hidden_bias=False)
        with pytest.raises(NonSmoothInput, match="zero input is degenerate"):
            check_layer_inequality(net, np.zeros(3))

    def test_kink_rejected(self):
        net = init_mlp([2, 3, 2], Rng(2).child("i"), hidden_bias=False)
        net.layers[0].weights[:, 0] = 0.0  # first hidden pre-activation == 0
        with pytest.raises(NonSmoothInput, match="ReLU kink"):
            check_layer_inequality(net, np.array([0.5, 0.5]))


class TestTrhCeLayer:
    """The exact CE Hessian trace of each weight layer at one example: one
    row of :func:`layer_trace_rows`."""

    def test_top_layer_reduces_to_adversarial_ce_formula(self):
        net, x, _, _ = sample_smooth_instance(205)
        top = layer_trace_rows(net, x[0])[0, net.depth - 1]
        assert top == pytest.approx(trh_at(forward(net, x[0])), rel=1e-12)

    def test_inactive_hidden_layer_gives_zero(self):
        w0 = np.abs(Rng(3).child("w").normal(size=(2, 4)))
        net = MlpNetwork([DenseLayer(w0, bias=np.full(4, -10.0)),
                          DenseLayer(Rng(3).child("w2").normal(size=(4, 2)))])
        x = np.array([0.1, 0.2])  # all hidden pre-activations ~ -10: inactive
        assert layer_trace_rows(net, x)[0, 0] == 0.0

    def test_every_layer_matches_oracle(self):
        for seed in (206, 207, 208):
            net, x, _, y = sample_smooth_instance(seed)
            _, grad_fn = frozen_objective_fns(net, x, x, y, RobustLossKind("at"))
            w0 = flatten_weights(net)
            rows = layer_trace_rows(net, x)
            for layer in range(net.depth):
                oracle = exact_trace(grad_fn, w0, weight_indices(net, layer=layer))
                assert rows[0, layer] == pytest.approx(
                    oracle, rel=1e-5), (seed, layer)

    def test_layer_sum_equals_full_weight_trace(self):
        net, x, _, y = sample_smooth_instance(209)
        _, grad_fn = frozen_objective_fns(net, x, x, y, RobustLossKind("at"))
        oracle = exact_trace(grad_fn, flatten_weights(net), weight_indices(net))
        layer_sum = float(layer_trace_rows(net, x)[0].sum())
        assert layer_sum == pytest.approx(oracle, rel=1e-5)


class TestL1OperatorNorm:
    def test_small_example(self):
        assert l1_operator_norm(np.array([[1.0, -2.0], [0.5, 0.5]])) == 3.0

    def test_zero_matrix(self):
        assert l1_operator_norm(np.zeros((3, 4))) == 0.0

    def test_matches_brute_force(self):
        w = Rng(4).child("w").normal(size=(6, 5))
        brute = max(sum(abs(w[i, j]) for j in range(5)) for i in range(6))
        assert l1_operator_norm(w) == pytest.approx(brute, rel=1e-15)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            l1_operator_norm(np.zeros((0, 2)))


class TestLayerInequality:
    def test_identity_weights_tight(self):
        net = MlpNetwork([DenseLayer(np.eye(2)), DenseLayer(np.eye(2))])
        x = np.array([1.0, 2.0])  # all units active, identity chain
        r = check_layer_inequality(net, x)[0]
        assert r.holds
        assert r.lhs == pytest.approx(r.rhs, rel=1e-12)

    def test_zero_weights_hold_trivially(self):
        net = MlpNetwork([DenseLayer(np.zeros((2, 3)), np.ones(3)),
                          DenseLayer(np.zeros((3, 2)))])
        r = check_layer_inequality(net, np.array([0.7, -0.4]))[0]
        assert r.holds and r.lhs == 0.0 and r.rhs == 0.0

    def test_random_sweep(self):
        for seed in range(210, 230):
            net, x, _, _ = sample_smooth_instance(seed)
            for level, r in enumerate(check_layer_inequality(net, x[0])):
                assert r.holds, (seed, level, r)

    def test_sides_match_per_example_reference(self):
        cases = [sample_smooth_instance(seed)[:2] for seed in range(210, 230)]
        cases.append(_ten_class_instance())
        for net, X in cases:
            for x in X:
                for level, r in enumerate(check_layer_inequality(net, x)):
                    w_norm = l1_operator_norm(net.layers[level].weights)
                    assert r.lhs == pytest.approx(_peak_h(net, x, level), rel=1e-12)
                    assert r.rhs == pytest.approx(
                        _peak_h(net, x, level + 1) * w_norm ** 2, rel=1e-12)

    def test_one_result_per_level_from_the_recursion(self):
        for seed in range(210, 230):
            net, x, _, _ = sample_smooth_instance(seed)
            levels, _ = _level_jacobians(net, x[0])
            h = _h(net, x[0])[:, None]
            peak = [float((levels[i] ** 2 * h).max()) for i in range(net.depth)]
            peak.append(float(h.max()))
            results = check_layer_inequality(net, x[0])
            assert len(results) == net.depth
            for level, r in enumerate(results):
                w_norm = l1_operator_norm(net.layers[level].weights)
                assert r.lhs == peak[level], (seed, level)
                assert r.rhs == peak[level + 1] * w_norm ** 2, (seed, level)
                assert r.holds == (r.lhs <= r.rhs + INEQUALITY_SLACK)

    def test_one_input_vector(self):
        net, x, _, _ = sample_smooth_instance(212)
        with pytest.raises(ValueError, match="single input vector"):
            check_layer_inequality(net, x[:1])


class TestBatchedAndDifferentiable:
    def test_rows_match_single_example_traces(self):
        net, x, _, _ = sample_smooth_instance(231)
        X = np.vstack([x[0], x[0] * 1.1, x[0] * 0.8])
        rows = layer_trace_rows(net, X)
        assert rows.shape == (3, net.depth)
        for layer in range(net.depth):
            assert rows[0, layer] == pytest.approx(
                layer_trace_rows(net, x[0])[0, layer], rel=1e-12)

    def test_node_value_and_gradient(self):
        net, x, _, _ = sample_smooth_instance(232)
        X = np.vstack([x[0], x[0] * 0.9])

        def objective(lifted):
            return tape.mean(whole_network_rows(lifted, X))

        value, grad = gradient_vector(net, objective)
        assert value == pytest.approx(
            float(np.mean(layer_trace_rows(net, X).sum(axis=1))), rel=1e-12)

        def value_fn(w):
            cand = unflatten_weights(net, w)
            return float(np.mean(layer_trace_rows(cand, X).sum(axis=1)))

        fd = finite_diff_gradient(rowwise(value_fn), flatten_weights(net))
        assert np.linalg.norm(grad - fd) / max(1e-10, np.linalg.norm(fd)) <= 1e-6


class TestLogitsJacobian:
    def test_level_bounds(self):
        net, x, _, _ = sample_smooth_instance(233)
        with pytest.raises(ValueError):
            logits_jacobian(net, x[0], net.depth + 1)


def _ten_class_instance(m=3):
    from trhreg.network import min_preact_magnitude
    for attempt in range(50):
        rng = Rng(240).child(attempt)
        net = init_mlp([3, 5, 4, 10], rng.child("i"))
        for layer in net.layers[:-1]:
            layer.bias[:] = rng.child("b", layer.d_out).normal(size=layer.d_out) * 0.3
        X = rng.child("x").normal(size=(m, 3))
        if min_preact_magnitude(net, X) > 1e-3:
            return net, X
    raise RuntimeError("no smooth ten-class instance")


class TestClassBatchedRoutine:
    def test_rows_match_per_example_jacobian_quadratic_form(self):
        # ||level_i||^2 sum_{d active} J_d^T (diag(s) - s s^T) J_d, with J
        # from logits_jacobian, example by example
        net, X = _ten_class_instance(m=4)
        rows = layer_trace_rows(net, X)
        for n, x in enumerate(X):
            tr = forward(net, x)
            s = softmax(tr.logits)
            phi = np.diag(s) - np.outer(s, s)
            levels = tr.layer_inputs + [tr.logits]
            for layer in range(net.depth):
                jac = logits_jacobian(net, x, layer + 1)
                if layer + 1 < net.depth:
                    jac = jac[:, levels[layer + 1] > 0]
                quad = float(np.einsum("kd,kj,jd->", jac, phi, jac))
                below = levels[layer]
                expected = float(below @ below) * quad
                assert rows[n, layer] == pytest.approx(expected, rel=1e-10, abs=1e-14)

    def test_whole_network_gradient_matches_fd_ten_classes(self):
        net, X = _ten_class_instance()

        def objective(lifted):
            return tape.mean(whole_network_rows(lifted, X))

        value, grad = gradient_vector(net, objective)
        assert value == pytest.approx(
            float(np.mean(layer_trace_rows(net, X).sum(axis=1))), rel=1e-12)

        def value_fn(w):
            cand = unflatten_weights(net, w)
            return float(np.mean(layer_trace_rows(cand, X).sum(axis=1)))

        fd = finite_diff_gradient(rowwise(value_fn), flatten_weights(net))
        assert np.linalg.norm(grad - fd) / max(1e-10, np.linalg.norm(fd)) <= 1e-6

    def test_constant_weights_record_no_graph(self):
        from trhreg.layer_traces import layer_trace_nodes
        net, X = _ten_class_instance()

        def rows(lifted):
            trace = forward_nodes(lifted, X)
            s = tape.exp(tape.log_softmax(trace.logits))
            return layer_trace_nodes(lifted, trace, s)

        assert all(type(r) is np.ndarray for r in rows(lift(net, leaves=())))
        assert all(type(r) is tape.Node for r in rows(lift(net)))


def _composite_quadratic_form(s, jac):
    """Reference: the centered summed quadratic form ``sum_d sum_c s_c
    (J_cd - u_d)^2`` as a chain of elementary tape ops on the class-major
    ``(K, D, m)`` stack.  The ``(m, K)`` softmax goes class-major,
    ``(K, 1, m)``, through a one-hot product and a sum."""
    k = s.shape[1]
    s = tape.nsum(s * tape.constant(np.eye(k)[:, None, None, :]), axis=-1)
    dev = jac - tape.nsum(s * jac, axis=0)
    return tape.nsum(tape.nsum(s * dev * dev, axis=0), axis=0)


def _random_stack(seed, k=10, d=6, m=5):
    rng = Rng(250).child(seed)
    s = softmax(rng.child("z").normal(size=(m, k)) * 2.0)
    return s, rng.child("j").normal(size=(k, d, m))


class TestFusedQuadraticForm:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_value_matches_composite(self, seed):
        s, jac = _random_stack(seed)
        fused = _summed_quadratic_form(tape.constant(s), tape.constant(jac))
        ref = _composite_quadratic_form(tape.constant(s), tape.constant(jac))
        assert fused.shape == ref.shape == (len(s),)
        assert np.all(np.abs(fused - ref) <= 1e-13 * np.abs(ref))

    @pytest.mark.parametrize("wrt", ["s", "jac"])
    def test_gradcheck(self, wrt):
        s, jac = _random_stack(3, k=4, d=3, m=2)
        c = tape.constant(Rng(251).child(wrt).normal(size=len(s)))

        def value(x, form=_summed_quadratic_form):
            args = {"s": tape.constant(s), "jac": tape.constant(jac)}
            args[wrt] = x
            return tape.nsum(form(args["s"], args["jac"]) * c)

        x0 = s if wrt == "s" else jac
        x = tape.leaf(x0)
        tape.backward(value(x))
        fd = finite_diff_gradient(rowwise(
            lambda flat: float(value(tape.constant(flat.reshape(x0.shape))))),
            x0.ravel().copy())
        assert np.linalg.norm(x.grad.ravel() - fd) <= 1e-7 * np.linalg.norm(fd)
        ref = tape.leaf(x0)
        tape.backward(value(ref, _composite_quadratic_form))
        assert np.allclose(x.grad, ref.grad, rtol=1e-12, atol=1e-14)

    def test_one_node_and_no_graph_on_constants(self):
        s, jac = _random_stack(4)
        s_node, jac_node = tape.leaf(s), tape.leaf(jac)
        out = _summed_quadratic_form(s_node, jac_node)
        assert [p for p, _ in out._edges] == [s_node, jac_node]
        out = _summed_quadratic_form(tape.constant(s), tape.constant(jac))
        assert type(out) is np.ndarray


# -- saturated softmax: the layer traces against a decimal evaluation ----

def _saturated_instance(gap, k):
    """A 2-5-4-k net with an active unit on every hidden level and one input
    whose logits are ``saturated_logits(gap, k)``, up to rounding: the top
    weights move along the input's features."""
    for attempt in range(50):
        rng = Rng(260).child(k, attempt)
        net = init_mlp([2, 5, 4, k], rng.child("net"))
        for layer in net.layers[:-1]:
            layer.bias[:] = 0.3 * rng.child("b", layer.d_out).normal(size=layer.d_out)
        x = rng.child("x").normal(size=(1, 2))
        tr = forward(net, x)
        if all((p > 0).any() for p in tr.preacts[:-1]):
            z, top = tr.features[0], net.layers[-1].weights
            top += np.outer(z, saturated_logits(gap, k) - z @ top) / (z @ z)
            return net, x
    raise RuntimeError("no instance with every hidden level active")


def decimal_layer_traces(net, x, gap):
    """Each weight matrix's CE trace ``||level_i||^2 sum_d J_d^T Phi J_d``,
    ``Phi = diag(p) - p p^T``, from its definition in decimal with 80 +
    gap / 2.3 digits, on the float64 forward's levels, gates and logits and
    the float64 weights; the Jacobians go down one exact product a layer."""
    tr = forward(net, x)
    with localcontext() as ctx:
        ctx.prec = 80 + int(gap / 2.3)
        logits = [Decimal(v) for v in tr.logits[0]]
        e = [(g - max(logits)).exp() for g in logits]
        p = [v / sum(e) for v in e]
        k = len(p)
        phi = [[p[c] * (int(c == c2) - p[c2]) for c2 in range(k)] for c in range(k)]
        jac = [[Decimal(int(c == d)) for d in range(k)] for c in range(k)]
        out = [0.0] * net.depth
        for i in range(net.depth - 1, -1, -1):
            quad = sum(jac[c][d] * phi[c][c2] * jac[c2][d] for d in range(len(jac[0]))
                       for c in range(k) for c2 in range(k))
            out[i] = float(sum(Decimal(v) ** 2 for v in tr.layer_inputs[i][0]) * quad)
            if i:
                w, gate = net.layers[i].weights, tr.preacts[i - 1][0] > 0
                jac = [[sum(Decimal(w[d, j]) * row[j] for j in range(w.shape[1]))
                        if gate[d] else Decimal(0) for d in range(w.shape[0])]
                       for row in jac]
        return out


class TestSaturatedLayerTraces:
    """The centered quadratic form keeps every digit as the softmax
    saturates, where ``sum_c s_c J_cd^2 - u_d^2`` cancels to nothing."""

    @pytest.mark.parametrize("k", [3, 10])
    @pytest.mark.parametrize("gap", [0, 16, 32, 87, 400])
    def test_rows_match_decimal(self, gap, k):
        net, x = _saturated_instance(gap, k)
        truth = decimal_layer_traces(net, x, gap)
        assert all(ref > 0 for ref in truth)  # every layer has an active unit
        for layer, (value, ref) in enumerate(zip(layer_trace_rows(net, x)[0], truth)):
            assert abs(value - ref) <= RTOL * abs(ref) + ATOL, (layer, value, ref)
