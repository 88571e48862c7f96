"""Closed-form top-layer traces against the finite-difference Hessian oracle."""

import numpy as np
import pytest

from loss_references import (alp_pair_loss, cross_entropy, kl_div,
                             mart_losses, softmax_derivs)
from oracle_helpers import rowwise, weight_indices, whole_network_rows
from trhreg import layer_traces, network, tape, trh
from trhreg.attacks import AttackConfig, pgd
from trhreg.hessian_oracle import exact_trace, frozen_objective_fns
from trhreg.losses import RobustLossKind, softmax
from trhreg.network import (DenseLayer, MlpNetwork, flatten_weights, forward,
                            gradient_vector, init_mlp, lift, unflatten_weights)
from trhreg.numerics import Rng, finite_diff_gradient
from trhreg.trh import (analytic_trh_rows, capture_frozen, objective_nodes,
                        robust_loss_rows, trh_alp, trh_at, trh_mart,
                        trh_trades, trh_trades_full)
from trhreg.verify import sample_smooth_instance


def zero_top_net(k=2, d=2):
    net = MlpNetwork([DenseLayer(np.zeros((d, k)))])
    return net


class TestTrhAt:
    def test_zero_top_layer_closed_value(self):
        # logits 0 for K=2: 1^T h = 0.5; feature norm 2 -> trace 1.0
        net = zero_top_net()
        tr = forward(net, np.array([1.0, 1.0]))
        assert trh_at(tr) == pytest.approx(1.0, abs=1e-15)

    def test_zero_feature_zero_trace(self):
        net = zero_top_net()
        tr = forward(net, np.zeros(2))
        assert trh_at(tr) == 0.0

    def test_oracle_match_random_net(self):
        net, x, x_adv, y = sample_smooth_instance(101)
        kind = RobustLossKind("at")
        _, grad_fn = frozen_objective_fns(net, x, x_adv, y, kind)
        oracle = exact_trace(grad_fn, flatten_weights(net),
                             weight_indices(net, layer=net.depth - 1))
        analytic = trh_at(forward(net, x_adv[0]))
        assert analytic == pytest.approx(oracle, rel=1e-5)


class TestTrhTrades:
    def test_zero_penalty_reduces_to_clean_ce(self):
        net, x, x_adv, _ = sample_smooth_instance(102)
        tr, tr_adv = forward(net, x[0]), forward(net, x_adv[0])
        clean_only = trh_trades(tr, tr_adv, 0.0)
        d = softmax(tr.logits)
        expected = float(np.dot(tr.features, tr.features)) * float(np.sum(d * (1 - d)))
        assert clean_only == pytest.approx(expected, rel=1e-12)

    def test_uniform_ten_class_value(self):
        # unit-norm features, zero logits at K=10: 0.9 + 6 * 0.9 = 6.3
        net = zero_top_net(k=10, d=1)
        tr = forward(net, np.array([1.0]))
        assert trh_trades(tr, tr, 6.0) == pytest.approx(6.3, abs=1e-12)

    def test_oracle_match_frozen_clean(self):
        net, x, x_adv, y = sample_smooth_instance(103)
        kind = RobustLossKind("trades", 6.0)
        _, grad_fn = frozen_objective_fns(net, x, x_adv, y, kind,
                                          stop_grad_clean=True)
        oracle = exact_trace(grad_fn, flatten_weights(net),
                             weight_indices(net, layer=net.depth - 1))
        analytic = trh_trades(forward(net, x[0]), forward(net, x_adv[0]), 6.0)
        assert analytic == pytest.approx(oracle, rel=1e-5)

    def test_rejects_negative_penalty(self):
        net = zero_top_net()
        tr = forward(net, np.ones(2))
        with pytest.raises(ValueError):
            trh_trades(tr, tr, -1.0)


class TestTrhTradesFull:
    def test_coincident_inputs_reduce_to_clean_term(self):
        # at x' == x the KL part of the objective is identically zero in
        # the weights, so its trace contribution must vanish exactly
        net, x, _, y = sample_smooth_instance(104)
        tr = forward(net, x[0])
        value, terms = trh_trades_full(tr, tr, 4.0)
        clean = trh_trades(tr, tr, 0.0)
        assert value == pytest.approx(clean, rel=1e-12)
        # oracle agreement at coincident inputs
        kind = RobustLossKind("trades", 4.0)
        _, grad_fn = frozen_objective_fns(net, x, x, y, kind,
                                          stop_grad_clean=False)
        oracle = exact_trace(grad_fn, flatten_weights(net),
                             weight_indices(net, layer=net.depth - 1))
        assert value == pytest.approx(oracle, rel=1e-5, abs=1e-7)

    def test_zero_penalty_matches_stop_grad_version(self):
        net, x, x_adv, _ = sample_smooth_instance(105)
        tr, tr_adv = forward(net, x[0]), forward(net, x_adv[0])
        full, _ = trh_trades_full(tr, tr_adv, 0.0)
        assert full == pytest.approx(trh_trades(tr, tr_adv, 0.0), rel=1e-12)

    def test_oracle_match_unfrozen(self):
        for seed in (106, 107, 108):
            net, x, x_adv, y = sample_smooth_instance(seed)
            kind = RobustLossKind("trades", 6.0)
            _, grad_fn = frozen_objective_fns(net, x, x_adv, y, kind,
                                              stop_grad_clean=False)
            oracle = exact_trace(grad_fn, flatten_weights(net),
                                 weight_indices(net, layer=net.depth - 1))
            value, _ = trh_trades_full(forward(net, x[0]),
                                       forward(net, x_adv[0]), 6.0)
            assert value == pytest.approx(oracle, rel=1e-5)

    def test_column_products_collapse_to_h(self):
        # Phi[:, k] . Psi[:, k] = h_k identically, for clean and adversarial
        # logits; the reduced expressions in the tape objective rely on
        # this collapse
        net, x, x_adv, _ = sample_smooth_instance(109)
        tr, tr_adv = forward(net, x[0]), forward(net, x_adv[0])
        for logits in (tr.logits, tr_adv.logits):
            d = softmax_derivs(logits)
            assert np.allclose(np.sum(d.phi * d.psi, axis=0), d.h, atol=1e-12)
            assert np.allclose(d.h, softmax(logits) * (1 - softmax(logits)),
                               atol=1e-12)
        _, g_term = trh_trades_full(tr, tr_adv, 2.0)
        assert isinstance(g_term, float)


class TestTrhAlp:
    def test_zero_penalty_equals_adversarial_ce_trace(self):
        net, x, x_adv, _ = sample_smooth_instance(110)
        tr, tr_adv = forward(net, x[0]), forward(net, x_adv[0])
        assert trh_alp(tr, tr_adv, 0.0) == pytest.approx(trh_at(tr_adv), rel=1e-12)

    def test_symmetric_two_class_point_oracle(self):
        # s == s' at a symmetric point: the pairing trace reduces to the
        # pure squared-Jacobian part and must still match the oracle
        net = MlpNetwork([DenseLayer(np.array([[1.0, 1.0], [0.5, 0.5]]))])
        x = np.array([[0.4, -0.2]])
        y = np.array([0])
        kind = RobustLossKind("alp", 0.7)
        _, grad_fn = frozen_objective_fns(net, x, x, y, kind)
        oracle = exact_trace(grad_fn, flatten_weights(net),
                             weight_indices(net, layer=net.depth - 1))
        tr = forward(net, x[0])
        assert trh_alp(tr, tr, 0.7) == pytest.approx(oracle, rel=1e-5)

    def test_oracle_match_random_net(self):
        for seed in (111, 112, 113):
            net, x, x_adv, y = sample_smooth_instance(seed)
            kind = RobustLossKind("alp", 0.5)
            _, grad_fn = frozen_objective_fns(net, x, x_adv, y, kind)
            oracle = exact_trace(grad_fn, flatten_weights(net),
                                 weight_indices(net, layer=net.depth - 1))
            analytic = trh_alp(forward(net, x[0]), forward(net, x_adv[0]), 0.5)
            assert analytic == pytest.approx(oracle, rel=1e-5)


class TestTrhMart:
    def test_binary_margin_trace_is_the_ce_trace(self):
        # at K = 2 the runner-up is the other class, so the margin term
        # -log(1 - s'_other) = -log(s'_y) is a second adversarial CE: with
        # clean == adversarial and no penalty the MART trace is twice the
        # CE trace, for either label
        x = np.array([2.0, 0.3])
        for scale in (0.2, 0.5, 2.0):
            net = MlpNetwork([DenseLayer(np.array([[1.0, -1.0], [0.0, 0.0]]) * scale)])
            tr = forward(net, x)
            ce = trh_trades(tr, tr, 0.0)
            for y in (0, 1):
                assert trh_mart(tr, tr, y, 0.0) == pytest.approx(
                    2 * ce, rel=1e-12, abs=0)

    def test_binary_symmetric_oracle(self):
        net = MlpNetwork([DenseLayer(np.array([[0.3, -0.3], [-0.1, 0.1]]))])
        x = np.array([[0.9, 0.4]])
        y = np.array([0])
        kind = RobustLossKind("mart", 5.0)
        _, grad_fn = frozen_objective_fns(net, x, x, y, kind)
        oracle = exact_trace(grad_fn, flatten_weights(net),
                             weight_indices(net, layer=net.depth - 1))
        analytic = trh_mart(forward(net, x[0]), forward(net, x[0]), 0, 5.0)
        assert analytic == pytest.approx(oracle, rel=1e-5)

    def test_oracle_match_three_class(self):
        hits = 0
        seed = 114
        while hits < 3:
            net, x, x_adv, y = sample_smooth_instance(seed)
            seed += 1
            if net.num_classes < 3:
                continue
            hits += 1
            kind = RobustLossKind("mart", 5.0)
            _, grad_fn = frozen_objective_fns(net, x, x_adv, y, kind)
            oracle = exact_trace(grad_fn, flatten_weights(net),
                                 weight_indices(net, layer=net.depth - 1))
            analytic = trh_mart(forward(net, x[0]), forward(net, x_adv[0]),
                                int(y[0]), 5.0)
            assert analytic == pytest.approx(oracle, rel=1e-5)


class TestObjectiveNodes:
    def test_lam_zero_gamma_zero_is_bare_robust_loss(self):
        net, x, x_adv, y = sample_smooth_instance(120)
        for kind in (RobustLossKind("at"), RobustLossKind("trades", 6.0),
                     RobustLossKind("alp", 0.5), RobustLossKind("mart", 5.0)):
            node = objective_nodes(lift(net), x, x_adv, y, kind, 0.0, 0.0)
            bare = float(np.mean(robust_loss_rows(net, x, x_adv, y, kind)))
            assert float(node.value) == pytest.approx(bare, rel=1e-14)

    def test_batched_trh_rows_match_per_example_formulas(self):
        rng = Rng(55)
        net = init_mlp([3, 6, 4], rng.child("i"))
        X = rng.child("x").normal(size=(8, 3))
        X_adv = X + 0.05 * rng.child("e").normal(size=(8, 3))
        y = rng.child("y").integers(0, 4, size=8)
        for kind in (RobustLossKind("at"), RobustLossKind("trades", 6.0),
                     RobustLossKind("alp", 0.5), RobustLossKind("mart", 5.0)):
            for sgc in ((True, False) if kind.variant == "trades" else (True,)):
                lam = 0.37
                node = objective_nodes(lift(net), X, X_adv, y, kind, lam, 0.0,
                                       stop_grad_clean=sgc)
                bare = robust_loss_rows(net, X, X_adv, y, kind)
                trh_rows = analytic_trh_rows(net, X, X_adv, y, kind,
                                             stop_grad_clean=sgc)
                expected = float(np.mean(bare + lam * trh_rows))
                assert float(node.value) == pytest.approx(expected, rel=1e-12), kind


# name: (loss kind, stop_grad_clean), every loss and both TRADES settings
OBJECTIVE_CASES = {
    "at": (RobustLossKind("at"), True),
    "trades": (RobustLossKind("trades", 6.0), True),
    "trades_live": (RobustLossKind("trades", 6.0), False),
    "alp": (RobustLossKind("alp", 0.5), True),
    "mart": (RobustLossKind("mart", 5.0), True),
}
LAM, GAMMA, FULL = 0.3, 0.01, 0.2


class TestWholeNetworkTerm:
    """``full_coeff`` adds the whole-network CE trace inside the objective,
    on the adversarial side's own tape forward and softmax."""

    @pytest.mark.parametrize("case", OBJECTIVE_CASES)
    def test_value_is_the_sum_of_its_terms(self, case):
        kind, sgc = OBJECTIVE_CASES[case]
        net, x, x_adv, y = sample_smooth_instance(127)
        lifted = lift(net, leaves=())

        def value(full):
            return float(objective_nodes(lifted, x, x_adv, y, kind, LAM, GAMMA,
                                         sgc, full_coeff=full))

        whole = float(tape.mean(whole_network_rows(lifted, x_adv)))
        assert value(FULL) == pytest.approx(value(0.0) + FULL * whole, rel=1e-15)

    @pytest.mark.parametrize("case", OBJECTIVE_CASES)
    def test_gradient_matches_finite_differences(self, case):
        kind, sgc = OBJECTIVE_CASES[case]
        net, x, x_adv, y = sample_smooth_instance(127)
        frozen = capture_frozen(net, x, x_adv, y, kind)

        def objective(lifted):
            return objective_nodes(lifted, x, x_adv, y, kind, LAM, GAMMA, sgc,
                                   frozen, full_coeff=FULL)

        _, grad = gradient_vector(net, objective)
        fd = finite_diff_gradient(rowwise(lambda w: float(objective(
            lift(unflatten_weights(net, w), leaves=())))),
            flatten_weights(net))
        assert np.linalg.norm(grad - fd) <= 1e-6 * np.linalg.norm(fd)

    @pytest.mark.parametrize("full", [0.0, FULL])
    @pytest.mark.parametrize("case", OBJECTIVE_CASES)
    def test_one_forward_per_side(self, monkeypatch, case, full):
        kind, sgc = OBJECTIVE_CASES[case]
        net, x, x_adv, y = sample_smooth_instance(127)
        calls = dict.fromkeys(("forward_nodes", "log_softmax", "_margin"), 0)

        def counted(name, fn):
            def call(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return call

        forward_nodes = counted("forward_nodes", network.forward_nodes)
        for module in (network, trh, layer_traces):
            monkeypatch.setattr(module, "forward_nodes", forward_nodes)
        monkeypatch.setattr(tape, "log_softmax", counted("log_softmax", tape.log_softmax))
        monkeypatch.setattr(trh, "_margin", counted("_margin", trh._margin))
        gradient_vector(net, lambda lifted: objective_nodes(
            lifted, x, x_adv, y, kind, LAM, GAMMA, sgc, full_coeff=full))
        sides, mart = (1 if kind.variant == "at" else 2), int(kind.variant == "mart")
        assert calls == {"forward_nodes": sides, "log_softmax": sides + mart,
                         "_margin": mart}


class TestTrainingObjective:
    def test_zero_weights_null_attack_gives_log_k(self):
        net = init_mlp([3, 5, 4], Rng(0).child("i"))
        for layer in net.layers:
            layer.weights[:] = 0.0
        ds_x = Rng(0).child("x").normal(size=(6, 3))
        y = Rng(0).child("y").integers(0, 4, size=6)
        # the trainer's step: a zero-radius attack, then the objective's
        # flat gradient
        x_adv = pgd(net, ds_x, y, AttackConfig(delta=0.0, steps=1),
                    Rng(1).child("a"))
        value, _ = gradient_vector(net, lambda lifted: objective_nodes(
            lifted, ds_x, x_adv, y, RobustLossKind("at"), 0.0, 0.5))
        assert value == pytest.approx(np.log(4), rel=1e-12)

    def test_gradients_match_finite_differences(self):
        from trhreg.numerics import finite_diff_gradient
        net, x, x_adv, y = sample_smooth_instance(121)
        kind = RobustLossKind("trades", 6.0)
        value_fn, grad_fn = frozen_objective_fns(net, x, x_adv, y, kind,
                                                 lam=0.3, gamma=0.01)
        w0 = flatten_weights(net)
        fd = finite_diff_gradient(value_fn, w0)
        an = grad_fn(w0)
        assert np.linalg.norm(an - fd) / np.linalg.norm(fd) <= 1e-6


def _batch(k, m=7, seed=300):
    rng = Rng(seed).child(k)
    net = init_mlp([4, 6, k], rng.child("i"))
    X = rng.child("x").normal(size=(m, 4))
    X_adv = X + 0.1 * rng.child("e").normal(size=(m, 4))
    y = rng.child("y").integers(0, k, size=m)
    return net, X, X_adv, y


class TestBatchedWrappers:
    @pytest.mark.parametrize("k", [2, 3, 10])
    def test_batch_equals_per_row_calls(self, k):
        net, X, X_adv, y = _batch(k)
        tr, tr_adv = forward(net, X), forward(net, X_adv)
        rows = [(forward(net, X[i]), forward(net, X_adv[i])) for i in range(len(y))]
        calls = {
            "at": (lambda a, b, yy: trh_at(b)),
            "trades": (lambda a, b, yy: trh_trades(a, b, 6.0)),
            "trades_full": (lambda a, b, yy: trh_trades_full(a, b, 6.0)[0]),
            "alp": (lambda a, b, yy: trh_alp(a, b, 0.5)),
            "mart": (lambda a, b, yy: trh_mart(a, b, yy, 5.0)),
        }
        for name, call in calls.items():
            batched = call(tr, tr_adv, y)
            assert batched.shape == (len(y),), name
            for i, (a, b) in enumerate(rows):
                single = call(a, b, int(y[i]))
                assert isinstance(single, float), name
                assert batched[i] == pytest.approx(single, rel=1e-12, abs=1e-15), name

    def test_trades_full_terms_batch_equal_per_row(self):
        net, X, X_adv, _ = _batch(3)
        _, g_term = trh_trades_full(forward(net, X), forward(net, X_adv), 2.0)
        assert g_term.shape == (len(X),)
        for i in range(len(X)):
            _, one = trh_trades_full(forward(net, X[i]), forward(net, X_adv[i]), 2.0)
            assert g_term[i] == pytest.approx(one, rel=1e-12, abs=1e-15)

    def test_analytic_rows_equal_wrapper_on_batch(self):
        net, X, X_adv, y = _batch(3)
        rows = analytic_trh_rows(net, X, X_adv, y, RobustLossKind("mart", 5.0))
        direct = trh_mart(forward(net, X), forward(net, X_adv), y, 5.0)
        assert np.array_equal(rows, direct)

    def test_constant_evaluation_records_no_graph(self):
        net, X, X_adv, y = _batch(3)
        from trhreg.trh import _constant_side, top_trace_rows
        clean = _constant_side(forward(net, X))
        adv = _constant_side(forward(net, X_adv))
        for kind in (RobustLossKind("at"), RobustLossKind("trades", 6.0),
                     RobustLossKind("alp", 0.5), RobustLossKind("mart", 5.0)):
            for sgc in (True, False):
                assert type(top_trace_rows(clean, adv, y, kind, sgc)) is np.ndarray


class TestRobustLossRowsReference:
    @pytest.mark.parametrize("k", [2, 3, 10])
    def test_batched_rows_equal_per_row_reference(self, k):
        net, X, X_adv, y = _batch(k, seed=310)
        for kind in (RobustLossKind("at"), RobustLossKind("trades", 6.0),
                     RobustLossKind("alp", 0.5), RobustLossKind("mart", 5.0)):
            rows = robust_loss_rows(net, X, X_adv, y, kind)
            for i in range(len(y)):
                tr, tr_adv = forward(net, X[i]), forward(net, X_adv[i])
                s, s_adv = softmax(tr.logits), softmax(tr_adv.logits)
                yi = int(y[i])
                if kind.variant == "at":
                    ref = cross_entropy(tr_adv.logits, yi)
                elif kind.variant == "trades":
                    ref = cross_entropy(tr.logits, yi) + 6.0 * kl_div(s, s_adv)
                elif kind.variant == "alp":
                    ref = cross_entropy(tr_adv.logits, yi) + 0.5 * alp_pair_loss(s, s_adv)
                else:
                    terms = mart_losses(tr, tr_adv, yi)
                    ref = terms.bce + 5.0 * terms.wkl
                assert rows[i] == pytest.approx(ref, rel=1e-12), (kind, i)


class TestMartSaturatedRunnerUp:
    """The adversarial point gives the runner-up class a logit 60 above the
    label: 1 - s'_kappa is about e^-60, which rounds to 0 when computed as a
    difference.  At K = 2, -log(1 - s'_kappa) is the adversarial cross
    entropy of the label, so loss and trace have closed forms."""

    NET = MlpNetwork([DenseLayer(np.array([[30.0, -30.0], [0.5, -0.5]]))])
    X = np.array([[0.01, 0.4]])
    X_ADV = np.array([[-1.0, 0.0]])  # logits (-30, 30)
    Y = np.array([0])

    def closed_forms(self, penalty):
        tr, tr_adv = forward(self.NET, self.X[0]), forward(self.NET, self.X_ADV[0])
        s = softmax(tr.logits)
        gap = tr_adv.logits[1] - tr_adv.logits[0]
        h_adv = 2.0 * np.exp(-gap) / (1.0 + np.exp(-gap)) ** 2  # 1^T h'
        r2, r2_adv = float(tr.features @ tr.features), float(tr_adv.features @ tr_adv.features)
        trace = r2 * 2.0 * s[0] * s[1] + r2_adv * h_adv * (1.0 + penalty * (1.0 - s[0]))
        s_adv_log = tr_adv.logits - np.logaddexp(*tr_adv.logits)
        kl = float(np.sum(s * (np.log(s) - s_adv_log)))
        loss = (-np.log(s[0]) + np.logaddexp(0.0, gap)
                + penalty * (1.0 - s[0]) * kl)
        return loss, trace

    def test_trace_finite_and_matches_binary_limit(self):
        _, expected = self.closed_forms(5.0)
        tr, tr_adv = forward(self.NET, self.X[0]), forward(self.NET, self.X_ADV[0])
        value = trh_mart(tr, tr_adv, 0, 5.0)
        assert np.isfinite(value)
        assert value == pytest.approx(expected, rel=1e-9)

    def test_objective_finite_and_matches_binary_limit(self):
        loss, trace = self.closed_forms(5.0)
        kind = RobustLossKind("mart", 5.0)
        node = objective_nodes(lift(self.NET), self.X, self.X_ADV, self.Y, kind,
                               0.5, 0.0)
        assert np.isfinite(float(node.value))
        assert float(node.value) == pytest.approx(loss + 0.5 * trace, rel=1e-12)
        rows = robust_loss_rows(self.NET, self.X, self.X_ADV, self.Y, kind)
        assert rows[0] == pytest.approx(loss, rel=1e-12)


class TestMartBinaryIdentity:
    """At K = 2 the runner-up class is the other class, so the margin trace
    is the adversarial CE trace and, with no weighted-KL term, the MART
    trace is the clean plus the adversarial CE trace."""

    @pytest.mark.parametrize("seed", range(5))
    def test_random_nets(self, seed):
        net = init_mlp([3, 5, 2], Rng(seed).child("net"))
        rng = Rng(seed).child("x")
        x = rng.normal(size=3)
        x_adv = x + 0.1 * rng.normal(size=3)
        tc, ta = forward(net, x), forward(net, x_adv)
        for y in (0, 1):
            assert trh_mart(tc, ta, y, 0.0) == pytest.approx(
                trh_at(tc) + trh_at(ta), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("y", [0, 1])
    def test_saturated_logits(self, y):
        # logits (16, -16): every 1 - p_k is summed over the other classes,
        # so 1^T h does not cancel and the identity holds for either label
        net = MlpNetwork([DenseLayer(np.array([[8.0, -8.0], [0.0, 0.0]]))])
        tr = forward(net, np.array([2.0, 0.3]))  # logits (16, -16)
        assert trh_mart(tr, tr, y, 0.0) == pytest.approx(
            2.0 * trh_at(tr), rel=1e-12, abs=0.0)
