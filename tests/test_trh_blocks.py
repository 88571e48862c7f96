"""The logit-space pieces of the closed-form top-layer traces, each against
a route that shares no code with it.

* The three softmax primitives and MART's ``log(1 - s'_kappa)`` against a
  stdlib-``decimal`` evaluation of their definitions, from moderate logits
  to gaps where float64 ``1 - sum(s^2)`` has no digit left.
* The per-variant block traces ``(tr A, tr B, tr C)`` against float64
  central second differences of the per-example reference losses, in
  logit space: no network, so no ReLU kink.
"""

from decimal import Decimal, localcontext
from types import SimpleNamespace

import numpy as np
import pytest

from loss_references import (alp_pair_loss, cross_entropy, kl_div,
                             mart_losses)
from trhreg import tape
from trhreg.config import RobustLossKind
from trhreg.tape import softmax
from trhreg.trh import (_block_traces, _margin, _others, _side, _sq_frob_phi,
                        _tr_hess, _tr_phi)

GAPS = (0, 16, 32, 87, 400, 1000)

# Tolerance of the saturation check, from float64's own limits.  A
# probability is the exp of a log-probability of size up to the gap, whose
# rounding (gap * 1.1e-16 / 2) becomes its relative error: at most 4.2e-14
# below gap 745, where a trailing probability underflows.  A primitive adds
# the few ulps of a K-term sum of products, hence 1e-13.  A true value below
# float64's normal range (every primitive at gap 1000, the squared Frobenius
# norm from gap 400) must come out within the smallest normal number of it,
# that is as 0.
RTOL = 1e-13
ATOL = np.finfo(np.float64).tiny


def saturated_logits(gap, k):
    """Class 0 leads class 1 by `gap`; the rest trail class 1 in steps."""
    return np.array([float(gap)] + [-0.25 * j for j in range(k - 1)])


def decimal_reference(logits, r, kappa):
    """``(tr Phi, ||Phi||_F^2, tr sum_k r_k grad^2 p_k, log(1 - p_kappa))``
    from their definitions, ``Phi[i, k] = dp_k / dg_i = p_k (delta_ik -
    p_i)``, in decimal with 80 + gap / 2.3 digits (the gap's
    ``e^-gap`` needs gap / 2.3 of them)."""
    gap = max(logits) - sorted(logits)[-2]
    with localcontext() as ctx:
        ctx.prec = 80 + int(gap / 2.3)
        top = max(logits)
        e = [(Decimal(g) - Decimal(top)).exp() for g in logits]
        total = sum(e)
        p = [x / total for x in e]
        k = len(p)
        delta = [[Decimal(int(i == j)) for j in range(k)] for i in range(k)]
        phi = [[p[j] * (delta[i][j] - p[i]) for j in range(k)] for i in range(k)]
        tr_phi = sum(phi[i][i] for i in range(k))
        sq_frob = sum(x * x for row in phi for x in row)
        # d^2 p_k / dg_i^2 = p_k ((delta_ik - p_i)^2 - p_i (1 - p_i))
        tr_hess = sum(Decimal(r[j]) * p[j] * sum(
            (delta[i][j] - p[i]) ** 2 - p[i] * (1 - p[i]) for i in range(k))
            for j in range(k))
        log_rest = (1 - p[kappa]).ln()
        return tuple(float(v) for v in (tr_phi, sq_frob, tr_hess, log_rest))


def float_primitives(logits, r, kappa, y):
    """The same four values from the tape forms, on float64 constants."""
    side = _side(tape.constant(np.ones((1, 1))), tape.constant(logits[None]))
    p = side.s
    o, sq_o = _others(p), _others(p * p)
    log_rest = _margin(side, np.array([kappa]), np.array([y]))[0]
    return tuple(float(rows[0]) for rows in (
        _tr_phi(p, o), _sq_frob_phi(p, o, sq_o),
        _tr_hess(tape.constant(r[None]), p, o, sq_o), log_rest))


class TestSaturatedPrimitives:
    @pytest.mark.parametrize("k", [2, 10])
    @pytest.mark.parametrize("gap", GAPS)
    def test_primitives_match_decimal(self, gap, k):
        logits = saturated_logits(gap, k)
        # r_k = k: a weight of 0 on the leading class, so the weighted sum
        # of second derivatives does not cancel to leading order
        r = np.arange(k, dtype=np.float64)
        # kappa, the runner-up of MART's margin term, is the leading class:
        # the regime in which 1 - s'_kappa underflows as a difference
        truth = decimal_reference(list(logits), list(r), kappa=0)
        got = float_primitives(logits, r, kappa=0, y=1)
        names = ("tr_phi", "sq_frob_phi", "tr_hess", "log(1 - s'_kappa)")
        for name, value, ref in zip(names, got, truth):
            assert np.isfinite(value), name
            assert abs(value - ref) <= RTOL * abs(ref) + ATOL, (name, value, ref)

    def test_underflowing_traces_are_zero(self):
        # gap 1000: the true traces are about e^-1000, far below float64
        tr, sq, hess, _ = float_primitives(
            saturated_logits(1000, 10), np.arange(10.0), kappa=0, y=1)
        assert (tr, sq, hess) == (0.0, 0.0, 0.0)


# -- block traces against logit-space finite differences -----------------

H = 3e-4  # the second-difference step in logit space
VARIANTS = {  # name: (loss kind, stop_grad_clean)
    "at": (RobustLossKind("at"), True),
    "trades": (RobustLossKind("trades", 6.0), True),
    "trades_full": (RobustLossKind("trades", 6.0), False),
    "alp": (RobustLossKind("alp", 0.5), True),
    "mart": (RobustLossKind("mart", 5.0), True),
}


def reference_loss(name, g, g_adv, y, s_frozen):
    """The per-example loss of variant `name` at clean logits `g` and
    adversarial logits `g_adv`.  The stop-gradient parts (clean side of the
    KL, of the pairing and of MART's weighted KL, and its weight) are the
    constants `s_frozen`, the clean softmax at the expansion point."""
    kind = VARIANTS[name][0]
    s_adv = softmax(g_adv)
    if name == "at":
        return cross_entropy(g_adv, y)
    if name == "trades":
        return cross_entropy(g, y) + kind.penalty * kl_div(s_frozen, s_adv)
    if name == "trades_full":
        return cross_entropy(g, y) + kind.penalty * kl_div(softmax(g), s_adv)
    if name == "alp":
        return cross_entropy(g_adv, y) + kind.penalty * alp_pair_loss(s_frozen, s_adv)
    bce = mart_losses(SimpleNamespace(logits=g), SimpleNamespace(logits=g_adv), y).bce
    return bce + kind.penalty * (1.0 - s_frozen[y]) * kl_div(s_frozen, s_adv)


def fd_block_traces(loss, g, g_adv):
    """``(tr A, tr B, tr C)`` of ``loss(g, g_adv)`` by central second
    differences along each logit pair."""
    f0 = loss(g, g_adv)
    tr_a = tr_b = tr_c = 0.0
    for i in range(len(g)):
        e = np.zeros(len(g))
        e[i] = H
        tr_a += (loss(g + e, g_adv) - 2.0 * f0 + loss(g - e, g_adv)) / H ** 2
        tr_c += (loss(g, g_adv + e) - 2.0 * f0 + loss(g, g_adv - e)) / H ** 2
        tr_b += (loss(g + e, g_adv + e) - loss(g + e, g_adv - e)
                 - loss(g - e, g_adv + e) + loss(g - e, g_adv - e)) / (4.0 * H ** 2)
    return tr_a, tr_b, tr_c


class TestBlocksAgainstLogitFD:
    @pytest.mark.parametrize("k", [2, 3, 10])
    @pytest.mark.parametrize("name", list(VARIANTS))
    def test_block_traces(self, name, k):
        kind, sgc = VARIANTS[name]
        rng = np.random.default_rng([k, list(VARIANTS).index(name)])
        for _ in range(3):
            g = rng.normal(scale=1.5, size=k)
            g_adv = g + rng.normal(scale=0.7, size=k)
            y = int(rng.integers(k))
            blocks = _block_traces(
                _side(tape.constant(np.ones((1, 1))), tape.constant(g[None])),
                _side(tape.constant(np.ones((1, 1))), tape.constant(g_adv[None])),
                np.array([y]), kind, sgc)
            closed = [0.0 if b is None else float(b[0]) for b in blocks]
            s_frozen = softmax(g)
            fd = fd_block_traces(
                lambda a, b: reference_loss(name, a, b, y, s_frozen), g, g_adv)
            for block, c, f in zip("ABC", closed, fd):
                assert c == pytest.approx(f, rel=1e-5, abs=1e-6), (block, c, f)
