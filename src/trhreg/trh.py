"""Closed-form top-layer Hessian traces and the regularized training objective.

For a network ``g = W_top^T z`` with penultimate feature ``z``, the trace of
the Hessian of the robust loss over the entries of ``W_top`` has an exact
expression built from softmax derivatives.  The base cases:

* adversarial cross entropy:              ``||z'||^2 * 1^T h'``
* clean/adversarial KL, clean side frozen: ``||z'||^2 * 1^T h'``
  (for any constant left argument), so the TRADES trace is the weighted sum
  of clean and adversarial cross-entropy shapes.

When the clean logits are *not* frozen inside the KL term there is an extra
contribution ``G``; the expression implemented here was re-derived from the
identity ``d Phi[i,k]/d g[k] = Phi[i,k] (1 - 2 s[k])`` and validated against
the finite-difference oracle (see tests), which is the acceptance authority
for every formula in this module.  The same applies to the pairing trace of
the logit-pairing loss and to the margin trace of the margin-boosted loss,
whose textbook write-ups are easy to get wrong in the cross terms.

The weighted-KL trace keeps its ``(1 - s_y)`` factor: the weight is a
constant under the frozen-clean convention, but a constant factor still
scales the trace.  The margin terms use ``1 - s'_kappa`` as the sum of the
other classes' probabilities, which stays accurate (and its log finite)
when the runner-up class takes almost all the mass.

Adversarial inputs are always treated as constants when differentiating
(the inner maximizer is held fixed at the current weights).

Which function computes what: :func:`top_trace_rows` is the one body of
the closed forms (per-example traces of all four losses, as tape nodes of
the clean and adversarial features and logits) and ``_loss_rows`` the one
body of the per-example robust loss.  :func:`objective_nodes` combines both
(plus the weight decay) into the objective.  On lifted weights it is the
objective for gradients; on constant weights it is the objective's value
and keeps no graph, so values and gradients share one forward route.
:func:`capture_frozen` and :func:`robust_loss_rows` take their sides from
the same tape forward on constants.  ``trh_at``, ``trh_trades``,
``trh_trades_full``, ``trh_alp`` and ``trh_mart`` evaluate
:func:`top_trace_rows` on constants from :class:`ForwardTrace` inputs, for
one example (1-d traces, float result) or a batch (``(m,)`` result);
:func:`analytic_trh_rows` runs the numpy forward pair and calls the one
that matches the loss kind once per batch.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import tape
from .config import TrHConfig  # noqa: F401  (re-exported)
from .losses import RobustLossKind
from .network import ForwardTrace, MlpNetwork, forward, forward_nodes, lift


class _Side(NamedTuple):
    """One side (clean or adversarial) of a batch on the tape."""

    z: tape.Node     # penultimate features, (m, d)
    logs: tape.Node  # log-softmax of the logits, (m, K)
    s: tape.Node     # softmax, (m, K)


def _side(features: tape.Node, logits: tape.Node) -> _Side:
    logs = tape.log_softmax(logits)
    return _Side(features, logs, tape.exp(logs))


def _constant_side(trace: ForwardTrace | None) -> _Side | None:
    if trace is None:
        return None
    return _side(tape.constant(np.atleast_2d(trace.features)),
                 tape.constant(np.atleast_2d(trace.logits)))


def _sides(lifted, X, X_adv, kind: RobustLossKind):
    """``(clean, adversarial)`` sides from tape forward passes of the lifted
    parameters, leaves or constants; clean is None for at."""
    def side(inputs):
        layer_inputs, preacts = forward_nodes(lifted, inputs)
        return _side(layer_inputs[-1], preacts[-1])
    adv = side(X_adv)
    return (None if kind.variant == "at" else side(X)), adv


def _one_hot(idx: np.ndarray, k: int) -> np.ndarray:
    out = np.zeros((len(idx), k))
    out[np.arange(len(idx)), idx] = 1.0
    return out


def _runner_up(s_adv: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Most-confusable wrong class per row (lowest index wins ties)."""
    masked = s_adv.copy()
    masked[np.arange(len(y)), y] = -np.inf
    return np.argmax(masked, axis=1)


def _sq_norm_and_hsum(side: _Side):
    """Per-row ``||z||^2`` and ``1^T h``."""
    return tape.row_sum(side.z * side.z), 1.0 - tape.row_sum(side.s * side.s)


def _trades_g_rows(clean: _Side, adv: _Side, r2, hsum) -> tape.Node:
    """Extra TRADES trace when the clean logits stay live inside the KL:

        G = ||z||^2 ( sum_k s_k (1 - 2 s_k) (psi_k - psi'_k) + 1^T h )
            - 2 (z . z') 1^T h

    where the ``s (1 - 2 s)`` weight (not h) comes from the corrected
    Jacobian-of-Jacobian identity pinned by
    ``tests/test_losses.py::TestSoftmaxDerivs::test_second_derivative_identity``.
    """
    z, logs, s = clean
    logdiff = logs - adv.logs
    klr = tape.row_sum(s * logdiff, keepdims=True)
    psidiff = logdiff - klr
    lead = tape.row_sum(s * (1.0 - 2.0 * s) * psidiff)
    dot_zzp = tape.row_sum(z * adv.z)
    return r2 * (lead + hsum) - dot_zzp * (2.0 * hsum)


def top_trace_rows(clean: _Side | None, adv: _Side, y, kind: RobustLossKind,
                   stop_grad_clean: bool = True, kappa=None) -> tape.Node:
    """Per-example closed-form top-layer traces, shape (m,).

    * at: ``||z'||^2 1^T h'``.
    * trades: clean-CE trace plus ``penalty`` times the adversarial one,
      plus ``penalty * G`` when ``stop_grad_clean`` is False.
    * alp: adversarial-CE trace plus ``penalty`` times the pairing trace
      ``2 ||z'||^2 sum_k (||Phi'_col_k||^2 - (1 - 2 s'_k) (s - s')^T Phi'_col_k)``.
    * mart: clean-CE trace, plus the margin-term trace on the runner-up
      class ``kappa`` of the adversarial point (computed from ``adv`` when
      None), plus ``penalty`` times the weighted-KL trace.

    ``clean`` is unused (and may be None) for at; ``y`` is used by mart only.
    """
    r2_adv, hsum_adv = _sq_norm_and_hsum(adv)
    s_adv = adv.s
    if kind.variant == "at":
        return r2_adv * hsum_adv
    s = clean.s
    if kind.variant == "trades":
        r2, hsum = _sq_norm_and_hsum(clean)
        rows = r2 * hsum + kind.penalty * (r2_adv * hsum_adv)
        if not stop_grad_clean:
            rows = rows + kind.penalty * _trades_g_rows(clean, adv, r2, hsum)
        return rows
    if kind.variant == "alp":
        sq_adv = s_adv * s_adv
        s2_adv = tape.row_sum(sq_adv, keepdims=True)
        col_norms = tape.row_sum(sq_adv * (1.0 - 2.0 * s_adv)) + \
            tape.row_sum(sq_adv * s2_adv)
        c = tape.row_sum(s * s_adv, keepdims=True) - s2_adv
        cross = tape.row_sum((1.0 - 2.0 * s_adv) * s_adv * ((s - s_adv) - c))
        return r2_adv * hsum_adv + kind.penalty * (2.0 * r2_adv * (col_norms - cross))
    if kind.variant == "mart":
        y = np.atleast_1d(np.asarray(y, dtype=np.int64))
        k = s_adv.shape[-1]
        E = _one_hot(_runner_up(s_adv.value, y) if kappa is None else kappa, k)
        r2, hsum = _sq_norm_and_hsum(clean)
        u = tape.row_sum(s_adv * tape.constant(E), keepdims=True)  # s'_kappa
        other = s_adv * tape.constant(1.0 - E)
        rest = tape.row_sum(other, keepdims=True)  # 1 - s'_kappa
        ratio = u * (tape.constant(E) - other / rest)  # Phi'[kappa, :] / rest
        margin_tr = tape.row_sum(ratio * (1.0 - 2.0 * s_adv) + ratio * ratio)
        s_y = tape.row_sum(s * tape.constant(_one_hot(y, k)))
        return r2 * hsum + r2_adv * margin_tr \
            + kind.penalty * ((1.0 - s_y) * (r2_adv * hsum_adv))
    raise ValueError(f"unknown loss variant {kind.variant!r}")


# -- the closed forms on constants ---------------------------------------


def _on_constants(trace_clean, trace_adv, y, kind: RobustLossKind,
                  stop_grad_clean: bool = True):
    """:func:`top_trace_rows` on constants: a float for 1-d traces."""
    rows = top_trace_rows(_constant_side(trace_clean), _constant_side(trace_adv),
                          y, kind, stop_grad_clean).value
    return float(rows[0]) if np.ndim(trace_adv.logits) == 1 else rows


def trh_at(trace_adv: ForwardTrace):
    """Top-layer trace of the adversarial cross-entropy loss."""
    return _on_constants(None, trace_adv, None, RobustLossKind("at"))


def trh_trades(trace_clean: ForwardTrace, trace_adv: ForwardTrace,
               lambda_t: float):
    """Top-layer TRADES trace with the clean logits frozen inside the KL."""
    return _on_constants(trace_clean, trace_adv, None,
                         RobustLossKind("trades", lambda_t))


def trh_trades_full(trace_clean: ForwardTrace, trace_adv: ForwardTrace,
                    lambda_t: float):
    """Top-layer TRADES trace with gradient kept on the clean logits.

    Returns ``(value, G)``, G the extra trace from differentiating through
    the clean logits (see :func:`_trades_g_rows`); both are floats for 1-d
    traces and ``(m,)`` arrays for a batch.
    """
    kind = RobustLossKind("trades", lambda_t)
    value = _on_constants(trace_clean, trace_adv, None, kind, stop_grad_clean=False)
    clean, adv = _constant_side(trace_clean), _constant_side(trace_adv)
    g_term = _trades_g_rows(clean, adv, *_sq_norm_and_hsum(clean)).value
    if np.ndim(trace_adv.logits) == 1:
        g_term = float(g_term[0])
    return value, g_term


def trh_alp(trace_clean: ForwardTrace, trace_adv: ForwardTrace,
            lambda_a: float):
    """Top-layer trace of the logit-pairing loss (clean side frozen)."""
    return _on_constants(trace_clean, trace_adv, None,
                         RobustLossKind("alp", lambda_a))


def trh_mart(trace_clean: ForwardTrace, trace_adv: ForwardTrace, y,
             lambda_m: float):
    """Top-layer trace of the margin-boosted robust loss (label y)."""
    return _on_constants(trace_clean, trace_adv, y,
                         RobustLossKind("mart", lambda_m))


def analytic_trh_rows(net: MlpNetwork, X, X_adv, y, kind: RobustLossKind,
                      stop_grad_clean: bool = True) -> np.ndarray:
    """Per-example closed-form top-layer traces, plain numpy: the numpy
    forward pair of the batch, then one call of the loss kind's closed form
    on the whole batch."""
    trace_adv = forward(net, np.atleast_2d(X_adv))
    if kind.variant == "at":
        return trh_at(trace_adv)
    trace_clean = forward(net, np.atleast_2d(X))
    if kind.variant == "trades":
        if stop_grad_clean:
            return trh_trades(trace_clean, trace_adv, kind.penalty)
        return trh_trades_full(trace_clean, trace_adv, kind.penalty)[0]
    if kind.variant == "alp":
        return trh_alp(trace_clean, trace_adv, kind.penalty)
    if kind.variant == "mart":
        return trh_mart(trace_clean, trace_adv, y, kind.penalty)
    raise ValueError(f"unknown loss variant {kind.variant!r}")


# -- the robust loss and the batched objective on the tape ----------------


def _frozen(clean: _Side | None, adv: _Side, y: np.ndarray,
            kind: RobustLossKind) -> dict:
    """Stop-gradient constants, read off the sides' current values."""
    if clean is None:
        return {}
    s_clean = clean.s.value
    frozen = {"s_clean": s_clean, "log_s_clean": clean.logs.value}
    if kind.variant == "mart":
        frozen["kappa_star"] = _runner_up(adv.s.value, y)
        frozen["wkl_weight"] = 1.0 - s_clean[np.arange(len(y)), y]
    return frozen


def capture_frozen(net: MlpNetwork, X: np.ndarray, X_adv: np.ndarray,
                   y: np.ndarray, kind: RobustLossKind) -> dict:
    """Constants a stop-gradient objective holds fixed, captured at `net`.

    The returned dict parameterizes :func:`objective_nodes` so the same
    expression can be (a) trained, with constants refreshed every step, and
    (b) finite-differenced, with constants pinned at the reference weights.
    """
    if kind.variant == "at":
        return {}  # the adversarial CE holds nothing fixed: no forward pass
    clean, adv = _sides(lift(net, wrap=tape.constant), X, X_adv, kind)
    return _frozen(clean, adv, np.asarray(y, dtype=np.int64), kind)


def _loss_rows(clean: _Side | None, adv: _Side, y: np.ndarray,
               kind: RobustLossKind, stop_grad_clean: bool,
               frozen: dict) -> tape.Node:
    """Per-example robust loss, shape (m,).

    The stop-gradient choices (clean side of KL / pairing / weighted-KL held
    constant) read their constants from `frozen`.
    """
    logs_adv, s_adv = adv.logs, adv.s
    k = s_adv.shape[-1]
    Y = tape.constant(_one_hot(y, k))
    if kind.variant == "at":
        return -tape.row_sum(logs_adv * Y)
    if kind.variant == "alp":
        diff = tape.constant(frozen["s_clean"]) - s_adv
        return -tape.row_sum(logs_adv * Y) + kind.penalty * tape.row_sum(diff * diff)
    _, logs, s = clean
    ce_clean = -tape.row_sum(logs * Y)
    if kind.variant == "trades" and not stop_grad_clean:
        return ce_clean + kind.penalty * tape.row_sum(s * (logs - logs_adv))
    kl_rows = tape.row_sum(tape.constant(frozen["s_clean"]) *
                           (tape.constant(frozen["log_s_clean"]) - logs_adv))
    if kind.variant == "trades":
        return ce_clean + kind.penalty * kl_rows
    if kind.variant == "mart":
        # -log(1 - s'_kappa), with 1 - s'_kappa summed over the other classes
        not_kappa = tape.constant(1.0 - _one_hot(frozen["kappa_star"], k))
        margin = -tape.log(tape.row_sum(s_adv * not_kappa))
        return ce_clean + margin + kind.penalty * (
            tape.constant(frozen["wkl_weight"]) * kl_rows)
    raise ValueError(f"unknown loss variant {kind.variant!r}")


def objective_nodes(lifted, X, X_adv, y, kind: RobustLossKind,
                    lam: float, gamma: float, stop_grad_clean: bool = True,
                    frozen: dict | None = None) -> tape.Node:
    """Scalar tape node: mean robust loss + lam * mean trace + gamma ||theta||^2.

    One value per copy, shape ``(P,)``, on a stacked network (mean and norm
    taken per copy).  On leaves it is the training objective; on constants
    (``lift(net, wrap=tape.constant)``) it is the objective's value, with
    no graph kept.

    Freezing convention: the *loss* terms honor the stop-gradient choices
    (clean side of KL / pairing / weighted-KL held constant), while the
    closed-form trace terms are differentiated as ordinary expressions.
    When ``frozen`` is None the constants are captured from the current
    parameter values, which leaves the value unchanged and realizes the
    stop-gradient semantics exactly.
    """
    y = np.atleast_1d(np.asarray(y, dtype=np.int64))
    clean, adv = _sides(lifted, X, X_adv, kind)
    if frozen is None:
        frozen = _frozen(clean, adv, y, kind)
    rows = _loss_rows(clean, adv, y, kind, stop_grad_clean, frozen)
    if lam > 0:
        rows = rows + lam * top_trace_rows(clean, adv, y, kind, stop_grad_clean,
                                           frozen.get("kappa_star"))
    out = tape.mean(rows, axis=-1)
    if gamma != 0.0:
        axes = (1, 2) if lifted[0][0].value.ndim == 3 else None  # per copy
        out = out + gamma * sum(tape.nsum(w * w, axes) if b is None else
                                tape.nsum(w * w, axes) + tape.nsum(b * b, axes)
                                for w, b in lifted)
    return out


def robust_loss_rows(net: MlpNetwork, X, X_adv, y,
                     kind: RobustLossKind) -> np.ndarray:
    """Per-example robust loss values (no regularizer): the objective's loss
    rows evaluated on constants."""
    y = np.atleast_1d(np.asarray(y, dtype=np.int64))
    clean, adv = _sides(lift(net, wrap=tape.constant), X, X_adv, kind)
    return _loss_rows(clean, adv, y, kind, True,
                      _frozen(clean, adv, y, kind)).value
