"""Closed-form top-layer Hessian traces and the regularized training objective.

For a network ``g = W_top^T z`` with penultimate feature ``z``, the logits
are linear in ``W_top``, so the trace of a robust loss's Hessian over the
entries of ``W_top`` is one contraction (the Gauss-Newton split)::

    ||z||^2 tr A + 2 (z . z') tr B + ||z'||^2 tr C

with A, B and C the clean-clean, clean-adversarial and
adversarial-adversarial blocks of the loss's Hessian over the logits.  Their
traces are sums of three primitives of a softmax ``p`` with Jacobian
``Phi(p)``: ``tr Phi(p)``, ``||Phi(p)||_F^2`` and ``tr sum_k r_k grad^2
p_k``.  Each writes ``1 - p_k`` as the sum of the other classes'
probabilities, so none cancels as ``p`` saturates.  With ``s`` and ``s'``
the clean and adversarial softmax and ``beta`` the penalty, the blocks are:

* at: ``C = Phi(s')``;
* trades: ``A = Phi(s)``, ``C = beta Phi(s')``; live clean logits add G:
  ``beta (Phi(s) + sum_k (log s_k - log s'_k) grad^2 s_k)`` to A and
  ``B = -beta Phi(s)``;
* alp: ``C = Phi(s') + 2 beta (Phi(s')^2 + sum_k (s'_k - s_k) grad^2 s'_k)``;
* mart: ``A = Phi(s)``, ``C = (1 + beta (1 - s_y)) Phi(s') - Phi(q)``, q
  the softmax over the classes other than the runner-up ``kappa``; one
  masked log-softmax gives q and the margin loss's ``log(1 - s'_kappa)``.

Adversarial inputs are constants when differentiating.  The finite-difference
oracle (tests, ``verify``) is the acceptance authority for every formula.

:func:`top_trace_rows` and ``_loss_rows`` are the one body of the traces
and of the per-example loss, on tape nodes of the clean and adversarial
sides.  :func:`objective_nodes`, the one training objective, adds the
weight decay and the whole-network trace, on lifted weights for gradients
and on constant weights for values.  The wrappers ``trh_at`` ...
``trh_mart`` and :func:`analytic_trh_rows` evaluate the traces on constants.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import tape
from .layer_traces import full_ce_trace_rows_nodes
from .losses import RobustLossKind
from .network import ForwardTrace, MlpNetwork, forward, forward_nodes, lift


class _Side(NamedTuple):
    """One side (clean or adversarial) of a batch on the tape: nodes on
    lifted leaves, arrays on constants."""

    z: tape.Node     # penultimate features, (m, d)
    logs: tape.Node  # log-softmax of the logits, (m, K)
    s: tape.Node     # softmax, (m, K)
    forward: ForwardTrace | None = None  # the tape forward it was read off


def _side(features: tape.Node, logits: tape.Node,
          forward: ForwardTrace | None = None) -> _Side:
    logs = tape.log_softmax(logits)
    return _Side(features, logs, tape.exp(logs), forward)


def _constant_side(trace: ForwardTrace | None) -> _Side | None:
    if trace is None:
        return None
    return _side(tape.constant(np.atleast_2d(trace.features)),
                 tape.constant(np.atleast_2d(trace.logits)))


def _sides(lifted, X, X_adv, kind: RobustLossKind):
    """``(clean, adversarial)`` sides from tape forward passes of the lifted
    parameters, leaves or constants; clean is None for at."""
    def side(inputs):
        trace = forward_nodes(lifted, inputs)
        return _side(trace.features, trace.logits, trace)
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


def _margin(adv: _Side, kappa: np.ndarray, y: np.ndarray):
    """``(log(1 - s'_kappa), log q)``: one log-softmax, ``kappa`` masked out
    (-1e300: exp 0, finite); the label ``y`` is not kappa, so the first is
    ``log(s'_y / q_y)``."""
    k = adv.s.shape[-1]
    logq = tape.log_softmax(adv.logs + tape.constant(-1e300 * _one_hot(kappa, k)))
    return tape.row_sum((adv.logs - logq) * tape.constant(_one_hot(y, k))), logq


# -- the closed forms: three softmax primitives and one contraction -------


def _others(p: tape.Node) -> tape.Node:
    """``p @ (1 - I)``: per class, the sum over the other classes."""
    return p @ tape.constant(1.0 - np.eye(p.shape[-1]))


def _tr_phi(p, o) -> tape.Node:
    """``tr Phi(p) = sum_k p_k (1 - p_k)``, with ``o = _others(p)``."""
    return tape.row_sum(p * o)


def _sq_frob_phi(p, o, sq_o) -> tape.Node:
    """``||Phi(p)||_F^2``, column k holding ``p_k (1 - p_k)`` and ``-p_k p_i``."""
    return tape.row_sum(p * p * (o * o + sq_o))


def _tr_hess(r, p, o, sq_o) -> tape.Node:
    """``tr sum_k r_k grad^2 p_k``, the second derivatives over the logits:
    ``tr grad^2 p_k = 2 p_k (sum_{i != k} p_i^2 - p_k (1 - p_k))``."""
    return 2.0 * tape.row_sum(r * p * (sq_o - p * o))


def _trades_g_blocks(clean: _Side, adv: _Side):
    """``(tr A, tr B)`` of G, the live clean logits' part of the TRADES KL
    per unit penalty; ``-tr B`` is ``tr Phi(s)``."""
    s, o = clean.s, _others(clean.s)
    tr_phi = _tr_phi(s, o)
    return tr_phi + _tr_hess(clean.logs - adv.logs, s, o, _others(s * s)), -tr_phi


def _block_traces(clean: _Side | None, adv: _Side, y, kind: RobustLossKind,
                  stop_grad_clean: bool = True, margin=None):
    """Per-example ``(tr A, tr B, tr C)`` (module docstring); None is zero."""
    beta, s_adv = kind.penalty, adv.s
    o_adv = _others(s_adv)
    tr_adv = _tr_phi(s_adv, o_adv)
    if kind.variant == "at":
        return None, None, tr_adv
    if kind.variant == "alp":
        sq_o = _others(s_adv * s_adv)
        return None, None, tr_adv + 2.0 * beta * (
            _sq_frob_phi(s_adv, o_adv, sq_o)
            + _tr_hess(s_adv - clean.s, s_adv, o_adv, sq_o))
    if kind.variant == "trades" and not stop_grad_clean:
        g_a, g_b = _trades_g_blocks(clean, adv)
        return beta * g_a - g_b, beta * g_b, beta * tr_adv  # -g_b: tr Phi(s)
    s, o = clean.s, _others(clean.s)
    tr_clean = _tr_phi(s, o)
    if kind.variant == "trades":
        return tr_clean, None, beta * tr_adv
    if kind.variant == "mart":
        y = np.atleast_1d(np.asarray(y, dtype=np.int64))
        Y = tape.constant(_one_hot(y, s.shape[-1]))
        if margin is None:
            margin = _margin(adv, _runner_up(tape.value(s_adv), y), y)
        q = tape.exp(margin[1])
        w = tape.row_sum(o * Y)  # 1 - s_y
        return tr_clean, None, (1.0 + beta * w) * tr_adv - _tr_phi(q, _others(q))
    raise ValueError(f"unknown loss variant {kind.variant!r}")


def _contract(clean: _Side | None, adv: _Side, tr_a, tr_b, tr_c) -> tape.Node:
    """``||z||^2 tr A + 2 (z . z') tr B + ||z'||^2 tr C``; a None A or B is 0."""
    rows = tape.row_sum(adv.z * adv.z) * tr_c
    if tr_a is not None:
        rows = rows + tape.row_sum(clean.z * clean.z) * tr_a
    if tr_b is not None:
        rows = rows + 2.0 * tape.row_sum(clean.z * adv.z) * tr_b
    return rows


def top_trace_rows(clean: _Side | None, adv: _Side, y, kind: RobustLossKind,
                   stop_grad_clean: bool = True, margin=None) -> tape.Node:
    """Per-example closed-form top-layer traces, shape (m,): the loss kind's
    block traces, contracted.  ``clean`` is unused (and may be None) for at;
    ``y`` and ``margin`` (from ``adv`` when None) are used by mart only."""
    return _contract(clean, adv, *_block_traces(clean, adv, y, kind,
                                                stop_grad_clean, margin))


# -- the closed forms on constants ---------------------------------------


def _on_constants(trace_clean, trace_adv, y, kind: RobustLossKind,
                  stop_grad_clean: bool = True):
    """:func:`top_trace_rows` on constants: a float for 1-d traces."""
    rows = top_trace_rows(_constant_side(trace_clean), _constant_side(trace_adv),
                          y, kind, stop_grad_clean)
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
    """Top-layer TRADES trace with gradient kept on the clean logits, and G,
    the extra trace from differentiating through them (:func:`_trades_g_blocks`):
    ``(value, G)``, floats for 1-d traces and ``(m,)`` arrays for a batch."""
    kind = RobustLossKind("trades", lambda_t)
    value = _on_constants(trace_clean, trace_adv, None, kind, stop_grad_clean=False)
    clean, adv = _constant_side(trace_clean), _constant_side(trace_adv)
    g_term = _contract(clean, adv, *_trades_g_blocks(clean, adv), 0.0)
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
    """Per-example closed-form top-layer traces, plain numpy: a forward
    (:func:`~trhreg.network.forward`) of each side of the batch, then one
    call of the loss kind's closed form on the whole batch."""
    trace_adv = forward(net, np.atleast_2d(X_adv))
    if kind.variant == "at":
        return trh_at(trace_adv)
    trace_clean = forward(net, np.atleast_2d(X))
    if kind.variant == "mart":
        return trh_mart(trace_clean, trace_adv, y, kind.penalty)
    if kind.variant == "trades" and not stop_grad_clean:
        return trh_trades_full(trace_clean, trace_adv, kind.penalty)[0]
    wrapper = trh_trades if kind.variant == "trades" else trh_alp
    return wrapper(trace_clean, trace_adv, kind.penalty)


# -- the robust loss and the batched objective on the tape ----------------


def _frozen(clean: _Side | None, adv: _Side, y: np.ndarray,
            kind: RobustLossKind) -> dict:
    """Stop-gradient constants, read off the sides' current values."""
    if clean is None:
        return {}
    s_clean = tape.value(clean.s)
    frozen = {"s_clean": s_clean, "log_s_clean": tape.value(clean.logs)}
    if kind.variant == "mart":
        frozen["kappa_star"] = _runner_up(tape.value(adv.s), y)
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
    clean, adv = _sides(lift(net, leaves=()), X, X_adv, kind)
    return _frozen(clean, adv, np.asarray(y, dtype=np.int64), kind)


def _loss_rows(clean: _Side | None, adv: _Side, y: np.ndarray,
               kind: RobustLossKind, stop_grad_clean: bool,
               frozen: dict, margin=None) -> tape.Node:
    """Per-example robust loss, shape (m,).

    The stop-gradient choices (clean side of KL / pairing / weighted-KL held
    constant) read their constants from `frozen`, mart's ``margin`` too.
    """
    logs_adv, s_adv = adv.logs, adv.s
    Y = tape.constant(_one_hot(y, s_adv.shape[-1]))
    if kind.variant == "at":
        return -tape.row_sum(logs_adv * Y)
    if kind.variant == "alp":
        diff = frozen["s_clean"] - s_adv
        return -tape.row_sum(logs_adv * Y) + kind.penalty * tape.row_sum(diff * diff)
    logs, s = clean.logs, clean.s
    ce_clean = -tape.row_sum(logs * Y)
    if kind.variant == "trades" and not stop_grad_clean:
        return ce_clean + kind.penalty * tape.row_sum(s * (logs - logs_adv))
    kl_rows = tape.row_sum(frozen["s_clean"] * (frozen["log_s_clean"] - logs_adv))
    if kind.variant == "trades":
        return ce_clean + kind.penalty * kl_rows
    if kind.variant == "mart":
        if margin is None:
            margin = _margin(adv, frozen["kappa_star"], y)
        return ce_clean - margin[0] + kind.penalty * (frozen["wkl_weight"] * kl_rows)
    raise ValueError(f"unknown loss variant {kind.variant!r}")


def objective_nodes(lifted, X, X_adv, y, kind: RobustLossKind,
                    lam: float, gamma: float, stop_grad_clean: bool = True,
                    frozen: dict | None = None, full_coeff: float = 0.0) -> tape.Node:
    """Scalar tape node: mean robust loss + lam * mean trace + gamma
    ||theta||^2 + full_coeff * mean whole-network CE trace at X_adv, all on
    one tape forward per side (and, for mart, one margin).

    One value per copy, shape ``(P,)``, on a stacked network (mean and norm
    taken per copy).  On leaves it is the training objective; on constants
    (``lift(net, leaves=())``) it is the objective's value, plain numpy
    that builds no node.

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
    margin = (_margin(adv, frozen["kappa_star"], y) if kind.variant == "mart"
              else None)
    rows = _loss_rows(clean, adv, y, kind, stop_grad_clean, frozen, margin)
    if lam > 0:
        rows = rows + lam * top_trace_rows(clean, adv, y, kind, stop_grad_clean, margin)
    out = tape.mean(rows, axis=-1)
    if gamma != 0.0:
        axes = (1, 2) if tape.value(lifted[0][0]).ndim == 3 else None  # per copy
        out = out + gamma * sum(tape.nsum(w * w, axes) if b is None else
                                tape.nsum(w * w, axes) + tape.nsum(b * b, axes)
                                for w, b in lifted)
    if full_coeff:  # plain networks only: the layer traces take no stack
        out = out + full_coeff * tape.mean(
            full_ce_trace_rows_nodes(lifted, adv.forward, adv.s))
    return out


def robust_loss_rows(net: MlpNetwork, X, X_adv, y,
                     kind: RobustLossKind) -> np.ndarray:
    """Per-example robust loss values (no regularizer): the objective's loss
    rows evaluated on constants."""
    y = np.atleast_1d(np.asarray(y, dtype=np.int64))
    clean, adv = _sides(lift(net, leaves=()), X, X_adv, kind)
    return _loss_rows(clean, adv, y, kind, True, _frozen(clean, adv, y, kind))
