"""Layer-wise Hessian traces of the cross-entropy loss for ReLU nets.

Indexing convention, used everywhere in this module: *level* ``i`` is the
activation entering weight layer ``i`` (0-based), so level 0 is the raw
input, level ``i`` for hidden layers is a ReLU output, and level ``L``
(= ``net.depth``) is the logits.  Weight matrix ``W_i`` maps level ``i`` to
the pre-activation of level ``i+1``.

Two related quantities live here.  The tensor

    H[k, d] = (d logits_k / d level_d)^2 * h_k

over every unit of a level is the object of the consecutive-level bound

    max H(level i) <= max H(level i+1) * ||W_i||_1^2

exposed as a checkable predicate.  The *exact* CE Hessian trace over the
entries of weight matrix ``W_i`` is

    trace(W_i) = ||level_i||^2 * sum_{d in P(level_{i+1})} J_d^T Phi J_d

with the active set ``P = {d : level_d > 0}``, where
``J_d = d logits / d level_{i+1}[d]`` and ``Phi`` is the softmax
Jacobian; summing only the diagonal of ``Phi`` would give
``sum_{k, d in P} H[k, d]``, which coincides with the exact trace at the
top layer (where J is the identity and the trace reduces to
``||z||^2 * 1^T h``) but drops the softmax cross terms below it.  The
finite-difference oracle pins the exact version down; the per-column
quadratic form is ``sum_k s_k (J_kd - u_d)^2`` with ``u_d = sum_k s_k
J_kd``, whose terms are nonnegative, so it does not cancel as s saturates.

One recursion, :func:`_jacobian_stacks`, carries the logit Jacobians of
all K classes down the network as one class-major ``(K, D, m)`` stack (the
K backward passes of a loss-Hessian factor, as in BackPACK, Dangel et al.
2020, arXiv:1912.10985), so each layer step is one batched matrix product.
Both quantities read it:

* :func:`layer_trace_nodes` -- per-example trace rows per weight matrix
  as tape nodes, each class sum a reduction over the leading axis; read by
  :func:`full_ce_trace_rows_nodes` (the sum over layers, the whole-network
  regularizer of ``trh.objective_nodes``, on its forward) and by
  :func:`layer_trace_rows` (on constant weights: numpy values for
  measurement and for the oracle comparisons of ``verify``);
* :func:`check_layer_inequality` -- the bound at every level of one
  example, on constant weights.

At the logits level there is no ReLU above the weights, so its active set
is every index.  Biases are excluded throughout (traces are over
weight-matrix entries only).  :func:`check_layer_inequality` rejects
inputs within ``SMOOTH_TOL`` of a ReLU kink, because the
second-derivative convention (ReLU'' = 0) only holds away from kinks;
the trace rows are for bulk measurement and check nothing, so a caller
comparing them with an oracle samples smooth inputs itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tape
from .network import (ForwardTrace, MlpNetwork, forward_nodes, lift,
                      min_preact_magnitude)
from .numerics import SMOOTH_TOL, NonSmoothInput

INEQUALITY_SLACK = 1e-9  # rounding allowance of check_layer_inequality


def _jacobian_stacks(lifted, preacts):
    """The downward Jacobian recursion: ``(i, jac)`` for weight layers
    ``i = L-1, ..., 0``.

    ``jac`` is the class-major ``(K, D, m)`` stack of d logits / d (the
    pre-activations ``W_i`` feeds); at the top it is the identity, one
    ``(K, K, 1)`` constant for every row.  Each step down is one batched
    product ``W_i @ jac``, the Jacobian of the activations entering ``W_i``,
    times the ReLU gates of that level held at their forward values.  A
    step is taken only when the next layer is asked for, and none below
    layer 0.
    """
    k = preacts[-1].shape[1]
    jac = tape.constant(np.eye(k)[:, :, None])
    for i in range(len(lifted) - 1, -1, -1):
        yield i, jac
        if i > 0:
            jac = (lifted[i][0] @ jac) * tape.constant((tape.value(preacts[i - 1]) > 0).T)


def l1_operator_norm(w: np.ndarray) -> float:
    """Maximum absolute row sum of a weight matrix."""
    w = np.asarray(w, dtype=np.float64)
    if w.size == 0:
        raise ValueError("matrix must be nonempty")
    return float(np.max(np.abs(w).sum(axis=1)))


@dataclass
class LayerInequality:
    lhs: float
    rhs: float
    holds: bool


def check_layer_inequality(net: MlpNetwork, x: np.ndarray) -> list[LayerInequality]:
    """Consecutive-level bound at every level ``i < L``:
    max H(level i) <= max H(level i+1) * ||W_i||_1^2.

    ``H[k, d] = (d logits_k / d level_d)^2 h_k`` over every unit of the
    level, active or not.  The Jacobian of level ``i < L`` is ``W_i @ jac``
    with ``jac`` the stack :func:`_jacobian_stacks` carries at weight layer
    ``i``; that of the logits level is the identity.  One input vector,
    behind the smoothness guard; an all-zero input is rejected for the
    whole call (it is degenerate for a bias-free net).  Returns one
    :class:`LayerInequality` per level, level 0 first, from one pass of
    the recursion.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("check_layer_inequality takes a single input vector")
    if min_preact_magnitude(net, x) < SMOOTH_TOL:
        raise NonSmoothInput(
            f"pre-activation within {SMOOTH_TOL} of a ReLU kink; resample the input")
    if np.all(x == 0):
        raise NonSmoothInput("zero input is degenerate for a bias-free net")
    lifted = lift(net, leaves=())
    preacts = forward_nodes(lifted, x[None, :]).preacts
    s = tape.softmax(preacts[-1][0])
    h = (s * (1.0 - s))[:, None, None]
    peak = [0.0] * net.depth + [float(h.max())]  # identity Jacobian: H = diag(h)
    for i, jac in _jacobian_stacks(lifted, preacts):
        peak[i] = float(((lifted[i][0] @ jac) ** 2 * h).max())
    out = []
    for level, layer in enumerate(net.layers):
        lhs, rhs = peak[level], peak[level + 1] * l1_operator_norm(layer.weights) ** 2
        out.append(LayerInequality(lhs=lhs, rhs=rhs, holds=lhs <= rhs + INEQUALITY_SLACK))
    return out


# -- the one trace routine and its callers ------------------------------


def layer_trace_nodes(lifted, trace: ForwardTrace, s) -> list:
    """Per-example CE trace of every weight matrix: one ``(m,)`` node per
    layer, on `trace`, a tape forward of `lifted`, and ``s``, its softmax.

    ``jac[c, d, n]`` is d logits_c / d (pre-activation d of the level above
    the current weights) at example n.  All K classes go down together as
    one ``(K, D, m)`` stack, one batched matrix product per layer.  ReLU
    gates are held at their forward values (the ReLU'' = 0 convention);
    everything else is a function of the lifted parameters.
    """
    rows = [None] * len(lifted)
    for i, jac in _jacobian_stacks(lifted, trace.preacts):
        below = trace.layer_inputs[i]
        rows[i] = tape.row_sum(below * below) * _summed_quadratic_form(s, jac)
    return rows


def _summed_quadratic_form(s, jac):
    """``sum_d J_d^T Phi J_d = sum_d sum_c s_c (J_cd - u_d)^2`` per row, with
    ``u_d = sum_c s_c J_cd``, ``s`` the ``(m, K)`` softmax and ``jac`` a
    ``(K, D, m)`` stack.

    One node with a hand-written VJP, exact where ``sum_c s_c = 1``:
    ``2 s (J - u)`` for ``jac`` and ``sum_d (J_cd - u_d)^2`` for ``s``, the
    latter returned as ``(m, K)``.  ``s`` is read through a contiguous
    class-major ``(K, 1, m)`` copy.  On constants it is an array.  Only
    the constant logits-level ``jac`` broadcasts over rows, so a node
    ``jac`` needs no unbroadcasting.
    """
    j = tape.value(jac)
    sk = np.ascontiguousarray(tape.value(s).T)[:, None, :]
    dev = j - (sk * j).sum(axis=0)
    sq = dev * dev
    return tape.record((sk * sq).sum(axis=0).sum(axis=0), (
        (s, lambda g: (sq.sum(axis=1) * g).T),
        (jac, lambda g: dev * (2.0 * sk * g))))


def full_ce_trace_rows_nodes(lifted, trace: ForwardTrace, s) -> tape.Node:
    """Per-example CE trace over all weight matrices, shape (m,): the
    trainable whole-network curvature regularizer."""
    rows = layer_trace_nodes(lifted, trace, s)
    return sum(rows[1:], rows[0])


_ROWS_PER_PASS = 128  # bounds the (K, D, m) stacks of a measurement pass


def layer_trace_rows(net: MlpNetwork, X: np.ndarray) -> np.ndarray:
    """Per-example CE layer traces, shape (m, depth), as numpy values.

    :func:`layer_trace_nodes` on constant weights, so plain numpy, in
    passes of at most ``_ROWS_PER_PASS`` rows.  No smoothness check: this is
    for bulk measurement, not oracle duty.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    lifted, out = lift(net, leaves=()), []
    for i in range(0, len(X), _ROWS_PER_PASS):
        trace = forward_nodes(lifted, X[i:i + _ROWS_PER_PASS])
        rows = layer_trace_nodes(lifted, trace, tape.exp(tape.log_softmax(trace.logits)))
        out.append(np.stack(rows, axis=1))
    return np.concatenate(out)
