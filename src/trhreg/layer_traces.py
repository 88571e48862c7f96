"""Layer-wise Hessian traces of the cross-entropy loss for ReLU nets.

Indexing convention, used everywhere in this module: *level* ``i`` is the
activation entering weight layer ``i`` (0-based), so level 0 is the raw
input, level ``i`` for hidden layers is a ReLU output, and level ``L``
(= ``net.depth``) is the logits.  Weight matrix ``W_i`` maps level ``i`` to
the pre-activation of level ``i+1``.

Two related quantities live here.  The tensor

    H[k, d] = (d logits_k / d level_d)^2 * h_k

with the active set ``P = {d : level_d > 0}`` is the object of the
consecutive-level bound

    max H(level i) <= max H(level i+1) * ||W_i||_1^2

exposed as a checkable predicate.  The *exact* CE Hessian trace over the
entries of weight matrix ``W_i`` is

    trace(W_i) = ||level_i||^2 * sum_{d in P(level_{i+1})} J_d^T Phi J_d

where ``J_d = d logits / d level_{i+1}[d]`` and ``Phi`` is the softmax
Jacobian; summing only the diagonal of ``Phi`` would give
``sum_{k, d in P} H[k, d]``, which coincides with the exact trace at the
top layer (where J is the identity and the trace reduces to
``||z||^2 * 1^T h``) but drops the softmax cross terms below it.  The
finite-difference oracle pins the exact version down; the per-column
quadratic form simplifies to ``sum_k s_k J_kd^2 - (sum_k s_k J_kd)^2``.

One routine computes that trace, :func:`layer_trace_nodes`: it carries the
logit Jacobians of all K classes down the network as one class-major
``(K, D, m)`` stack (the K backward passes of a loss-Hessian factor, as in
BackPACK, Dangel et al. 2020, arXiv:1912.10985), so each layer step is one
batched matrix product and each class sum a reduction over the leading
axis, and returns per-example rows per weight matrix as tape nodes.
Everything else here that reports the trace calls it:

* :func:`full_ce_trace_rows_nodes` -- the sum over layers on lifted
  weights, the trainable whole-network regularizer;
* :func:`layer_trace_rows` -- the routine on constant weights, numpy
  values for measurement;
* :func:`trh_ce_layer` / :func:`full_ce_trace` -- one example, behind the
  smoothness guard the oracles need.

:func:`layer_h_tensor`, :func:`logits_jacobian` and
:func:`check_layer_inequality` serve the consecutive-level bound.

At the logits level there is no ReLU above the weights, so its active set
is every index.  Biases are excluded throughout (traces are over
weight-matrix entries only).  Inputs within ``SMOOTH_TOL`` of a ReLU kink
are rejected for the oracle-facing entry points because the
second-derivative convention (ReLU'' = 0) only holds away from kinks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tape
from .losses import softmax
from .network import (MlpNetwork, forward, forward_nodes, lift,
                      min_preact_magnitude)
from .numerics import SMOOTH_TOL


class NonSmoothInput(RuntimeError):
    """A pre-activation sits too close to a ReLU kink for exact formulas."""


@dataclass
class LayerHTensor:
    level: int
    values: np.ndarray        # (K, D) squared logit Jacobian times h
    positive_set: np.ndarray  # indices of active units at this level


def _check_smooth(net: MlpNetwork, x: np.ndarray, tol: float) -> None:
    if min_preact_magnitude(net, x) < tol:
        raise NonSmoothInput(
            f"pre-activation within {tol} of a ReLU kink; resample the input")


def logits_jacobian(net: MlpNetwork, x: np.ndarray, level: int) -> np.ndarray:
    """d logits / d level activations, shape (K, D_level)."""
    tr = forward(net, x)
    depth = net.depth
    if not 0 <= level <= depth:
        raise ValueError(f"level must be in [0, {depth}]")
    k = net.num_classes
    jac = np.eye(k)
    for i in range(depth - 1, level - 1, -1):
        jac = jac @ net.layers[i].weights.T
        if i > level:
            jac = jac * (tr.preacts[i - 1] > 0)
    return jac


def layer_h_tensor(net: MlpNetwork, x: np.ndarray, level: int,
                   tol: float = SMOOTH_TOL) -> LayerHTensor:
    """Squared-Jacobian-times-h tensor and active set at an activation level."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("layer_h_tensor takes a single input vector")
    _check_smooth(net, x, tol)
    tr = forward(net, x)
    act = (tr.layer_inputs + [tr.logits])[level]
    if level == net.depth:
        positive = np.arange(act.size)  # no ReLU above the top weights
    else:
        positive = np.flatnonzero(act > 0)
        if level == 0 and positive.size == 0 and np.all(act == 0):
            raise NonSmoothInput("zero input is degenerate for a bias-free net")
    jac = logits_jacobian(net, x, level)
    h = softmax(tr.logits) * (1.0 - softmax(tr.logits))
    return LayerHTensor(level=level, values=jac ** 2 * h[:, None],
                        positive_set=positive)


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


def check_layer_inequality(net: MlpNetwork, x: np.ndarray, level: int,
                           slack: float = 1e-9) -> LayerInequality:
    """Consecutive-level bound: max H(level) <= max H(level+1) * ||W||_1^2."""
    if not 0 <= level < net.depth:
        raise ValueError(f"level must be in [0, {net.depth})")
    lower = layer_h_tensor(net, x, level)
    upper = layer_h_tensor(net, x, level + 1)
    lhs = float(lower.values.max())
    rhs = float(upper.values.max()) * l1_operator_norm(net.layers[level].weights) ** 2
    return LayerInequality(lhs=lhs, rhs=rhs, holds=lhs <= rhs + slack)


# -- the one trace routine and its callers ------------------------------


def layer_trace_nodes(lifted, X: np.ndarray) -> list:
    """Per-example CE trace of every weight matrix: one ``(m,)`` node per layer.

    ``jac[c, d, n]`` is d logits_c / d (pre-activation d of the level above
    the current weights) at example n.  All K classes go down together as
    one ``(K, D, m)`` stack, one batched matrix product per layer.  ReLU
    gates are held at their forward values (the ReLU'' = 0 convention);
    everything else is a live function of the lifted parameters.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    layer_inputs, preacts = forward_nodes(lifted, X)
    s = tape.exp(tape.log_softmax(preacts[-1]))
    k = s.shape[1]
    s = tape.reshape(tape.transpose(s), (k, 1, -1))
    jac = tape.constant(np.eye(k)[:, :, None])  # logits level, same for every row
    rows = [None] * len(lifted)
    for i in range(len(lifted) - 1, -1, -1):
        below = layer_inputs[i]
        rows[i] = tape.row_sum(below * below) * _summed_quadratic_form(s, jac)
        if i > 0:
            jac = (lifted[i][0] @ jac) * tape.constant((preacts[i - 1].value > 0).T)
    return rows


def _summed_quadratic_form(s: tape.Node, jac: tape.Node) -> tape.Node:
    """``sum_d J_d^T Phi J_d = sum_d (sum_c s_c J_cd^2 - u_d^2)`` per row,
    with ``u_d = sum_c s_c J_cd``, ``s`` of shape ``(K, 1, m)`` and ``jac``
    a ``(K, D, m)`` stack.

    One node with a hand-written VJP: ``2 s (J - u)`` for ``jac`` and
    ``sum_d J_cd (J_cd - 2 u_d)`` for ``s``.  On constants it keeps no
    graph.  Only the constant logits-level ``jac`` broadcasts over rows, so
    a live ``jac`` needs no unbroadcasting.
    """
    j = jac.value
    weighted = s.value * j
    u = weighted.sum(axis=0)
    value = ((weighted * j).sum(axis=0) - u * u).sum(axis=0)
    return tape.Node(value, (
        (s, lambda g: (j * (j - 2.0 * u)).sum(axis=1, keepdims=True) * g),
        (jac, lambda g: (j - u) * (2.0 * s.value * g))))


def full_ce_trace_rows_nodes(lifted, X: np.ndarray) -> tape.Node:
    """Per-example CE trace over all weight matrices, shape (m,): the
    trainable whole-network curvature regularizer."""
    rows = layer_trace_nodes(lifted, X)
    return sum(rows[1:], rows[0])


_ROWS_PER_PASS = 128  # bounds the (K, D, m) stacks of a measurement pass


def layer_trace_rows(net: MlpNetwork, X: np.ndarray) -> np.ndarray:
    """Per-example CE layer traces, shape (m, depth), as numpy values.

    :func:`layer_trace_nodes` on constant weights, so no graph is kept, in
    passes of at most ``_ROWS_PER_PASS`` rows.  No smoothness check: this is
    for bulk measurement, not oracle duty.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    lifted = lift(net, tape.constant)
    return np.concatenate([
        np.stack([r.value for r in layer_trace_nodes(lifted, X[i:i + _ROWS_PER_PASS])],
                 axis=1)
        for i in range(0, len(X), _ROWS_PER_PASS)])


def _smooth_rows(net: MlpNetwork, x: np.ndarray, tol: float) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    _check_smooth(net, x, tol)
    return layer_trace_rows(net, x)[0]


def trh_ce_layer(net: MlpNetwork, x: np.ndarray, layer: int,
                 tol: float = SMOOTH_TOL) -> float:
    """Exact CE Hessian trace over the entries of weight matrix `layer`."""
    if not 0 <= layer < net.depth:
        raise ValueError(f"layer must be in [0, {net.depth})")
    return float(_smooth_rows(net, x, tol)[layer])


def full_ce_trace(net: MlpNetwork, x: np.ndarray, tol: float = SMOOTH_TOL) -> float:
    """CE Hessian trace over all weight matrices (biases excluded)."""
    return float(_smooth_rows(net, x, tol).sum())
