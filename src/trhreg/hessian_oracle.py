"""Finite-difference Hessian oracles and Rademacher-probe trace estimators.

Every finite-difference and probe computation on the objective's curvature
lives here or in :mod:`trhreg.numerics`; ``verify`` and the trainer's
measurements call the same functions.  They are kept deliberately separate
from the closed forms in :mod:`trhreg.trh` and :mod:`trhreg.layer_traces`:

* ``exact_trace`` is a finite-difference sum of per-coordinate central
  differences of an analytic gradient -- the cross-validation oracle for
  every closed-form trace in the package;
* ``hutchinson_trace`` averages Rademacher quadratic forms ``v^T H v``;
  ``hutchinson_trace_pair`` takes ``v . Hv`` and ``||H v||^2`` from the
  same Hessian-vector products, unbiased for Tr(H) and Tr(H^2).  For a
  diagonal Hessian a single probe is already exact since the probe
  entries square to one;
* ``frozen_objective_fns`` feeds ``frozen_quad_form`` and ``frozen_hvp``.
  Its value and gradient are one :func:`trhreg.trh.objective_nodes`
  closure, run on constant weights for a value (no tape graph) and on
  leaves for a gradient.  Both take a ``(P, n)`` stack of weight vectors
  as well as one vector and evaluate the stack on a stacked network in one
  pass (one backward for all P gradients), so a per-coordinate stencil
  costs one call rather than 2k; the probe estimators step one point at a
  time.
  With ``layer`` = i both functions are layer-local: for stencils and
  probes supported on weight layer i they run the net from layer i up and
  differentiate layer i alone, with the same bits on that layer.

Eigenvalue mean/std follow from (Tr H, Tr H^2, n) without materializing any
Hessian.  Quadratic forms use second differences of objective values at a
wider step (second differences are noisier than first), Hessian-vector
products use central differences of gradients.  Both step every weight the
probe moves at once (a block probe moves one layer, a full probe all of
them), so ReLU kinks inside the stencil enter the estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tape
from . import trh as trh_module
from .network import (MlpNetwork, flat_index_slices, flatten_weights,
                      forward_nodes, gradient_vector, lift, unflatten_weights)
from .numerics import (HESS_STEP, OracleError, Rng, hessian_diag_subset,
                       mean_se, rademacher_vector, stackable)

QUAD_STEP = 1e-3  # second differences of values need a wider stencil


def exact_trace(grad_fn, w0: np.ndarray, indices=None, h: float = HESS_STEP) -> float:
    """Trace over a parameter subset as a finite-difference sum: the sum of
    :func:`hessian_diag_subset` (central differences of `grad_fn`).

    "Exact" means deterministic and per-coordinate, not closed-form: the
    result carries the O(h^2) truncation of the stencil, and a ReLU kink
    inside the stencil spoils it.  `indices` selects the diagonal entries
    (default: all).  Intended for desk-scale subsets: the stencil holds two
    gradient evaluations per entry, made in one stacked call when `grad_fn`
    is stackable (as :func:`frozen_objective_fns` gradients are) and one
    call each otherwise.  For `indices` within one weight layer, the
    layer-local gradient of :func:`frozen_objective_fns` (``layer=i``) gives
    the same sum to the bit and runs only the layers from i up.
    """
    w0 = np.asarray(w0, dtype=np.float64)
    if indices is None:
        indices = np.arange(w0.size)
    return float(hessian_diag_subset(grad_fn, w0, indices, h=h).sum())


# -- stochastic estimators ---------------------------------------------


def hutchinson_trace(quad_form, dim: int, probes: int, rng: Rng,
                     indices=None):
    """Rademacher estimate of Tr(H) from a quadratic form v -> v^T H v.

    Returns ``(estimate, standard_error)``.  With `indices` given, probes
    are supported on that subset only, estimating the trace of the
    corresponding diagonal block.
    """
    if probes < 1:
        raise ValueError("probes must be >= 1")
    vals = np.empty(probes)
    for p in range(probes):
        v = _probe(dim, rng, indices)
        vals[p] = quad_form(v)
    return mean_se(vals)


def hutchinson_trace_pair(hvp, dim: int, probes: int, rng: Rng, indices=None):
    """Rademacher estimates of Tr(H) and Tr(H^2) from the same
    Hessian-vector products.

    Each probe v gives ``v . Hv`` and ``||H v||^2``; returns
    ``((trace, se), (trace_sq, se_sq))``.  With `indices`, probes and
    products are restricted to the subset, estimating Tr(B) and Tr(B^2)
    for the diagonal block B.
    """
    if probes < 1:
        raise ValueError("probes must be >= 1")
    tvals = np.empty(probes)
    sqvals = np.empty(probes)
    for p in range(probes):
        v = _probe(dim, rng, indices)
        hv = hvp(v)
        tvals[p] = float(np.dot(v, hv))
        if indices is not None:
            hv = hv[indices]
        sqvals[p] = float(np.dot(hv, hv))
    return mean_se(tvals), mean_se(sqvals)


def _probe(dim: int, rng: Rng, indices) -> np.ndarray:
    if indices is None:
        return rademacher_vector(dim, rng)
    v = np.zeros(dim)
    v[np.asarray(indices, dtype=np.int64)] = rademacher_vector(len(indices), rng)
    return v


def quad_form_from_values(value_fn, w0: np.ndarray):
    """v -> v^T H v via the second central difference of objective values,
    at step h = ``QUAD_STEP``.

    The stencil displaces every weight by +/- h at once, so ReLU
    pre-activations need margins comfortably above ``h`` times the typical
    activation scale or kink crossings bleed into the measurement; callers
    comparing against per-coordinate oracles should filter inputs
    accordingly.
    """
    w0, h = np.asarray(w0, dtype=np.float64), QUAD_STEP
    f0 = value_fn(w0)

    def quad(v):
        fp = value_fn(w0 + h * v)
        fm = value_fn(w0 - h * v)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise OracleError("non-finite value in quadratic form")
        return (fp - 2.0 * f0 + fm) / (h * h)

    return quad


def hvp_from_grad(grad_fn, w0: np.ndarray):
    """v -> H v via the central difference of analytic gradients, at step
    ``HESS_STEP``."""
    w0, h = np.asarray(w0, dtype=np.float64), HESS_STEP

    def hvp(v):
        return (grad_fn(w0 + h * v) - grad_fn(w0 - h * v)) / (2.0 * h)

    return hvp


def eigen_stats(trace: float, trace_sq: float, n: int):
    """Eigenvalue mean and standard deviation from Tr(H) and Tr(H^2)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    mean = trace / n
    var = trace_sq / n - mean * mean
    return mean, float(np.sqrt(max(0.0, var)))


@dataclass
class LayerHessianReport:
    layer: int  # 0 denotes the whole network
    trace: float
    trace_sq: float
    eig_mean: float
    eig_std: float
    param_count: int

    @classmethod
    def from_traces(cls, layer, trace, trace_sq, n):
        mean, std = eigen_stats(trace, trace_sq, n)
        return cls(layer=layer, trace=trace, trace_sq=trace_sq,
                   eig_mean=mean, eig_std=std, param_count=n)


# -- objective plumbing over the flat weight vector ---------------------


# Activation entries (stack copies x rows x units) one stacked evaluation
# of a frozen objective may hold; larger stacks are split into chunks.
_STACK_ACTIVATIONS = 1 << 18


def frozen_objective_fns(net: MlpNetwork, X, X_adv, y, kind,
                         lam: float = 0.0, gamma: float = 0.0,
                         stop_grad_clean: bool = True, layer: int | None = None):
    """(value_fn, grad_fn) of the robust objective over the flat weights.

    Stop-gradient constants (clean softmax, runner-up class, KL weight)
    are captured once at the *current* weights of `net` and held fixed, so
    finite differences of `value_fn` recover exactly the gradients that
    backprop reports under the stop-gradient semantics, and second
    differences recover the Hessian the closed forms describe.  The
    adversarial batch is a constant by convention.

    Both functions are :func:`~trhreg.numerics.stackable`: handed one
    weight vector ``(n,)`` they return a float and an ``(n,)`` gradient;
    handed a stack ``(P, n)``, one value ``(P,)`` and one gradient row
    ``(P, n)`` per weight vector, equal to the bit to per-row calls.  A
    stack is evaluated on a stacked network (:func:`unflatten_weights`),
    in chunks that hold at most ``_STACK_ACTIVATIONS`` activation entries.

    With `layer` = i the functions are layer-local, for stencils and probes
    that move only weight layer i (weights and bias).  The clean and
    adversarial inputs of layer i are computed once, at the weights of
    `net`; a call runs the net from layer i up, with only layer i's
    parameters as tape leaves, so its backward stops at layer i and makes
    no weight gradient above it.  Values and the gradient entries of layer
    i equal the whole-network route's to the bit; the other gradient
    entries are 0.  A weight vector that differs from the net's outside
    layer i raises ``ValueError``, and so does a nonzero `lam` or `gamma`.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    X_adv = np.atleast_2d(np.asarray(X_adv, dtype=np.float64))
    y = np.atleast_1d(np.asarray(y, dtype=np.int64))
    frozen = trh_module.capture_frozen(net, X, X_adv, y, kind)
    rows = len(X_adv) + (0 if kind.variant == "at" else len(X))
    top, start, leaves, inputs = net, 0, None, (X, X_adv)
    if layer is not None:
        if lam or gamma:
            raise ValueError("a layer-local objective takes no lam or gamma")
        if not 0 <= layer < net.depth:
            raise ValueError(f"layer {layer} out of range for {net.depth} layers")
        top, leaves = MlpNetwork(net.layers[layer:]), (0,)
        ws, bs = flat_index_slices(net)[layer]
        start, stop = ws.start, (ws if bs is None else bs).stop
        w0 = flatten_weights(net)
        if layer:
            below = lift(net, wrap=tape.constant)[:layer]

            def layer_input(a):
                # the tape forward's ops, run on the layers below i only
                return tape.relu(forward_nodes(below, a)[1][-1]).value

            # at reads no clean batch
            inputs = (X if kind.variant == "at" else layer_input(X),
                      layer_input(X_adv))
    chunk = max(1, _STACK_ACTIVATIONS // (rows * sum(l.d_out for l in top.layers)))

    def chunked(fn):
        def call(w):
            w = np.asarray(w, dtype=np.float64)
            if layer is not None and (np.any(w[..., :start] != w0[:start])
                                      or np.any(w[..., stop:] != w0[stop:])):
                raise ValueError(f"weight vector differs from the net's "
                                 f"outside layer {layer}")
            w = w[..., start:]
            if w.ndim == 1:
                return fn(unflatten_weights(top, w))
            return np.concatenate([fn(unflatten_weights(top, w[i:i + chunk]))
                                   for i in range(0, len(w), chunk)])
        return stackable(call)

    def objective(lifted):
        return trh_module.objective_nodes(lifted, *inputs, y, kind, lam, gamma,
                                          stop_grad_clean, frozen)

    def value(candidate):
        out = objective(lift(candidate, wrap=tape.constant)).value
        return float(out) if out.ndim == 0 else out

    def grad(candidate):
        g = gradient_vector(candidate, objective, leaves)[1]
        if start:
            g = np.concatenate([np.zeros(g.shape[:-1] + (start,)), g], axis=-1)
        return g

    return chunked(value), chunked(grad)


def frozen_quad_form(net: MlpNetwork, X, X_adv, y, kind):
    """v -> v^T H v of the bare robust objective (no penalty terms) at the
    weights of `net`: second differences of :func:`frozen_objective_fns`
    values."""
    value_fn, _ = frozen_objective_fns(net, X, X_adv, y, kind)
    return quad_form_from_values(value_fn, flatten_weights(net))


def frozen_hvp(net: MlpNetwork, X, X_adv, y, kind, layer: int | None = None):
    """v -> H v of the bare robust objective at the weights of `net`: central
    differences of :func:`frozen_objective_fns` gradients.

    With `layer` = i the product is layer-local: v must be supported on
    weight layer i, and H v is the product's layer-i block with zeros
    elsewhere (the block ``H_ii v_i``), from gradients that run the net
    from layer i up only."""
    _, grad_fn = frozen_objective_fns(net, X, X_adv, y, kind, layer=layer)
    return hvp_from_grad(grad_fn, flatten_weights(net))


def weight_indices(net: MlpNetwork, layer: int | None = None,
                   include_bias: bool = False) -> np.ndarray:
    """Flat-vector indices of weight entries (optionally one layer only)."""
    slices = flat_index_slices(net)
    chunks = []
    for i, (ws, bs) in enumerate(slices):
        if layer is not None and i != layer:
            continue
        chunks.append(np.arange(ws.start, ws.stop))
        if include_bias and bs is not None:
            chunks.append(np.arange(bs.start, bs.stop))
    return np.concatenate(chunks)
