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
  diagonal Hessian a single probe is already exact since the probe entries
  square to one;
* ``frozen_objective_fns`` gives the value and gradient that
  ``quad_form_from_values`` and ``hvp_from_grad`` difference.  Both are one
  :func:`trhreg.trh.objective_nodes` closure, run on constant weights for a
  value (no tape graph) and on leaves for a gradient.  Both take a
  ``(P, n)`` stack of weight vectors as well as one vector and evaluate the
  stack on a stacked network in one pass (one backward for all P
  gradients), so a per-coordinate stencil costs one call rather than 2k;
  the probe estimators step one point at a time.
  With ``layer`` = i both are functions of layer i's own parameters
  (:func:`trhreg.network.layer_params`), run the net from layer i up and
  differentiate layer i alone, with the whole-network bits on that block.

Eigenvalue mean/std follow from (Tr H, Tr H^2, n) without materializing any
Hessian.  Quadratic forms use second differences of objective values at a
wider step (second differences are noisier than first), Hessian-vector
products use central differences of gradients.  Both step every weight the
probe moves at once (a layer probe moves one layer, a full probe all of
them), so ReLU kinks inside the stencil enter the estimate.
"""

from __future__ import annotations

import numpy as np

from . import trh as trh_module
from .network import (MlpNetwork, flatten_weights, forward, gradient_vector,
                      layer_params, lift, unflatten_weights)
from .numerics import (HESS_STEP, OracleError, Rng, hessian_diag_subset,
                       mean_se, rademacher_vector)

QUAD_STEP = 1e-3  # second differences of values need a wider stencil


def exact_trace(grad_fn, w0: np.ndarray, indices=None) -> float:
    """Trace over a parameter subset as a finite-difference sum: the sum of
    :func:`hessian_diag_subset` (central differences of `grad_fn` at step
    ``HESS_STEP``).

    "Exact" means deterministic and per-coordinate, not closed-form: the
    result carries the O(h^2) truncation of the stencil, and a ReLU kink
    inside the stencil spoils it.  `indices` selects the diagonal entries
    (default: all).  Intended for desk-scale subsets: the stencil holds two
    gradient evaluations per entry, handed to `grad_fn` as one stack.  For
    weight layer i, pass the layer-local gradient (``layer=i``) and
    :func:`~trhreg.network.layer_params`, whose weights lead the vector.
    """
    return float(hessian_diag_subset(grad_fn, w0, indices).sum())


# -- stochastic estimators ---------------------------------------------


def hutchinson_trace(quad_form, dim: int, probes: int, rng: Rng):
    """Rademacher estimate of Tr(H) from a quadratic form v -> v^T H v.

    Returns ``(estimate, standard_error)``.
    """
    if probes < 1:
        raise ValueError("probes must be >= 1")
    vals = np.empty(probes)
    for p in range(probes):
        vals[p] = quad_form(rademacher_vector(dim, rng))
    return mean_se(vals)


def hutchinson_trace_pair(hvp, dim: int, probes: int, rng: Rng):
    """Rademacher estimates of Tr(H) and Tr(H^2) from the same
    Hessian-vector products.

    Each probe v gives ``v . Hv`` and ``||H v||^2``; returns
    ``((trace, se), (trace_sq, se_sq))``.
    """
    if probes < 1:
        raise ValueError("probes must be >= 1")
    tvals = np.empty(probes)
    sqvals = np.empty(probes)
    for p in range(probes):
        v = rademacher_vector(dim, rng)
        hv = hvp(v)
        tvals[p] = float(np.dot(v, hv))
        sqvals[p] = float(np.dot(hv, hv))
    return mean_se(tvals), mean_se(sqvals)


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

    Handed one weight vector ``(n,)`` both functions return a float and an
    ``(n,)`` gradient; handed a stack ``(P, n)``, one value ``(P,)`` and
    one gradient row ``(P, n)`` per vector, equal to the bit to per-row
    calls.  A stack is evaluated on a stacked network
    (:func:`unflatten_weights`), in chunks that hold at most
    ``_STACK_ACTIVATIONS`` activation entries.

    With `layer` = i the functions are layer-local: a vector is layer i's
    own s_i parameters (:func:`~trhreg.network.layer_params`), and the
    layers above keep the weights of `net`.  The clean and adversarial
    inputs of layer i are read once from
    ``network.forward(net, .).layer_inputs[i]``, at the weights of `net`
    (AT reads no clean batch, so its clean batch is not run); a call runs
    the net from layer i up, with only layer i's parameters as tape
    leaves, so its backward stops at layer i and makes no weight gradient
    above it.  Values and gradients equal the whole-network route's on
    layer i's block to the bit (``network.forward`` is the tape forward
    on constant weights).  A vector whose last axis is not s_i raises
    ``ValueError``, and so does a nonzero `lam` or `gamma`.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    X_adv = np.atleast_2d(np.asarray(X_adv, dtype=np.float64))
    y = np.atleast_1d(np.asarray(y, dtype=np.int64))
    frozen = trh_module.capture_frozen(net, X, X_adv, y, kind)
    rows = len(X_adv) + (0 if kind.variant == "at" else len(X))
    top, size, leaves = net, None, None
    if layer is not None:
        if lam or gamma:
            raise ValueError("a layer-local objective takes no lam or gamma")
        if not 0 <= layer < net.depth:
            raise ValueError(f"layer {layer} out of range for {net.depth} layers")
        top, leaves = MlpNetwork(net.layers[layer:]), (0,)
        size = layer_params(net, layer).size
        above = flatten_weights(top)[size:]
        if layer:
            X_adv = forward(net, X_adv).layer_inputs[layer]
            if kind.variant != "at":  # at reads no clean batch
                X = forward(net, X).layer_inputs[layer]
    chunk = max(1, _STACK_ACTIVATIONS // (rows * sum(l.d_out for l in top.layers)))

    def chunked(fn):
        def call(w):
            w = np.asarray(w, dtype=np.float64)
            if layer is not None:
                if w.shape[-1] != size:
                    raise ValueError(f"layer {layer} has {size} parameters, "
                                     f"got a vector of shape {w.shape}")
                w = np.concatenate(
                    [w, np.broadcast_to(above, w.shape[:-1] + above.shape)], axis=-1)
            if w.ndim == 1:
                return fn(unflatten_weights(top, w))
            return np.concatenate([fn(unflatten_weights(top, w[i:i + chunk]))
                                   for i in range(0, len(w), chunk)])
        return call

    def objective(lifted):
        return trh_module.objective_nodes(lifted, X, X_adv, y, kind, lam, gamma,
                                          stop_grad_clean, frozen)

    def value(candidate):
        out = objective(lift(candidate, leaves=()))
        return float(out) if out.ndim == 0 else out

    def grad(candidate):
        return gradient_vector(candidate, objective, leaves)[1][..., :size]

    return chunked(value), chunked(grad)
