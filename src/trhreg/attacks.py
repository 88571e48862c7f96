"""Projected gradient ascent in the input ball, plus robust evaluation.

The attack's settings are an :class:`~trhreg.config.AttackConfig`, a
section type that lives in :mod:`trhreg.config` with the other five.
Step rule: sign-of-gradient steps for the max-norm ball, normalized
gradient steps for the Euclidean ball, random start uniform in the ball
(restarts require it).  The step size defaults to ``2.5 * delta / steps``,
a standard heuristic.  Projection is exact: after every step the iterate
satisfies the ball constraint to rounding, and a zero input gradient
leaves the iterate in place rather than erroring.

Cost: a step of ``pgd`` is one ``forward`` and one input-backward
(``input_gradient`` on that step's trace), each on fresh arrays.  Both run
on a float32 copy of the network, made once per call: a step needs only
the direction of the input gradient, and single-precision products take
about half the time.  The loss side (softmax and d(loss)/d(logits)) and
the step rule stay float64, so the step, the projection and the clamp are
exact as above, and everything ``pgd`` returns is float64.  The KL
attack's clean probabilities come from the same float32 forward, so its
direction at the clean point is exactly zero.  Entry points call
``numerics.pin_allocator`` first, so the per-step arrays are reused from
the heap rather than page-faulted in again on every step.  Every step is
row-wise, so a call on a subset of rows (``rows=``) does the work of those
rows only.

Floating-point flags: OpenBLAS's float32 kernel for a one-row product
computes on bytes past the end of an operand, so it can raise the
"invalid" flag on finite operands and a finite product, by chance (about
one ``verify --level quick`` process in 500).  The float32 products run
with the invalid and overflow flags ignored; a step whose direction is
not finite raises :class:`~trhreg.network.TrainingDivergence` instead (an
overflow that a ReLU zeroes leaves the direction as float64 would).

A row's step depends on nothing but its iterate, its clean point, its
label and its clean probabilities, so once a step leaves a row's iterate
unchanged bit for bit, every later step would too: the row has reached a
fixed point (in practice an l-inf iterate that the sign steps push
against the ball's corner, or a zero input gradient).  A call stops
stepping such rows, and returns early once none is left; on the
benchmark's 10-step attack of 500 two-moons rows that skips about 30 % of
the row-steps (37 % at 20 steps).  The rows still stepping then form a
smaller batch, with the caveat on batch sizes below.

``eval_robust_accuracy`` is the one definition of robust accuracy: the CE
attack whatever ``cfg.inner_loss`` (a TRADES config trains against KL),
with ``cfg.restarts`` restarts.  A point is correct only if every restart
leaves it correctly classified, which makes accuracy monotone
non-increasing in the number of restarts by construction.  It attacks only
the points in doubt.  When the attack makes at least ``_BOUND_MIN_STEPS``
steps in all, ``margin_lower_bound`` (interval bounds, about two float64
forwards) certifies each point whose worst margin over everything the
attack can reach is positive, and such a point is never attacked.  A point
that a restart breaks is not attacked by later restarts.  The random start
is drawn for every row and indexed, so each attacked row starts where an
attack on all rows would start it.  The BLAS kernel that computes a row
can change with the number of rows in the batch, so an attacked row's
products may differ from the full call's in the last float32 bits (as
may a row's products once other rows have settled in `pgd`).  A sign
step absorbs that unless a gradient component or a hidden pre-activation
is within rounding of zero; a normalized l2 step passes it on, a few 1e-8
of ``delta`` after ten steps.  The accuracy is the same unless a point
ends within that distance of the decision boundary.

Rounding allowance: a row counts as certified only when its bound exceeds
``_ROUNDING_ALLOWANCE = 1e-6``.  The bound and ``predictions`` both form
each logit as float64 sums of products; their rounding error is at most
about ``width * 2**-53`` times the summed magnitudes of those products per
layer, about 1e-9 at widths up to 1e3 and summed magnitudes up to 1e4.
The allowance dominates that by three orders of magnitude, so at those
scales no rounding on either side makes a certified row misclassified.  A
row at or below it is attacked, which costs only work.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .config import AttackConfig
from .network import (DenseLayer, MlpNetwork, TrainingDivergence, forward,
                      input_gradient)
from .numerics import Rng
from .tape import softmax

# a margin bound at or below this is treated as uncertified (module
# docstring, "Rounding allowance")
_ROUNDING_ALLOWANCE = 1e-6
# the bound costs about two attack steps on every row, so an evaluation
# whose attack makes fewer steps than this in all (steps x restarts) does
# not compute it.  In the benchmark that skips it in the per-epoch
# evaluations of blobs-k10 (3 steps) and of the probe (2 steps), and in
# `eval --restarts 1` of configs with 1 to 3 steps
_BOUND_MIN_STEPS = 4


def project(x_adv: np.ndarray, x0: np.ndarray, norm: str, delta: float) -> np.ndarray:
    """Nearest point of the delta-ball around x0 (per row for 2-d input).

    Idempotent: points within a few ulps of the boundary are left alone so
    that re-projecting an already-projected point is the identity.
    """
    x_adv = np.asarray(x_adv, dtype=np.float64)
    x0 = np.asarray(x0, dtype=np.float64)
    if x_adv.shape != x0.shape:
        raise ValueError("shape mismatch")
    d = x_adv - x0
    if norm == "linf":
        return x0 + np.clip(d, -delta, delta)
    if norm == "l2":
        nd = np.linalg.norm(d, axis=-1, keepdims=True)
        boundary = delta * (1.0 + 4e-16)  # rounding guard, ~1 ulp of slack
        scale = np.where(nd > boundary,
                         np.divide(delta, nd, out=np.ones_like(nd), where=nd > 0),
                         1.0)
        return x0 + d * scale
    raise ValueError(f"unknown norm {norm!r}")


def _dlogits(logits, y, cfg: AttackConfig, s_clean):
    """d(inner loss)/d(logits) at the adversarial logits, in float64
    whatever the logits' precision (softmax casts them up)."""
    s = softmax(logits)
    if cfg.inner_loss == "ce":
        s[np.arange(len(y)), y] -= 1.0
        return s
    return s - s_clean  # ascend KL(s_clean || s(x_adv))


def _single_precision(net: MlpNetwork) -> MlpNetwork:
    """A float32 copy of `net`, for the attack's ascent directions."""
    return MlpNetwork([DenseLayer(l.weights.astype(np.float32),
                                  None if l.bias is None else l.bias.astype(np.float32))
                       for l in net.layers])


def pgd(net: MlpNetwork, x, y, cfg: AttackConfig, rng: Rng,
        rows=None) -> np.ndarray:
    """Inner-loop maximizer; returns adversarial points, one per input row.

    Each step's direction comes from a float32 copy of `net` (see the
    module docstring); the iterate and the result are float64.  With
    `rows` (an index into the rows of 2-d `x`), only those rows are
    attacked and returned: the random start is still drawn for every row
    and then indexed, so a row gets the start a full call would give it.
    A row that a step leaves in place is not stepped again (it is at a
    fixed point), and the call returns once every row has settled.  A
    step direction that is not finite raises ``TrainingDivergence``.
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    X = np.atleast_2d(x)
    y = np.atleast_1d(np.asarray(y, dtype=np.int64))
    start = None
    if cfg.random_start and cfg.delta > 0:
        if cfg.norm == "linf":
            start = rng.uniform(-cfg.delta, cfg.delta, size=X.shape)
        else:
            direction = rng.normal(size=X.shape)
            norms = np.linalg.norm(direction, axis=1, keepdims=True)
            norms[norms == 0] = 1.0
            radius = cfg.delta * rng.uniform(0.0, 1.0, size=(X.shape[0], 1)) ** (1.0 / X.shape[1])
            start = direction / norms * radius
    if rows is not None:
        X, y = X[rows], y[rows]
        start = None if start is None else start[rows]
    net32 = _single_precision(net)
    s_clean = None
    if cfg.inner_loss == "kl":
        with np.errstate(invalid="ignore", over="ignore"):  # docstring, "flags"
            s_clean = softmax(forward(net32, X.astype(np.float32)).logits)

    if start is not None:
        x_adv = project(X + start, X, cfg.norm, cfg.delta)
    else:
        x_adv = X.copy()
    if cfg.clamp is not None:
        x_adv = np.clip(x_adv, cfg.clamp[0], cfg.clamp[1])

    alpha = cfg.effective_step
    # `out` holds the start, and each row's final iterate once it settles;
    # `live` indexes the rows still stepping, which x_adv, X, y and s_clean
    # then hold
    out, live = x_adv, np.arange(len(X))
    for k in range(cfg.steps):
        with np.errstate(invalid="ignore", over="ignore"):  # docstring, "flags"
            tr = forward(net32, x_adv.astype(np.float32))
            dlogits = _dlogits(tr.logits, y, cfg, s_clean)
            g = input_gradient(net32, tr, dlogits.astype(np.float32))
        if not np.isfinite(g).all():
            raise TrainingDivergence(f"attack step {k}: input gradient is not finite")
        g = g.astype(np.float64)
        if cfg.norm == "linf":
            step = alpha * np.sign(g)  # sign(0) = 0: zero-grad rows stay put
        else:
            gn = np.linalg.norm(g, axis=1, keepdims=True)
            step = np.where(gn > 0, alpha * g / np.where(gn > 0, gn, 1.0), 0.0)
        x_new = project(x_adv + step, X, cfg.norm, cfg.delta)
        if cfg.clamp is not None:
            x_new = np.clip(x_new, cfg.clamp[0], cfg.clamp[1])
        if k < cfg.steps - 1:
            moved = np.any(x_new != x_adv, axis=1)
            if not moved.all():
                out[live[~moved]] = x_new[~moved]
                live, x_new, X, y = live[moved], x_new[moved], X[moved], y[moved]
                if s_clean is not None:
                    s_clean = s_clean[moved]
        x_adv = x_new
        if live.size == 0:
            break
    if live.size < len(out):
        out[live] = x_adv
        x_adv = out
    return x_adv[0] if single else x_adv


def predictions(net: MlpNetwork, X) -> np.ndarray:
    return np.argmax(forward(net, np.atleast_2d(X)).logits, axis=1)


def clean_accuracy(net: MlpNetwork, dataset) -> float:
    return float(np.mean(predictions(net, dataset.inputs) == dataset.labels))


def margin_lower_bound(net: MlpNetwork, X, y, cfg: AttackConfig) -> np.ndarray:
    """A lower bound on each row's worst logit margin ``z_y - max_{k!=y} z_k``
    over every point `pgd` with `cfg` can reach from it: interval bound
    propagation (Gowal et al. 2018, arXiv:1810.12715).

    The first layer is exact over the ball: center ``x @ W0 + b0``, radius
    ``delta`` times the dual norm of each column of ``W0`` (l1 for the
    max-norm ball, l2 for the Euclidean one).  With a clamp box the attack
    can leave the ball (clipping a point outside the box), so the input is
    the box ``[clip(x - delta), clip(x + delta)]`` instead, which holds the
    clipped ball of either norm.  Each hidden layer maps ``(center,
    radius)`` to ``(c @ W + b, r @ |W|)`` and clamps the interval at 0; the
    top layer is taken as the margins themselves, ``W[:, y] - W[:, k]``, so
    a net with no hidden layer gets the exact worst-case margin.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.atleast_1d(np.asarray(y, dtype=np.int64))
    m, k = len(y), net.num_classes
    center, half = X, None  # half: the box's half-widths, None for the ball
    if cfg.clamp is not None:
        lo, hi = (np.clip(X + s * cfg.delta, *cfg.clamp) for s in (-1.0, 1.0))
        center, half = (lo + hi) / 2, (hi - lo) / 2
    for i, layer in enumerate(net.layers):
        w = layer.weights
        top = i == net.depth - 1
        if top:  # column y * k + j is w_y - w_j
            w = (w[:, :, None] - w[:, None, :]).reshape(len(w), k * k)
        pre = center @ w
        if layer.bias is not None:
            pre += layer.bias
        if half is None:
            rad = cfg.delta * np.linalg.norm(w, ord=1 if cfg.norm == "linf" else 2,
                                             axis=0)
        else:
            rad = half @ np.abs(w)
        if top:
            break
        # the ReLU image [lo, hi] of pre -/+ rad as center lo + half and
        # half-width (hi - lo) / 2, built in place: `pre` becomes `half`
        center = np.maximum(pre - rad, 0.0)
        half = np.maximum(np.add(pre, rad, out=pre), 0.0, out=pre)
        half -= center
        half /= 2
        center += half
    margins = (pre - rad).reshape(m, k, k)[np.arange(m), y]
    margins[np.arange(m), y] = np.inf
    return margins.min(axis=1)


def eval_robust_accuracy(net: MlpNetwork, dataset, cfg: AttackConfig,
                         rng: Rng) -> float:
    """Fraction of points correct under every restart of the CE attack.

    The attack is `cfg` with the CE inner loss, whatever ``cfg.inner_loss``,
    and ``cfg.restarts`` restarts.  Restart r attacks with ``rng.child(r)``, as a `pgd` call on every row
    would, but only the rows still in doubt: a row whose
    `margin_lower_bound` exceeds ``_ROUNDING_ALLOWANCE`` is correct at every
    point the attack can reach and is never attacked, and a row that a
    restart breaks is not attacked again.  The loop stops when no row is
    left.  An attack of fewer than ``_BOUND_MIN_STEPS`` steps in all is
    cheaper than the bound, which is then not computed.
    """
    X = dataset.inputs
    y = dataset.labels
    if len(y) == 0:
        raise ValueError("dataset must be nonempty")
    cfg = replace(cfg, inner_loss="ce")
    correct = np.ones(len(y), dtype=bool)
    doubtful = np.arange(len(y))
    if cfg.steps * cfg.restarts >= _BOUND_MIN_STEPS:
        doubtful = np.flatnonzero(margin_lower_bound(net, X, y, cfg) <= _ROUNDING_ALLOWANCE)
    for r in range(cfg.restarts):
        if doubtful.size == 0:
            break
        # while every row is in doubt, attack them all without copying
        x_adv = pgd(net, X, y, cfg, rng.child(r),
                    rows=None if doubtful.size == len(y) else doubtful)
        broken = predictions(net, x_adv) != y[doubtful]
        correct[doubtful[broken]] = False
        doubtful = doubtful[~broken]
    return float(np.mean(correct))
