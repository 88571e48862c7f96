"""Projected gradient ascent in the input ball, plus robust evaluation.

Step rule: sign-of-gradient steps for the max-norm ball, normalized
gradient steps for the Euclidean ball, random start uniform in the ball
(restarts require it).  The step size defaults to ``2.5 * delta / steps``,
a standard heuristic.  Projection is exact: after every step the iterate
satisfies the ball constraint to rounding, and a zero input gradient
leaves the iterate in place rather than erroring.

Cost: a step of ``pgd`` is one ``forward`` and one input-backward
(``input_gradient`` on that step's trace), each on fresh arrays.  Entry
points call ``numerics.pin_allocator`` first, so those per-step arrays are
reused from the heap rather than page-faulted in again on every step.

``eval_robust_accuracy`` counts a point as correct only if every restart
leaves it correctly classified, which makes accuracy monotone
non-increasing in the number of restarts by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .losses import softmax
from .network import MlpNetwork, forward, input_gradient
from .numerics import Rng

_NORMS = ("linf", "l2")
_INNER = ("ce", "kl")


@dataclass(frozen=True)
class AttackConfig:
    delta: float
    steps: int = 10
    norm: str = "linf"
    step_size: float | None = None
    restarts: int = 1
    inner_loss: str = "ce"
    clamp: tuple[float, float] | None = None
    random_start: bool = True

    def __post_init__(self):
        if self.norm not in _NORMS:
            raise ValueError(f"unknown norm {self.norm!r}")
        if self.inner_loss not in _INNER:
            raise ValueError(f"unknown inner loss {self.inner_loss!r}")
        # delta == 0 is allowed as the degenerate no-attack evaluation case
        if self.delta < 0 or self.steps < 1 or self.restarts < 1:
            raise ValueError("need delta >= 0, steps >= 1, restarts >= 1")
        if self.step_size is not None and self.step_size <= 0:
            raise ValueError("step_size must be positive")
        if self.clamp is not None and not self.clamp[0] <= self.clamp[1]:
            raise ValueError(f"clamp box {self.clamp} has its lower bound above "
                             "its upper bound")

    @property
    def effective_step(self) -> float:
        return self.step_size if self.step_size is not None else 2.5 * self.delta / self.steps

    def scaled(self, factor: float) -> "AttackConfig":
        """Radius (and step) rescaled, e.g. into normalized input units."""
        return replace(self, delta=self.delta * factor,
                       step_size=None if self.step_size is None
                       else self.step_size * factor)


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
    """d(inner loss)/d(logits) at the adversarial logits."""
    s = softmax(logits)
    if cfg.inner_loss == "ce":
        s[np.arange(len(y)), y] -= 1.0
        return s
    return s - s_clean  # ascend KL(s_clean || s(x_adv))


def pgd(net: MlpNetwork, x, y, cfg: AttackConfig, rng: Rng) -> np.ndarray:
    """Inner-loop maximizer; returns adversarial points, one per input row."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    X = np.atleast_2d(x)
    y = np.atleast_1d(np.asarray(y, dtype=np.int64))
    s_clean = None
    if cfg.inner_loss == "kl":
        s_clean = softmax(forward(net, X).logits)

    if cfg.random_start and cfg.delta > 0:
        if cfg.norm == "linf":
            start = rng.uniform(-cfg.delta, cfg.delta, size=X.shape)
        else:
            direction = rng.normal(size=X.shape)
            norms = np.linalg.norm(direction, axis=1, keepdims=True)
            norms[norms == 0] = 1.0
            radius = cfg.delta * rng.uniform(0.0, 1.0, size=(X.shape[0], 1)) ** (1.0 / X.shape[1])
            start = direction / norms * radius
        x_adv = project(X + start, X, cfg.norm, cfg.delta)
    else:
        x_adv = X.copy()
    if cfg.clamp is not None:
        x_adv = np.clip(x_adv, cfg.clamp[0], cfg.clamp[1])

    alpha = cfg.effective_step
    for _ in range(cfg.steps):
        tr = forward(net, x_adv)
        g = input_gradient(net, x_adv, _dlogits(tr.logits, y, cfg, s_clean),
                           trace=tr)
        if cfg.norm == "linf":
            step = alpha * np.sign(g)  # sign(0) = 0: zero-grad rows stay put
        else:
            gn = np.linalg.norm(g, axis=1, keepdims=True)
            step = np.where(gn > 0, alpha * g / np.where(gn > 0, gn, 1.0), 0.0)
        x_adv = project(x_adv + step, X, cfg.norm, cfg.delta)
        if cfg.clamp is not None:
            x_adv = np.clip(x_adv, cfg.clamp[0], cfg.clamp[1])
    return x_adv[0] if single else x_adv


def predictions(net: MlpNetwork, X) -> np.ndarray:
    return np.argmax(forward(net, np.atleast_2d(X)).logits, axis=1)


def clean_accuracy(net: MlpNetwork, dataset) -> float:
    return float(np.mean(predictions(net, dataset.inputs) == dataset.labels))


def eval_robust_accuracy(net: MlpNetwork, dataset, cfg: AttackConfig,
                         rng: Rng) -> float:
    """Fraction of points correct under the worst case over all restarts."""
    X = dataset.inputs
    y = dataset.labels
    if len(y) == 0:
        raise ValueError("dataset must be nonempty")
    correct = np.ones(len(y), dtype=bool)
    for r in range(cfg.restarts):
        x_adv = pgd(net, X, y, cfg, rng.child(r))
        correct &= predictions(net, x_adv) == y
    return float(np.mean(correct))
