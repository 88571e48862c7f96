"""Per-example references for the batched loss body and the closed forms.

``trh._loss_rows`` computes every robust loss of a batch at once; the
one-example losses here, written straight from their definitions, check it
(``test_trh.py``) and are pinned themselves by ``test_losses.py``.

The softmax derivative matrices are the algebraic core of every closed-form
curvature trace in :mod:`trhreg.trh`:

* ``Phi = diag(s) - s s^T`` is the Jacobian of softmax w.r.t. the logits,
* ``Psi = I - 1 s^T`` is the Jacobian of log-softmax,
* ``h = s - s**2`` is the diagonal of ``Phi``.

They satisfy ``Phi @ 1 = 0``, ``Psi @ 1 = 0`` and ``Phi = diag(s) @ Psi``.
One further identity is load-bearing for the second-derivative algebra and
is checked against finite differences in
``test_losses.py::TestSoftmaxDerivs::test_second_derivative_identity``:

    d Phi[i, k] / d g[k] = Phi[i, k] * (1 - 2 s[k])        (for every i)

and in particular ``d h[k] / d g[j] = Phi[k, j] * (1 - 2 s[k])``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from trhreg.losses import softmax


@dataclass
class SoftmaxDerivs:
    s: np.ndarray     # softmax probabilities, (K,)
    phi: np.ndarray   # d softmax / d logits, (K, K)
    psi: np.ndarray   # d log-softmax / d logits, (K, K)
    h: np.ndarray     # diagonal of phi: s - s**2


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def softmax_derivs(logits: np.ndarray) -> SoftmaxDerivs:
    """All softmax derivative structures for one logit vector."""
    g = np.asarray(logits, dtype=np.float64)
    if g.ndim != 1 or g.size < 2:
        raise ValueError("logits must be a vector with K >= 2")
    s = softmax(g)
    phi = np.diag(s) - np.outer(s, s)
    psi = np.eye(g.size) - np.outer(np.ones(g.size), s)
    h = s - s ** 2
    return SoftmaxDerivs(s=s, phi=phi, psi=psi, h=h)


def cross_entropy(logits: np.ndarray, y: int) -> float:
    """Negative log softmax probability of class y, log-sum-exp stable."""
    ls = log_softmax(np.asarray(logits, dtype=np.float64))
    if not 0 <= int(y) < ls.shape[-1]:
        raise ValueError(f"label {y} outside [0, {ls.shape[-1]})")
    return float(-ls[int(y)])


def cross_entropy_rows(logits: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-example cross entropy for batched logits (m, K)."""
    ls = log_softmax(np.atleast_2d(logits))
    y = np.asarray(y, dtype=np.int64)
    return -ls[np.arange(ls.shape[0]), y]


def kl_div(p: np.ndarray, q: np.ndarray) -> float:
    """KL(p || q) for probability vectors, with 0 * log 0 handled as 0."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    out = 0.0
    for pi, qi in zip(p, q):
        if pi > 0.0:
            out += pi * (np.log(pi) - np.log(qi))
    return float(out)


def alp_pair_loss(p: np.ndarray, q: np.ndarray) -> float:
    """Squared L2 distance between two probability vectors; in [0, 2]."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    return float(np.sum((p - q) ** 2))


@dataclass
class MartTerms:
    bce: float          # boosted cross entropy
    wkl: float          # weighted KL divergence
    kappa_star: int     # runner-up class on the adversarial point


def mart_losses(trace_clean, trace_adv, y: int) -> MartTerms:
    """The two components of the margin-boosted robust loss.

    ``bce`` couples the clean cross entropy with a margin term on the
    adversarial point, ``wkl`` is the clean/adversarial KL weighted by
    (1 - clean probability of the label).  The boosted term intentionally
    evaluates its cross entropy on the *clean* input; the curvature
    derivation in :mod:`trhreg.trh` depends on that choice.  ``kappa_star``
    is the most-confusable wrong class on the adversarial point (lowest
    index wins ties).
    """
    g = np.asarray(trace_clean.logits, dtype=np.float64)
    g_adv = np.asarray(trace_adv.logits, dtype=np.float64)
    k = g.shape[-1]
    if not 0 <= int(y) < k:
        raise ValueError(f"label {y} outside [0, {k})")
    y = int(y)
    s = softmax(g)
    s_adv = softmax(g_adv)
    masked = s_adv.copy()
    masked[y] = -np.inf
    kappa_star = int(np.argmax(masked))  # argmax returns lowest max index
    bce = cross_entropy(g, y) - float(np.log1p(-s_adv[kappa_star]))
    wkl = kl_div(s, s_adv) * float(1.0 - s[y])
    return MartTerms(bce=bce, wkl=wkl, kappa_star=kappa_star)
