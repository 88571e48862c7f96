"""The robust-loss kind and the softmax.

The batched loss body of every variant is ``trh._loss_rows`` (evaluated on
constants by :func:`trhreg.trh.robust_loss_rows`); the per-example losses
and softmax-derivative identities it is checked against live in the tests
as references.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_VARIANTS = ("at", "trades", "alp", "mart")


@dataclass(frozen=True)
class RobustLossKind:
    """Which robust objective to train: at | trades | alp | mart.

    `penalty` is the pairing coefficient of the variant (the TRADES KL
    weight, the ALP pairing weight or the MART weighted-KL weight); it is
    ignored for plain adversarial training.
    """

    variant: str
    penalty: float = 0.0

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown loss variant {self.variant!r}")
        if self.penalty < 0:
            raise ValueError("penalty must be >= 0")


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise (or 1-d) softmax with max subtraction."""
    z = np.asarray(logits, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)
