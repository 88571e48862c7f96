"""Synthetic two-moons data and a small CSV loader with centering.

The two-moons construction: class 0 on the upper unit half-circle
``(cos t, sin t)``, class 1 on ``(1 - cos t, -sin t + 0.5)``, angles drawn
uniformly from [0, pi], plus isotropic Gaussian noise.  Class counts are
exactly balanced (ceil/floor split), and generation is deterministic per
seed.

CSV files carry feature columns followed by one integer label column;
``normalize_center`` subtracts the global scalar mean and divides by the
global scalar standard deviation.  When training on centered data, attack
radii stated in raw input units must be rescaled by 1/std (use
``Dataset.scale`` and ``AttackConfig.scaled``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import Rng

STD_FLOOR = 1e-12


@dataclass
class Dataset:
    inputs: np.ndarray       # (m, d)
    labels: np.ndarray       # (m,) int class indices
    num_classes: int
    scale: float | None = None  # set by normalize_center

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.inputs.ndim != 2 or len(self.labels) != self.inputs.shape[0]:
            raise ValueError("inputs must be (m, d) with matching labels")
        if len(self.labels) < 1:
            raise ValueError("dataset must be nonempty")
        if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
            raise ValueError("labels out of range")

    def __len__(self) -> int:
        return len(self.labels)


def two_moons(n: int, noise_std: float = 0.1, seed: int = 0) -> Dataset:
    if n < 2:
        raise ValueError("n must be >= 2")
    if noise_std < 0:
        raise ValueError("noise_std must be >= 0")
    rng = Rng(seed).child("two-moons")
    n_upper = (n + 1) // 2
    n_lower = n // 2
    t_up = rng.uniform(0.0, np.pi, size=n_upper)
    t_lo = rng.uniform(0.0, np.pi, size=n_lower)
    upper = np.column_stack([np.cos(t_up), np.sin(t_up)])
    lower = np.column_stack([1.0 - np.cos(t_lo), -np.sin(t_lo) + 0.5])
    inputs = np.vstack([upper, lower])
    inputs += rng.normal(0.0, noise_std, size=inputs.shape) if noise_std > 0 else 0.0
    labels = np.concatenate([np.zeros(n_upper, dtype=np.int64),
                             np.ones(n_lower, dtype=np.int64)])
    return Dataset(inputs, labels, num_classes=2)


class CsvFormatError(ValueError):
    pass


def load_csv(path) -> Dataset:
    """Parse `d` float feature columns plus a final integer label column.

    A malformed row, a nan or ``±inf`` feature among them, raises
    :class:`CsvFormatError` naming its line."""
    rows = []
    labels = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            fields = line.split(",")
            if lineno == 1 and _looks_like_header(fields):
                continue
            if len(fields) < 2:
                raise CsvFormatError(f"line {lineno}: need features plus a label")
            try:
                feats = [float(v) for v in fields[:-1]]
            except ValueError as exc:
                raise CsvFormatError(f"line {lineno}: bad feature value ({exc})") from None
            if not all(map(math.isfinite, feats)):
                raise CsvFormatError(f"line {lineno}: non-finite feature value")
            label_txt = fields[-1].strip()
            try:
                label = int(label_txt)
            except ValueError:
                raise CsvFormatError(f"line {lineno}: non-integer label {label_txt!r}") from None
            if label < 0:
                raise CsvFormatError(f"line {lineno}: negative label {label}")
            if rows and len(feats) != len(rows[0]):
                raise CsvFormatError(f"line {lineno}: inconsistent column count")
            rows.append(feats)
            labels.append(label)
    if not rows:
        raise CsvFormatError("no data rows")
    labels = np.asarray(labels, dtype=np.int64)
    return Dataset(np.asarray(rows, dtype=np.float64), labels,
                   num_classes=int(labels.max()) + 1)


def _looks_like_header(fields) -> bool:
    try:
        [float(v) for v in fields]
        return False
    except ValueError:
        return True


def normalize_center(ds: Dataset) -> Dataset:
    """Subtract the global mean, divide by the global std (scalars)."""
    mean = float(ds.inputs.mean())
    std = float(ds.inputs.std())
    if std < STD_FLOOR:
        std = 1.0  # degenerate constant data: leave values centered only
    return Dataset((ds.inputs - mean) / std, ds.labels, ds.num_classes,
                   scale=std)
