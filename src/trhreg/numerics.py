"""Floating-point kernel: deterministic RNG and finite-difference primitives.

Everything downstream (gradient checks, Hessian-trace oracles, Monte-Carlo
estimators) is built on the two ingredients in this module:

* :class:`Rng` -- a counter-based Philox generator behind numpy's
  ``SeedSequence`` spawning machinery.  Identical seeds give identical
  streams on every platform, and ``child(...)`` derives independent
  sub-streams from hashable path components, so per-trial / per-example
  streams never overlap.
* central finite differences at fixed step sizes (1e-5 for first
  derivatives, 1e-4 for second differences), which balance truncation
  against rounding error in 64-bit arithmetic: one routine for the
  gradient, one for the Hessian diagonal (every entry, or an index subset).
  Both build their stencil as a stack of weight vectors, one row per
  point, and hand it to the function in one call if the function is marked
  :func:`stackable`, row by row otherwise; either way the result is the
  same to the bit.

Monte-Carlo and probe estimates report :func:`mean_se`.

:func:`pin_allocator` fixes glibc's malloc thresholds, so that the cost of
the many short-lived arrays a run allocates does not depend on which large
block happened to be freed first.

The errors the CLI turns into exit codes 4-6 are defined here:
:class:`OracleError`, :class:`NonSmoothInput` (raised by
``layer_traces``) and :class:`OutOfRegimeError` (raised by ``pacbayes``),
so that the CLI can catch them without importing the modules that raise
them.

All arrays are float64 throughout the package, with one exception inside
:func:`trhreg.attacks.pgd`: each step's forward and input-backward run on
a float32 copy of the network, which never leaves that call.
"""

from __future__ import annotations

import ctypes
import platform

import numpy as np

# Default steps: h**2 truncation vs eps/h rounding cross over near these
# values for float64 and O(1) function values.
GRAD_STEP = 1e-5
HESS_STEP = 1e-4

# ReLU pre-activations closer to zero than this make central differences
# meaningless (the kink sits inside the stencil); oracle callers reject or
# resample such points.
SMOOTH_TOL = 1e-3


# glibc mallopt parameters (malloc.h) and the values pin_allocator sets.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 32 * 1024 * 1024
_TRIM_THRESHOLD_BYTES = 64 * 1024 * 1024


def pin_allocator() -> bool:
    """Fix glibc's mmap threshold (32 MiB) and trim threshold (64 MiB).

    glibc starts both low and raises them only after a large mmapped block
    is freed.  Until then every array above 128 KiB (a batch of hidden
    activations, a gradient) is mmapped and unmapped afresh, and each use
    page-faults its memory in again; so a run's speed would depend on
    whether some earlier large block happened to raise the thresholds.
    Fixed thresholds keep such arrays on the heap and its freed top in
    place.  Returns True once both are set; off glibc it does nothing and
    returns False.  Calling it again is harmless.

    ``cli.main``, the demo scripts and the test suite call it first; any
    other program that trains or attacks should too, since ``attacks.pgd``
    allocates fresh arrays on every step.
    """
    if platform.libc_ver()[0] != "glibc":
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES) == 1
            and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES) == 1)


class OracleError(RuntimeError):
    """A finite-difference oracle hit a non-finite evaluation."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class NonSmoothInput(RuntimeError):
    """A pre-activation sits too close to a ReLU kink for exact formulas."""


class OutOfRegimeError(RuntimeError):
    """Curvature too negative for the closed-form posterior variance."""

    def __init__(self, message, indices=None):
        super().__init__(message)
        self.indices = indices if indices is not None else []


class Rng:
    """Deterministic, splittable random stream.

    Wraps ``numpy.random.Generator`` over the Philox counter-based bit
    generator.  Sub-streams are derived with :meth:`child`, which feeds the
    path through ``SeedSequence`` spawn keys; distinct paths give
    statistically independent streams with period far beyond 2**32 draws.
    """

    def __init__(self, seed: int, _seq: np.random.SeedSequence | None = None):
        self.seed = int(seed)
        self._seq = _seq if _seq is not None else np.random.SeedSequence(self.seed)
        self._gen = np.random.Generator(np.random.Philox(self._seq))

    def child(self, *path) -> "Rng":
        """Independent sub-stream addressed by a tuple of ints/strings."""
        key = tuple(_path_component(p) for p in path)
        seq = np.random.SeedSequence(entropy=self._seq.entropy,
                                     spawn_key=self._seq.spawn_key + key)
        return Rng(self.seed, _seq=seq)

    # thin pass-throughs
    def uniform(self, low=0.0, high=1.0, size=None):
        return self._gen.uniform(low, high, size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return self._gen.normal(loc, scale, size)

    def integers(self, low, high=None, size=None):
        return self._gen.integers(low, high, size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


def _path_component(p) -> int:
    if isinstance(p, (int, np.integer)):
        if p < 0:
            raise ValueError("rng path components must be non-negative")
        return int(p)
    if isinstance(p, str):
        # stable 32-bit hash, platform independent
        h = 2166136261
        for b in p.encode("utf-8"):
            h = ((h ^ b) * 16777619) & 0xFFFFFFFF
        return h
    raise TypeError(f"unsupported rng path component: {p!r}")


def rademacher_vector(n: int, rng: Rng) -> np.ndarray:
    """Vector of n entries drawn +/-1 with equal probability."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return rng.integers(0, 2, size=n).astype(np.float64) * 2.0 - 1.0


def stackable(fn):
    """Mark `fn` as taking a ``(P, n)`` stack of weight vectors as well as
    one ``(n,)`` vector, returning one result per row; returns `fn`."""
    fn.stackable = True
    return fn


# Weight entries of one stencil block: bounds the stack a stencil builds.
_STENCIL_ENTRIES = 1 << 20


def _central_differences(f, w, indices, h: float, own_entry: bool = False):
    """``(f(w + h e_i) - f(w - h e_i)) / (2h)`` for every i in `indices`;
    with `own_entry` (f vector-valued) just entry i of each difference.

    The stencil is a stack of displaced copies of w, evaluated in blocks of
    at most ``_STENCIL_ENTRIES`` weight entries: one call per block for a
    :func:`stackable` f, one call per point otherwise.  Raises
    :class:`OracleError` naming the first index, in the order of
    `indices`, with a non-finite evaluation.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    w = np.asarray(w, dtype=np.float64)
    block = max(1, _STENCIL_ENTRIES // (2 * max(1, w.size)))
    out = [np.empty(0)]
    for start in range(0, indices.size, block):
        idx = indices[start:start + block]
        rows, cols = np.arange(2 * idx.size), np.tile(idx, 2)
        stencil = np.tile(w, (rows.size, 1))
        stencil[rows, cols] += np.repeat([h, -h], idx.size)
        if getattr(f, "stackable", False):
            values = np.asarray(f(stencil))
        else:
            values = np.array([f(point) for point in stencil])
        if own_entry:
            values = values[rows, cols]
        fp, fm = values[:idx.size], values[idx.size:]
        bad = np.flatnonzero(~(np.isfinite(fp) & np.isfinite(fm)))
        if bad.size:
            i = int(idx[bad[0]])
            what = "gradient" if own_entry else "evaluation"
            raise OracleError(f"non-finite {what} at index {i}", index=i)
        out.append((fp - fm) / (2.0 * h))
    return np.concatenate(out)


def finite_diff_gradient(f, w: np.ndarray, h: float = GRAD_STEP) -> np.ndarray:
    """Central-difference gradient of a scalar function of a weight vector.

    Entry i is ``(f(w + h e_i) - f(w - h e_i)) / (2h)``, the 2n stencil
    points evaluated as one stack when f is :func:`stackable`.  Exact to
    rounding on polynomials of degree <= 2.  Raises :class:`OracleError`
    with the first index whose evaluation comes back non-finite.
    """
    return _central_differences(f, w, np.arange(np.size(w)), h)


def hessian_diag_subset(grad, w: np.ndarray, indices=None) -> np.ndarray:
    """Hessian diagonal at `indices` (default: every index) from central
    differences of an analytic gradient at step ``HESS_STEP``: entry j is
    ``(grad(w + h e_i)_i - grad(w - h e_i)_i) / (2h)`` for ``i = indices[j]``,
    the stencil evaluated as one stack when `grad` is :func:`stackable`.
    Its sum is the Hessian-trace oracle used throughout the package.  Raises
    :class:`OracleError` with the first index whose gradient entry is
    non-finite."""
    w = np.asarray(w, dtype=np.float64)
    indices = (np.arange(w.size) if indices is None
               else np.asarray(indices, dtype=np.int64))
    return _central_differences(grad, w, indices, HESS_STEP, own_entry=True)


def mean_se(samples: np.ndarray):
    """``(mean, standard error)`` of a 1-d sample array; the error is 0 for one."""
    mean = float(np.mean(samples))
    if samples.size < 2:
        return mean, 0.0
    return mean, float(np.std(samples, ddof=1) / np.sqrt(samples.size))
