"""Dense ReLU networks with cached forward traces and exact gradients.

A network is a stack of dense layers with ReLU between them and identity at
the output.  The final layer is bias-free: the closed-form curvature
expressions in :mod:`trhreg.trh` are traces over the top weight matrix
alone, and a bias-free top layer makes them the complete top-layer trace.
Hidden layers may carry biases.

Weight layout is fixed and documented: layer order, weight matrices
row-major ``(d_in, d_out)``, bias (when present) after the weights of its
layer.  ``flatten_weights``/``unflatten_weights`` round-trip bit-exactly in
this ordering, which is what the finite-difference oracles and the Gaussian
posterior machinery operate on.

The forward pass has one body, :func:`forward_nodes`, on the parameters
:func:`lift` gives: tape leaves for gradients, or the network's own arrays
for values.  :func:`forward` runs it on the arrays, so it is plain numpy,
and a float32 network runs in float32.

A *stacked* network holds P weight vectors at once: ``unflatten_weights``
of a ``(P, n)`` stack gives layers with weights ``(P, d_in, d_out)`` and
biases ``(P, 1, d_out)``.  :func:`forward`, :func:`lift`,
:func:`forward_nodes`, :func:`backprop` and :func:`gradient_vector` take
such a network and give every copy its own result along a leading axis, in
one pass; the finite-difference oracles evaluate whole stencils this way.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import tape
from .numerics import Rng


class TrainingDivergence(RuntimeError):
    """An objective, or an attack step's direction, is not finite."""


_FLOAT32 = np.dtype(np.float32)


def _float_array(a) -> np.ndarray:
    """`a` as a float array: a float32 array stays as it is (the attack's
    single-precision copy, see :func:`trhreg.attacks.pgd`), anything else
    becomes float64."""
    if isinstance(a, np.ndarray) and a.dtype is _FLOAT32:
        return a
    return np.asarray(a, dtype=np.float64)


@dataclass
class DenseLayer:
    weights: np.ndarray  # (d_in, d_out), or (P, d_in, d_out) in a stack
    bias: np.ndarray | None = None  # (d_out,), or (P, 1, d_out) in a stack

    def __post_init__(self):
        self.weights = _float_array(self.weights)
        if self.weights.ndim not in (2, 3):
            raise ValueError("layer weights must be 2-d (3-d in a stack)")
        if self.bias is not None:
            self.bias = _float_array(self.bias)
            shape = ((self.d_out,) if self.weights.ndim == 2 else
                     (self.weights.shape[0], 1, self.d_out))
            if self.bias.shape != shape:
                raise ValueError("bias shape must match layer output dim")

    @property
    def d_in(self) -> int:
        return self.weights.shape[-2]

    @property
    def d_out(self) -> int:
        return self.weights.shape[-1]


@dataclass
class MlpNetwork:
    layers: list[DenseLayer] = field(default_factory=list)

    def __post_init__(self):
        if not self.layers:
            raise ValueError("network needs at least one layer")
        for a, b in zip(self.layers, self.layers[1:]):
            if a.d_out != b.d_in:
                raise ValueError(f"layer dims do not chain: {a.d_out} vs {b.d_in}")
        if self.layers[-1].bias is not None:
            raise ValueError("final layer must be bias-free")
        if self.num_classes < 2:
            raise ValueError("output dimension must be >= 2")

    @property
    def input_dim(self) -> int:
        return self.layers[0].d_in

    @property
    def num_classes(self) -> int:
        return self.layers[-1].d_out

    @property
    def depth(self) -> int:
        return len(self.layers)

    def copy(self) -> "MlpNetwork":
        return MlpNetwork([DenseLayer(l.weights.copy(),
                                      None if l.bias is None else l.bias.copy())
                           for l in self.layers])


class ForwardTrace(NamedTuple):
    """The record of one forward pass, :func:`forward_nodes`'s result.

    ``layer_inputs[i]`` is the input to layer i (``layer_inputs[0]`` is x),
    ``preacts[i]`` the pre-activation output of layer i; hidden layer
    inputs satisfy ``layer_inputs[i+1] = max(0, preacts[i])`` and the
    logits are exactly ``features @ W_top``.  Entries are tape nodes where
    they depend on a leaf, arrays elsewhere.
    """

    layer_inputs: list
    preacts: list

    @property
    def features(self):
        """Penultimate representation: input to the top layer."""
        return self.layer_inputs[-1]

    @property
    def logits(self):
        return self.preacts[-1]


def init_mlp(dims, rng: Rng, hidden_bias: bool = True) -> MlpNetwork:
    """Gaussian init with variance 1/d_in per layer; biases start at zero."""
    dims = list(dims)
    if len(dims) < 2:
        raise ValueError("need at least input and output dims")
    if any(d < 1 for d in dims):
        raise ValueError(f"every layer width must be >= 1, got {dims}")
    layers = []
    for i, (d_in, d_out) in enumerate(zip(dims, dims[1:])):
        w = rng.normal(0.0, 1.0 / np.sqrt(d_in), size=(d_in, d_out))
        last = i == len(dims) - 2
        b = None if (last or not hidden_bias) else np.zeros(d_out)
        layers.append(DenseLayer(w, b))
    return MlpNetwork(layers)


def forward(net: MlpNetwork, x: np.ndarray) -> ForwardTrace:
    """Run the network on x (``(d,)`` or ``(m, d)``) and cache the trace:
    :func:`forward_nodes` on the network's own arrays, so plain numpy.

    x itself is kept, not copied, as layer input 0.  A stacked network
    gives every array after layer input 0 a leading stack axis.  A float32
    x on a network of float32 layers gives a float32 trace.
    """
    x = _float_array(x)
    single = x.ndim == 1
    X = x[None, :] if single else x
    if X.shape[1] != net.input_dim:
        raise ValueError(f"input dim {X.shape[1]} != network input dim {net.input_dim}")
    trace = forward_nodes(lift(net, leaves=()), X)
    if single:
        return ForwardTrace(*([a[..., 0, :] for a in part] for part in trace))
    return trace


def min_preact_magnitude(net: MlpNetwork, x: np.ndarray,
                         trace: ForwardTrace | None = None) -> float:
    """Smallest |hidden pre-activation|; small values sit on a ReLU kink.
    Handed the forward trace at x, it runs no forward of its own."""
    tr = forward(net, x) if trace is None else trace
    hidden = tr.preacts[:-1]
    if not hidden:
        return np.inf
    return min(float(np.min(np.abs(p))) for p in hidden)


# -- parameter vector <-> network ------------------------------------


def param_count(net: MlpNetwork) -> int:
    n = 0
    for l in net.layers:
        n += l.weights.size
        if l.bias is not None:
            n += l.bias.size
    return n


def flatten_weights(net: MlpNetwork) -> np.ndarray:
    parts = []
    for l in net.layers:
        parts.append(l.weights.ravel())
        if l.bias is not None:
            parts.append(l.bias)
    return np.concatenate(parts)


def unflatten_weights(net: MlpNetwork, w: np.ndarray) -> MlpNetwork:
    """The network of shape `net` with weight vector w, or the stacked
    network of a ``(P, n)`` stack of them."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim not in (1, 2) or w.shape[-1] != param_count(net):
        raise ValueError(f"expected {param_count(net)} params, got shape {w.shape}")
    lead = w.shape[:-1]
    layers = []
    pos = 0
    for l in net.layers:
        k = l.weights.size
        weights = w[..., pos:pos + k].reshape(lead + l.weights.shape).copy()
        pos += k
        bias = None
        if l.bias is not None:
            bias = w[..., pos:pos + l.bias.size].copy()
            if lead:
                bias = bias[:, None, :]
            pos += l.bias.size
        layers.append(DenseLayer(weights, bias))
    return MlpNetwork(layers)


def layer_params(net: MlpNetwork, i: int) -> np.ndarray:
    """Layer i's block of :func:`flatten_weights`: its weights row-major,
    then its bias (when present)."""
    l = net.layers[i]
    return np.concatenate([l.weights.ravel()] + ([] if l.bias is None else [l.bias]))


# -- differentiation ---------------------------------------------------


def lift(net: MlpNetwork, leaves=None):
    """Every parameter as a tape leaf: list of (W, bias|None).  With
    `leaves`, a collection of layer indices, only those layers are leaves
    and every other layer is its own arrays, a constant;
    ``lift(net, leaves=())`` is the constant route."""
    def node(value, i):
        return tape.leaf(value) if leaves is None or i in leaves else value
    return [(node(l.weights, i), None if l.bias is None else node(l.bias, i))
            for i, l in enumerate(net.layers)]


def forward_nodes(lifted, X) -> ForwardTrace:
    """Forward pass of lifted parameters on constant inputs X (m, d): the
    one body of the forward pass.

    Each layer is one :func:`tape.dense`, ``x @ W + b``, then
    :func:`tape.relu`, so the tape keeps one pre-activation array per
    layer; on constant weights every entry is a plain array.  A float32 X
    on float32 weights stays float32 (the attack's single-precision copy).
    """
    cur = np.atleast_2d(_float_array(X))
    layer_inputs = [cur]
    preacts = []
    depth = len(lifted)
    for i, (w, b) in enumerate(lifted):
        pre = tape.dense(cur, w, b)
        preacts.append(pre)
        if i < depth - 1:
            cur = tape.relu(pre)
            layer_inputs.append(cur)
    return ForwardTrace(layer_inputs, preacts)


def backprop(net: MlpNetwork, objective, leaves=None):
    """Exact gradients of a scalar objective built on lifted parameters.

    `objective` receives the lifted layer list and returns a scalar tape
    node (typically the mean loss of a batch plus regularizers).  Returns
    ``(loss_value, grads)`` with one ``(dW, db|None)`` pair per layer.
    Raises :class:`TrainingDivergence` if the loss is non-finite.  With
    `leaves` (layer indices, see :func:`lift`) the other layers are tape
    constants: the backward pass computes no gradient for them, and their
    entries of ``grads`` are zero-filled.

    On a stacked network the objective returns one value per copy, shape
    ``(P,)``; their sum is backpropagated, so row p of every gradient is
    the gradient at copy p, and the loss value is the ``(P,)`` array.

    The graph an objective builds on :func:`forward_nodes` holds one node
    per dense layer and side; the backward pass frees each interior adjoint
    once it is used, so only the parameter leaves return with a grad.
    """
    lifted = lift(net, leaves=leaves)
    out = objective(lifted)
    value = tape.value(out)
    value = float(value) if np.ndim(value) == 0 else value
    if not np.all(np.isfinite(value)):
        raise TrainingDivergence(
            f"objective evaluated to {np.extract(~np.isfinite(value), value)[0]}")
    if type(out) is tape.Node:  # else no leaf reaches the objective
        tape.backward(out if out.value.ndim == 0 else tape.nsum(out))

    def grad(p):
        return (p.grad if type(p) is tape.Node and p.grad is not None
                else np.zeros(p.shape))
    return value, [(grad(w), None if b is None else grad(b)) for w, b in lifted]


def flat_gradient(grads) -> np.ndarray:
    """:func:`backprop`'s per-layer gradients as one vector, in the order of
    :func:`flatten_weights`; ``(P, n)``, one row per copy, for a stack."""
    parts = []
    for gw, gb in grads:
        gw = np.asarray(gw)
        flat = gw.shape[:-2] + (-1,)
        parts.append(gw.reshape(flat))
        if gb is not None:
            parts.append(np.asarray(gb).reshape(flat))
    return np.concatenate(parts, axis=-1)


def gradient_vector(net: MlpNetwork, objective, leaves=None):
    """Like :func:`backprop` but with the gradient flattened."""
    value, grads = backprop(net, objective, leaves)
    return value, flat_gradient(grads)


def input_gradient(net: MlpNetwork, trace: ForwardTrace,
                   dlogits: np.ndarray) -> np.ndarray:
    """Gradient of a loss w.r.t. the input, given d(loss)/d(logits).

    Closed-form reverse pass used by the attack loops, at the inputs of
    `trace` (the :func:`forward` an attack step already ran, so the step
    costs one forward and one input-backward); dlogits is ``(m, K)`` and
    the result ``(m, d)``.  On a network of float32 layers, float32
    dlogits give a float32 result.
    """
    delta = _float_array(dlogits)
    for i in range(net.depth - 1, 0, -1):
        delta = delta @ net.layers[i].weights.T
        delta *= trace.preacts[i - 1] > 0.0
    return delta @ net.layers[0].weights.T


# -- output files: metrics CSVs and checkpoints ----------------------

CHECKPOINT_MAGIC = "TRHNET v1"


def write_atomic(path, text: str) -> None:
    """Write text to path through a temp file beside it and ``os.replace``.

    A write that fails partway (a full disk, an interrupt) leaves the file
    that was at path untouched and removes the temp file.  There is no
    fsync: the guard is against a failing process, not a power cut.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


@dataclass
class MetricsLog:
    """Rows of named columns, written as CSV after ``# key = value``
    preamble lines; integers print as integers, floats by ``repr``."""

    columns: list
    rows: list = field(default_factory=list)
    preamble: dict = field(default_factory=dict)

    def append(self, **kwargs):
        self.rows.append({c: kwargs[c] for c in self.columns})

    def to_csv(self) -> str:
        lines = [f"# {k} = {v}" for k, v in self.preamble.items()]
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join(_fmt(row[c]) for c in self.columns))
        return "\n".join(lines) + "\n"

    def write_csv(self, path):
        write_atomic(path, self.to_csv())


def _fmt(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def save_checkpoint(net: MlpNetwork, path) -> None:
    """Write the value-exact `TRHNET v1` text format."""
    lines = [f"{CHECKPOINT_MAGIC} {net.depth}"]
    for i, l in enumerate(net.layers):
        has_bias = 0 if l.bias is None else 1
        lines.append(f"layer {i} {l.d_in} {l.d_out} {has_bias}")
        for row in l.weights:
            lines.append(" ".join(repr(float(v)) for v in row))
        if l.bias is not None:
            lines.append(" ".join(repr(float(v)) for v in l.bias))
    write_atomic(path, "\n".join(lines) + "\n")


_LAYER_HEADER = re.compile(r"layer (\d+) ([1-9]\d*) ([1-9]\d*) ([01])")


def load_checkpoint(path) -> MlpNetwork:
    """Read the `TRHNET v1` text format of :func:`save_checkpoint`.

    Malformed content raises ``ValueError`` naming its line in the file: a
    bad file or layer header (a depth of at least 1, ``has_bias`` 0 or 1,
    ``d_in`` the ``d_out`` below, the final layer bias-free with at least
    2 outputs), a number that does not parse or is not finite, a row of the
    wrong length, any line after the last layer, and the last line of a
    file that ends early.  Blank lines are skipped.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(n, ln.strip()) for n, ln in enumerate(fh, 1) if ln.strip()]
    if not lines:
        raise ValueError("empty checkpoint file")
    header = lines[0][1].split()
    if " ".join(header[:2]) != CHECKPOINT_MAGIC:
        raise ValueError(f"not a {CHECKPOINT_MAGIC} checkpoint: {lines[0][1]!r}")
    if len(header) != 3 or not re.fullmatch("[1-9][0-9]*", header[2]):
        raise ValueError(f"malformed header at line {lines[0][0]}: {lines[0][1]!r}")
    rest = iter(lines[1:])

    def next_line():
        line = next(rest, None)
        if line is None:
            raise ValueError(f"truncated checkpoint file: ends at line {lines[-1][0]}")
        return line

    def values(count):
        n, text = next_line()
        try:
            vals = [float(v) for v in text.split()]
        except ValueError:
            raise ValueError(f"unparsable number at line {n}: {text!r}") from None
        if not all(map(math.isfinite, vals)):
            raise ValueError(f"non-finite weight at line {n}: {text!r}")
        if len(vals) != count:
            raise ValueError(f"expected {count} values at line {n}")
        return vals

    layers = []
    depth = int(header[2])
    for i in range(depth):
        n, text = next_line()
        match = _LAYER_HEADER.fullmatch(" ".join(text.split()))
        if match is None or int(match[1]) != i:
            raise ValueError(f"malformed layer header at line {n}: {text!r} (expected "
                             f"'layer {i} d_in d_out has_bias', has_bias 0 or 1)")
        d_in, d_out, has_bias = (int(g) for g in match.groups()[1:])
        if ((layers and d_in != layers[-1].d_out)
                or (i == depth - 1 and (has_bias or d_out < 2))):
            raise ValueError(f"layer header at line {n} does not chain to the layer "
                             f"below or gives the final layer a bias or fewer than "
                             f"2 outputs: {text!r}")
        weights = np.array([values(d_out) for _ in range(d_in)])
        layers.append(DenseLayer(weights, np.array(values(d_out)) if has_bias else None))
    extra = next(rest, None)
    if extra is not None:
        raise ValueError(f"line {extra[0]} follows the last layer: {extra[1]!r}")
    return MlpNetwork(layers)
