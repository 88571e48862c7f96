"""Minimal reverse-mode differentiation over numpy arrays.

A :class:`Node` wraps a float64 array; operations record vector-Jacobian
closures so that :func:`backward` can accumulate exact gradients for every
leaf.  The op set is deliberately small -- just enough to express the
training objectives in this package (dense layers, ReLU, softmax algebra
and the closed-form curvature terms) -- and everything is batched: node
payloads are scalars, ``(m,)`` vectors, ``(m, k)`` matrices or stacks of
them.  Every op works on any rank: matrix products act on the last two
axes, row-wise reductions (:func:`row_sum`, :func:`log_softmax`) on the
last one, so a leading axis can carry a stack of independent copies of a
whole expression (see :func:`trhreg.network.backprop`).

Broadcasting between operands follows numpy; adjoints are summed back over
broadcast axes.  There is no graph reuse across calls: build, evaluate,
backward, discard.

:func:`backward` accumulates lazily: a node's first gradient contribution
is stored as it is, later ones are added into a new array.  It frees each
interior adjoint as soon as that node's VJPs have run, so after the sweep
only leaves hold a ``.grad``; edges stay, and the graph can be
backpropagated again.  Row-wise :func:`log_softmax` is one node with a
hand-written VJP, not a chain of small ops, and so is a dense layer
(:func:`dense`).  :func:`relu` keeps no gate array: its VJP reads the
input's value when it runs.

Constants are arrays: a :func:`constant` is a plain float64 array, and
only values that depend on a :func:`leaf` are nodes.  An op keeps the
edges of its node operands (:func:`record`); an op whose operands are all
constants returns the bare numpy result and records nothing, so evaluating
an expression on constants costs its numpy work alone.  :func:`value`
reads the array of either kind.
"""

from __future__ import annotations

import numpy as np

_FLOAT64 = np.dtype(np.float64)  # an identity test is cheaper than dtype ==


class Node:
    __slots__ = ("value", "grad", "_edges")
    __array_ufunc__ = None  # ``array op node`` calls the node's reflected op

    def __init__(self, value, edges=()):
        if type(value) is not np.ndarray or value.dtype is not _FLOAT64:
            value = np.asarray(value, dtype=np.float64)
        self.value = value
        self.grad = None
        self._edges = edges  # tuple of (parent Node, vjp callable)

    @property
    def shape(self):
        return self.value.shape

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        return record(self.value + value(other),
                      ((self, lambda g: _unbroadcast(g, self.shape)),
                       (other, lambda g: _unbroadcast(g, other.shape))))

    __radd__ = __add__

    def __neg__(self):
        return Node(-self.value, ((self, lambda g: -g),))

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return other + (-self)

    def __mul__(self, other):
        a, b = self.value, value(other)
        return record(a * b,
                      ((self, lambda g: _unbroadcast(g * b, self.shape)),
                       (other, lambda g: _unbroadcast(g * a, other.shape))))

    __rmul__ = __mul__

    def __matmul__(self, other):
        a, b = self.value, value(other)
        return record(a @ b,
                      ((self, lambda g: _unbroadcast(g @ b.swapaxes(-1, -2), self.shape)),
                       (other, lambda g: _unbroadcast(a.swapaxes(-1, -2) @ g, other.shape))))

    def __rmatmul__(self, other):  # other @ self, other a constant
        return Node(other @ self.value, (
            (self, lambda g: _unbroadcast(other.swapaxes(-1, -2) @ g, self.shape)),))


def value(x):
    """The array of a node, or `x` itself for a constant."""
    return x.value if type(x) is Node else x


def record(out, edges):
    """The result of an op: a Node of `out` with the edges whose operand is
    a Node, or `out` itself when no operand is."""
    edges = tuple([e for e in edges if type(e[0]) is Node])
    return Node(out, edges) if edges else out


def leaf(value) -> Node:
    """A differentiable input (weight matrix, bias vector)."""
    return Node(value)


def constant(value) -> np.ndarray:
    """A non-differentiable input, as a float64 array; gradients stop here."""
    return np.asarray(value, dtype=np.float64)


def _unbroadcast(grad, shape):
    """Sum grad back down to `shape` after numpy broadcasting."""
    g = np.asarray(grad)
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def relu(a):
    """``max(a, 0)``: 0.0, never -0.0, at a negative or zero input.

    The VJP ``g * (a > 0)`` computes its gate when it runs: the node keeps
    no gate array.  The derivative at exactly 0 is 0."""
    return record(np.maximum(value(a), 0.0), ((a, lambda g: g * (a.value > 0)),))


def dense(x, w, b=None):
    """One dense layer, ``x @ w + b``, as a single node.

    The bias is added in place into the product, and the VJPs are those of
    the matmul and of the add, so value and adjoints equal the two-node
    ``x @ w + b`` to the bit while the tape keeps one pre-activation array
    instead of two.
    """
    xv, wv = value(x), value(w)
    out = xv @ wv
    edges = ((x, lambda g: _unbroadcast(g @ wv.swapaxes(-1, -2), x.shape)),
             (w, lambda g: _unbroadcast(xv.swapaxes(-1, -2) @ g, w.shape)))
    if b is not None:
        out += value(b)
        edges += ((b, lambda g: _unbroadcast(g, b.shape)),)
    return record(out, edges)


def exp(a):
    out = np.exp(value(a))
    return record(out, ((a, lambda g: g * out),))


def nsum(a, axis=None):
    """Sum over one axis (an int), several (a tuple) or all of them (None)."""
    def vjp(g):
        if axis is not None:  # the summed shape with the axes kept
            kept = list(a.shape)
            for ax in (axis if isinstance(axis, tuple) else (axis,)):
                kept[ax] = 1
            g = g.reshape(kept)
        out = np.empty(a.shape)
        out[...] = g
        return out
    return record(value(a).sum(axis=axis), ((a, vjp),))


def mean(a, axis=None):
    """Mean over one axis (an int) or over all of them (None)."""
    if axis is None:
        return record(value(a).mean(),
                      ((a, lambda g: np.full(a.shape, g / a.value.size)),))

    def vjp(g):
        out = np.empty(a.shape)
        out[...] = np.expand_dims(g / a.shape[axis], axis)
        return out
    return record(value(a).mean(axis=axis), ((a, vjp),))


def row_sum(a):
    """Sum over the last axis."""
    return nsum(a, axis=-1)


def log_softmax(logits):
    """Log-softmax over the last axis, stable via a constant max shift.

    One node for ``centered - log(sum(exp(centered)))`` with ``centered =
    logits - max``.  Its VJP, ``g + (-sum(g)) / total * e``, repeats the
    float operations of that expression's op-by-op adjoint in the same
    order, so values and gradients are those of the composite to the bit.
    """
    lv = value(logits)
    centered = lv - lv.max(axis=-1, keepdims=True)
    e = np.exp(centered)
    total = e.sum(axis=-1, keepdims=True)
    return record(centered - np.log(total),
                  ((logits, lambda g: g + (-g.sum(axis=-1, keepdims=True)) / total * e),))


def backward(out: Node) -> None:
    """Gradients of a scalar node into every reachable leaf.

    Nodes are processed in reverse post-order of one depth-first traversal.
    The traversal marks every reachable node by setting its grad to a
    marker of this call, so a second backward over shared leaves recomputes
    rather than accumulates.  A node's first contribution replaces the
    marker as it is and later ones are added as ``grad + c``, never in
    place, because a VJP may return the very array it was handed
    (``_unbroadcast`` does) and one array may then be the grad of several
    nodes.  Once an interior node's VJPs have run, its grad is set
    to None: the sweep holds only the adjoints it will still read, and on
    return only leaves keep a grad.
    """
    if out.value.ndim != 0:
        raise ValueError("backward expects a scalar node")
    mark = object()  # reached by this call, no contribution yet
    order = []
    stack = [(out, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif node.grad is not mark:
            node.grad = mark
            stack.append((node, True))
            for parent, _ in node._edges:
                if parent.grad is not mark:
                    stack.append((parent, False))
    out.grad = np.ones(())
    for node in reversed(order):
        g = node.grad
        for parent, vjp in node._edges:
            c = vjp(g)
            parent.grad = c if parent.grad is mark else parent.grad + c
        if node._edges:  # interior: every contribution is in, and was used
            node.grad = None
