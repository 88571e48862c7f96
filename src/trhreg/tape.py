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

Only nodes that depend on a :func:`leaf` are *live*.  An operation records
edges to its live operands alone, so a result computed purely from
constants holds no graph: evaluating an expression on constants costs its
numpy work and keeps no intermediate alive.
"""

from __future__ import annotations

import numpy as np

_FLOAT64 = np.dtype(np.float64)  # an identity test is cheaper than dtype ==


class Node:
    __slots__ = ("value", "grad", "_edges", "live")

    def __init__(self, value, edges=()):
        if type(value) is not np.ndarray or value.dtype is not _FLOAT64:
            value = np.asarray(value, dtype=np.float64)
        self.value = value
        self.grad = None
        for parent, _ in edges:
            if not parent.live:  # drop edges into constants
                edges = tuple([e for e in edges if e[0].live])
                break
        self._edges = edges  # tuple of (live parent Node, vjp callable)
        self.live = bool(edges)

    @property
    def shape(self):
        return self.value.shape

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = wrap(other)
        return Node(self.value + other.value,
                    ((self, lambda g: _unbroadcast(g, self.shape)),
                     (other, lambda g: _unbroadcast(g, other.shape))))

    __radd__ = __add__

    def __neg__(self):
        return Node(-self.value, ((self, lambda g: -g),))

    def __sub__(self, other):
        return self + (-wrap(other))

    def __rsub__(self, other):
        return wrap(other) + (-self)

    def __mul__(self, other):
        other = wrap(other)
        a, b = self, other
        return Node(a.value * b.value,
                    ((a, lambda g: _unbroadcast(g * b.value, a.shape)),
                     (b, lambda g: _unbroadcast(g * a.value, b.shape))))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = wrap(other)
        a, b = self, other
        return Node(a.value / b.value,
                    ((a, lambda g: _unbroadcast(g / b.value, a.shape)),
                     (b, lambda g: _unbroadcast(-g * (a.value / b.value) / b.value, b.shape))))

    def __matmul__(self, other):
        other = wrap(other)
        a, b = self, other
        return Node(a.value @ b.value,
                    ((a, lambda g: _unbroadcast(g @ b.value.swapaxes(-1, -2), a.shape)),
                     (b, lambda g: _unbroadcast(a.value.swapaxes(-1, -2) @ g, b.shape))))


def wrap(x) -> Node:
    return x if isinstance(x, Node) else Node(x)


def leaf(value) -> Node:
    """A differentiable input (weight matrix, bias vector)."""
    node = Node(value)
    node.live = True
    return node


def constant(value) -> Node:
    """A non-differentiable input; gradients stop here."""
    return Node(value)


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


def relu(a: Node) -> Node:
    """``max(a, 0)``, the numpy forward's own operation, so the two forwards
    agree to the bit (0.0, never -0.0, at a negative or zero input).

    The VJP ``g * (a > 0)`` computes its gate when it runs: the node keeps
    no gate array, and a ReLU on constants does no gate work.  The
    derivative at exactly 0 is 0."""
    return Node(np.maximum(a.value, 0.0), ((a, lambda g: g * (a.value > 0)),))


def dense(x: Node, w: Node, b: Node | None = None) -> Node:
    """One dense layer, ``x @ w + b``, as a single node.

    The bias is added in place into the product, and the VJPs are those of
    the matmul and of the add, so value and adjoints equal the two-node
    ``x @ w + b`` to the bit while the tape keeps one pre-activation array
    instead of two.
    """
    value = x.value @ w.value
    edges = ((x, lambda g: _unbroadcast(g @ w.value.swapaxes(-1, -2), x.shape)),
             (w, lambda g: _unbroadcast(x.value.swapaxes(-1, -2) @ g, w.shape)))
    if b is not None:
        value += b.value
        edges += ((b, lambda g: _unbroadcast(g, b.shape)),)
    return Node(value, edges)


def exp(a: Node) -> Node:
    out = np.exp(a.value)
    return Node(out, ((a, lambda g: g * out),))


def log(a: Node) -> Node:
    return Node(np.log(a.value), ((a, lambda g: g / a.value),))


def nsum(a: Node, axis=None, keepdims=False) -> Node:
    """Sum over one axis (an int), several (a tuple) or all of them (None)."""
    kept = None  # the summed shape with the axes kept, for broadcasting g
    if axis is not None:
        kept = list(a.shape)
        for ax in (axis if isinstance(axis, tuple) else (axis,)):
            kept[ax] = 1

    def vjp(g):
        out = np.empty(a.shape)
        out[...] = g if kept is None else g.reshape(kept)
        return out
    return Node(a.value.sum(axis=axis, keepdims=keepdims), ((a, vjp),))


def mean(a: Node, axis=None) -> Node:
    """Mean over one axis (an int) or over all of them (None)."""
    if axis is None:
        n = a.value.size
        return Node(a.value.mean(), ((a, lambda g: np.full(a.shape, g / n)),))
    n = a.shape[axis]

    def vjp(g):
        out = np.empty(a.shape)
        out[...] = np.expand_dims(g / n, axis)
        return out
    return Node(a.value.mean(axis=axis), ((a, vjp),))


def row_sum(a: Node, keepdims=False) -> Node:
    """Sum over the last axis."""
    return nsum(a, axis=-1, keepdims=keepdims)


def log_softmax(logits: Node) -> Node:
    """Log-softmax over the last axis, stable via a constant max shift.

    One node for ``centered - log(sum(exp(centered)))`` with ``centered =
    logits - max``.  Its VJP, ``g + (-sum(g)) / total * e``, repeats the
    float operations of that expression's op-by-op adjoint in the same
    order, so values and gradients are those of the composite to the bit.
    """
    centered = logits.value - logits.value.max(axis=-1, keepdims=True)
    e = np.exp(centered)
    total = e.sum(axis=-1, keepdims=True)
    return Node(centered - np.log(total),
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
