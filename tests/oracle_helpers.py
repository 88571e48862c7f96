"""Test-side helpers for the finite-difference oracles: a per-point
function in the stack form the stencils call, flat-vector index sets of
one weight layer, and the whole-network trace of a batch on its own tape
forward."""

import numpy as np

from trhreg import tape
from trhreg.layer_traces import full_ce_trace_rows_nodes
from trhreg.network import forward_nodes, layer_params


def rowwise(f):
    """`f` of one point as a function of a ``(P, n)`` stack, the form the
    stencils of :mod:`trhreg.numerics` call: one call of `f` per row."""
    return lambda W: np.array([f(w) for w in W])


def layer_block(net, layer):
    """Indices of weight layer `layer`'s parameter vector
    (:func:`~trhreg.network.layer_params`) in the flat weight vector."""
    start = sum(layer_params(net, i).size for i in range(layer))
    return np.arange(start, start + layer_params(net, layer).size)


def weight_indices(net, layer=None):
    """Flat-vector indices of the weights of weight layer `layer` (default:
    every layer), biases left out: a layer's weights lead its block."""
    layers = range(net.depth) if layer is None else [layer]
    return np.concatenate([layer_block(net, i)[:net.layers[i].weights.size]
                           for i in layers])


def whole_network_rows(lifted, X):
    """:func:`~trhreg.layer_traces.full_ce_trace_rows_nodes` on a tape
    forward of `X` and its softmax, built as ``trh.objective_nodes`` builds
    its adversarial side."""
    trace = forward_nodes(lifted, X)
    s = tape.exp(tape.log_softmax(trace.logits))
    return full_ce_trace_rows_nodes(lifted, trace, s)
