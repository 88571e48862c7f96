#!/usr/bin/env python3
"""A tour of the closed-form curvature traces and their numerical oracles.

Every analytic formula in `trhreg.trh` claims to equal the trace of a
Hessian over the top-layer weights.  This script makes the claim concrete:
for a handful of random small networks it differentiates each matching
objective twice with central differences and prints both numbers side by
side.  The same cross-validation runs at scale inside `trhreg verify`.

Run: python demos/oracle_tour.py
"""

import numpy as np

from trhreg.hessian_oracle import exact_trace, frozen_objective_fns
from trhreg.losses import RobustLossKind
from trhreg.network import layer_params
from trhreg.numerics import pin_allocator
from trhreg.layer_traces import check_layer_inequality, layer_trace_rows
from trhreg.trh import analytic_trh_rows
from trhreg.verify import sample_smooth_instance

pin_allocator()

FORMULAS = [
    ("adversarial CE", RobustLossKind("at"), True),
    ("clean CE + frozen KL (stop-grad)", RobustLossKind("trades", 6.0), True),
    ("clean CE + live KL (full gradient)", RobustLossKind("trades", 6.0), False),
    ("adversarial CE + logit pairing", RobustLossKind("alp", 0.5), True),
    ("margin-boosted CE + weighted KL", RobustLossKind("mart", 5.0), True),
]

print("=" * 72)
print("Top-layer Hessian traces: closed form vs finite differences")
print("=" * 72)
for seed in (1, 2, 3):
    net, x, x_adv, y = sample_smooth_instance(seed)
    dims = [net.input_dim] + [l.d_out for l in net.layers]
    print(f"\nnetwork {dims}, label {int(y[0])}")
    top = net.depth - 1
    for name, kind, stop_grad in FORMULAS:
        _, grad_fn = frozen_objective_fns(net, x, x_adv, y, kind,
                                          stop_grad_clean=stop_grad, layer=top)
        oracle = exact_trace(grad_fn, layer_params(net, top))
        closed = float(analytic_trh_rows(net, x, x_adv, y, kind,
                                         stop_grad_clean=stop_grad)[0])
        rel = abs(oracle - closed) / max(1e-12, abs(oracle))
        print(f"  {name:38s} closed={closed:+.8f}  "
              f"oracle={oracle:+.8f}  rel={rel:.1e}")

print()
print("=" * 72)
print("Layer-wise CE traces and the consecutive-level bound")
print("=" * 72)
net, x, _, y = sample_smooth_instance(7)
closed = layer_trace_rows(net, x)[0]
for layer in range(net.depth):
    _, grad_fn = frozen_objective_fns(net, x, x, y, RobustLossKind("at"),
                                      layer=layer)
    # the layer's weights lead its parameter vector
    oracle = exact_trace(grad_fn, layer_params(net, layer),
                         np.arange(net.layers[layer].weights.size))
    print(f"  layer {layer}: closed={closed[layer]:.8f}  oracle={oracle:.8f}")
for level, r in enumerate(check_layer_inequality(net, x[0])):
    print(f"  level {level}: max-entry bound {r.lhs:.6f} <= {r.rhs:.6f}"
          f"  ({'holds' if r.holds else 'VIOLATED'})")
