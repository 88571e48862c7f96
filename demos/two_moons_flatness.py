#!/usr/bin/env python3
"""Whole-network curvature under three flavors of robust training.

Trains the classic interleaved-arcs problem with adversarial training and
compares three arms:

  standard   plain robust loss, no curvature penalty
  top        + 0.5 x closed-form top-layer Hessian trace
  full       + 0.05 x differentiable whole-network CE trace

and tracks the whole-network Hessian trace of the robust loss along the
way (fixed probe set, so the trajectories are comparable point by point).
Regularizing just the top layer should drag the entire network's curvature
down to nearly the whole-network-penalty level; the printed table makes
that visible.

Run: python demos/two_moons_flatness.py            (~30 s)
"""

import numpy as np

from trhreg.attacks import AttackConfig
from trhreg.config import TrHConfig
from trhreg.data import two_moons
from trhreg.losses import RobustLossKind
from trhreg.network import init_mlp
from trhreg.numerics import Rng, pin_allocator
from trhreg.trainer import MeasureConfig, TrainConfig, train

pin_allocator()

EPOCHS = 100
SEED = 0

dataset = two_moons(500, noise_std=0.1, seed=1)
kind = RobustLossKind("at")
attack = AttackConfig(delta=0.02, steps=1, norm="linf")
measure = MeasureConfig(mode="full", every=10, probes=48)

arms = {
    "standard": dict(lam=0.0, full_coeff=0.0),
    "top": dict(lam=0.5, full_coeff=0.0),
    "full": dict(lam=0.0, full_coeff=0.05),
}

trajectories = {}
summary = {}
for arm, knobs in arms.items():
    net = init_mlp([2, 100, 100, 2], Rng(SEED).child("init"))
    cfg = TrainConfig(epochs=EPOCHS, base_lr=0.1, momentum=0.9,
                      lr_decay="constant", seed=SEED)
    result = train(net, dataset, kind, TrHConfig(**knobs), attack, cfg,
                   measure=measure)
    trajectories[arm] = {r["epoch"]: r["trh_full_estimate"]
                         for r in result.measurements}
    last = result.metrics.rows[-1]
    plateau = [r["trh_full_estimate"] for r in result.measurements
               if r["epoch"] >= 60]
    summary[arm] = (last["clean_acc"], last["pgd_acc"], float(np.mean(plateau)))

epochs = sorted(trajectories["standard"])
print("whole-network Hessian trace of the robust loss (probe estimate)")
print(f"{'epoch':>6} " + "".join(f"{arm:>10}" for arm in arms))
for e in epochs:
    print(f"{e:>6} " + "".join(f"{trajectories[arm][e]:>10.2f}" for arm in arms))

print("\nfinal accuracy and late-plateau trace (mean over epochs >= 60):")
for arm, (clean, pgd_acc, plateau) in summary.items():
    print(f"  {arm:9s} clean={clean:.3f}  attacked={pgd_acc:.3f}  "
          f"plateau trace={plateau:7.2f}")
print("\nreading: 'top' should land well below 'standard' and within ~2x of"
      "\n'full', at no cost in accuracy - flatness for one layer's price.")
