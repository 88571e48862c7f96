"""Momentum-SGD training loop with schedulers and the averaging /
weight-perturbation baselines.

One trainer owns its network exclusively.  Every random choice (init,
shuffling, attack starts, evaluation attacks, measurement probes) is drawn
from a stream derived from the run seed, so two runs with identical config
and seed produce bitwise-identical metric logs.

Schedules are per-iteration over the whole run: learning rate warms up
linearly from zero, then decays (cosine to zero, or multistep drops); the
curvature penalty follows a constant / linear ramp / three-phase multistep
schedule.  Batches are drawn by per-epoch Fisher-Yates shuffling with the
remainder dropped; batch_size 0 means full batch.

Weight averaging keeps an exponential average updated every iteration and
evaluates with it.  The weight-perturbation baseline takes one ascent step
in weight space, scaled per layer to ``delta * ||W||`` (Frobenius norm,
biases unperturbed), and applies the gradient computed at the perturbed
weights to the unperturbed ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .attacks import AttackConfig, clean_accuracy, eval_robust_accuracy, pgd
from .config import MeasureConfig, TrainConfig, TrHConfig
from .data import Dataset
from .hessian_oracle import (eigen_stats, frozen_objective_fns,
                             hutchinson_trace, hutchinson_trace_pair,
                             hvp_from_grad, quad_form_from_values,
                             weight_indices)
from .losses import RobustLossKind
from .network import (MetricsLog, MlpNetwork, TrainingDivergence, backprop,
                      flat_gradient, flatten_weights, param_count,
                      unflatten_weights)
from .numerics import Rng
from .layer_traces import full_ce_trace_rows_nodes, layer_trace_rows
from .trh import analytic_trh_rows, objective_nodes
from . import tape

# A step whose objective exceeds this stops the run as diverged.
DIVERGENCE_THRESHOLD = 1e6

# Seed of the measurement streams (adversarial points and probes), the same
# at every measurement of every run.
PROBE_SEED = 2024


def lambda_at(schedule: str, t: int, total: int, lam_max: float) -> float:
    """Effective curvature penalty at iteration t of `total`."""
    if not 0 <= t < total:
        raise ValueError("need 0 <= t < total")
    if schedule == "constant":
        return lam_max
    if schedule == "linear":
        return lam_max * t / max(1, total - 1)
    if schedule == "multistep":
        if t < 0.1 * total:
            return 0.01 * lam_max
        if t < 0.5 * total:
            return 0.1 * lam_max
        return lam_max
    raise ValueError(f"unknown schedule {schedule!r}")


def lr_at(cfg: TrainConfig, t: int, total: int) -> float:
    """Linear warmup from zero, then cosine decay to zero or multistep drops."""
    if not 0 <= t < total:
        raise ValueError("need 0 <= t < total")
    if t < cfg.warmup_iters:
        return cfg.base_lr * t / cfg.warmup_iters
    if cfg.lr_decay == "constant":
        return cfg.base_lr
    if cfg.lr_decay == "cosine":
        # span excludes the endpoint so the final step keeps a tiny rate
        span = max(1, total - cfg.warmup_iters)
        progress = (t - cfg.warmup_iters) / span
        return cfg.base_lr * 0.5 * (1.0 + math.cos(math.pi * progress))
    drops = sum(1 for frac in cfg.lr_milestones if t >= frac * total)
    return cfg.base_lr * (cfg.lr_drop ** drops)


def swa_update(avg_weights: np.ndarray, new_weights: np.ndarray,
               alpha: float) -> np.ndarray:
    """Exponential running average of flattened weights."""
    if avg_weights.shape != new_weights.shape:
        raise ValueError("parameter count mismatch")
    return alpha * avg_weights + (1.0 - alpha) * new_weights


def awp_step(net: MlpNetwork, X, x_adv, y, kind: RobustLossKind,
             delta_awp: float):
    """Most-offending weight perturbation, one ascent step per layer.

    Returns per-layer ``(xi_W, xi_b)`` with ``||xi_W|| = delta * ||W||``
    (zero for zero-gradient or zero-norm layers); biases are not perturbed.
    """
    if delta_awp <= 0:
        raise ValueError("delta_awp must be positive")
    _, grads = backprop(net, lambda lifted: objective_nodes(
        lifted, X, x_adv, y, kind, lam=0.0, gamma=0.0))
    out = []
    for layer, (g_w, _) in zip(net.layers, grads):
        w_norm = float(np.linalg.norm(layer.weights))
        g_norm = float(np.linalg.norm(g_w))
        if w_norm == 0.0 or g_norm == 0.0:
            xi = np.zeros_like(layer.weights)
        else:
            xi = (delta_awp * w_norm / g_norm) * g_w
        out.append((xi, None if layer.bias is None else np.zeros_like(layer.bias)))
    return out


def _apply_perturbation(net: MlpNetwork, xi) -> MlpNetwork:
    out = net.copy()
    for layer, (xi_w, xi_b) in zip(out.layers, xi):
        layer.weights += xi_w
        if xi_b is not None and layer.bias is not None:
            layer.bias += xi_b
    return out


METRICS_COLUMNS = ["epoch", "train_loss", "clean_acc", "pgd_acc", "lambda_eff", "lr"]


@dataclass
class TrainResult:
    net: MlpNetwork            # evaluation network (averaged when SWA)
    raw_net: MlpNetwork
    metrics: MetricsLog
    trace_rows: list
    spectrum_rows: list
    diverged: bool
    diverged_epoch: int | None

    @property
    def trace_columns(self):
        if not self.trace_rows:
            return []
        return list(self.trace_rows[0].keys())


def train(net: MlpNetwork, dataset: Dataset, kind: RobustLossKind,
          trh_cfg: TrHConfig, attack_cfg: AttackConfig, cfg: TrainConfig,
          measure: MeasureConfig | None = None,
          full_reg_coeff: float = 0.0) -> TrainResult:
    """Run the regularized training loop; deterministic given the seed.

    ``full_reg_coeff > 0`` adds the differentiable whole-network CE-trace
    penalty (used by the toy-problem "Full" arm) on top of whatever
    ``trh_cfg.lam`` specifies; the two regularizers are independent.
    """
    if full_reg_coeff < 0:
        raise ValueError("full_reg_coeff must be >= 0")
    rng = Rng(cfg.seed)
    net = net.copy()
    m = len(dataset)
    bs = cfg.batch_size if cfg.batch_size else m
    if bs > m:
        raise ValueError("batch size exceeds dataset size")
    iters_per_epoch = max(1, m // bs)
    total_iters = cfg.epochs * iters_per_epoch

    metrics = MetricsLog(columns=list(METRICS_COLUMNS))
    trace_rows: list = []
    spectrum_rows: list = []
    eval_attack = replace(attack_cfg, restarts=cfg.eval_restarts, inner_loss="ce")

    velocity = np.zeros(param_count(net))
    swa_avg = flatten_weights(net) if cfg.baseline == "swa" else None
    diverged = False
    diverged_epoch = None
    t = 0

    for epoch in range(cfg.epochs):
        perm = rng.child("shuffle", epoch).permutation(m)
        epoch_losses = []
        lam_eff = lr = 0.0
        for b in range(iters_per_epoch):
            idx = perm[b * bs:(b + 1) * bs]
            x_b = dataset.inputs[idx]
            y_b = dataset.labels[idx]
            lam_eff = lambda_at(trh_cfg.schedule, t, total_iters, trh_cfg.lam)
            lr = lr_at(cfg, t, total_iters)
            x_adv = pgd(net, x_b, y_b, attack_cfg, rng.child("attack", epoch, b))

            def objective(lifted):
                node = objective_nodes(lifted, x_b, x_adv, y_b, kind,
                                       lam_eff, cfg.gamma,
                                       stop_grad_clean=trh_cfg.stop_grad_clean)
                if full_reg_coeff:
                    node = node + full_reg_coeff * tape.mean(
                        full_ce_trace_rows_nodes(lifted, x_adv))
                return node

            try:
                step_net = net
                if cfg.baseline == "awp":
                    xi = awp_step(net, x_b, x_adv, y_b, kind, cfg.awp_delta)
                    step_net = _apply_perturbation(net, xi)
                value, grads = backprop(step_net, objective)
            except TrainingDivergence:
                diverged, diverged_epoch = True, epoch
                break
            flat_grad = flat_gradient(grads)
            # stop before a non-finite gradient turns the weights into nan
            if value > DIVERGENCE_THRESHOLD or not np.all(np.isfinite(flat_grad)):
                diverged, diverged_epoch = True, epoch
                break
            epoch_losses.append(value)
            velocity = cfg.momentum * velocity + flat_grad
            weights = flatten_weights(net) - lr * velocity
            net = unflatten_weights(net, weights)
            if swa_avg is not None:
                swa_avg = swa_update(swa_avg, weights, cfg.swa_alpha)
            t += 1

        eval_net = unflatten_weights(net, swa_avg) if swa_avg is not None else net
        metrics.append(
            epoch=epoch,
            train_loss=float(np.mean(epoch_losses)) if epoch_losses else float("nan"),
            clean_acc=clean_accuracy(eval_net, dataset),
            pgd_acc=eval_robust_accuracy(eval_net, dataset, eval_attack,
                                         rng.child("eval", epoch)),
            lambda_eff=lam_eff,
            lr=lr)

        if measure is not None and not diverged and (
                epoch % measure.every == 0 or epoch == cfg.epochs - 1):
            row = measure_trace_row(eval_net, dataset, kind, attack_cfg,
                                    epoch, measure, metrics.rows[-1])
            if measure.mode == "spectrum":
                spectrum_rows.extend(row)
            else:
                trace_rows.append(row)
        if diverged:
            break

    eval_net = unflatten_weights(net, swa_avg) if swa_avg is not None else net
    return TrainResult(net=eval_net, raw_net=net, metrics=metrics,
                       trace_rows=trace_rows, spectrum_rows=spectrum_rows,
                       diverged=diverged, diverged_epoch=diverged_epoch)


def measure_trace_row(net: MlpNetwork, dataset: Dataset, kind: RobustLossKind,
                      attack_cfg: AttackConfig, epoch: int,
                      measure: MeasureConfig, metrics_row):
    """One measurement record (or spectrum records) at the current weights."""
    meas_rng = Rng(PROBE_SEED).child("measure", epoch)
    x_adv = pgd(net, dataset.inputs, dataset.labels, attack_cfg,
                meas_rng.child("attack"))
    x, y = dataset.inputs, dataset.labels

    if measure.mode == "spectrum":
        return spectrum_records(net, x, x_adv, y, kind, epoch,
                                measure.probes, meas_rng.child("spectrum"))

    row = {"epoch": epoch,
           "trh_top_analytic": float(np.mean(analytic_trh_rows(net, x, x_adv, y, kind)))}
    if measure.mode == "full":
        # the bare robust objective (no penalty terms); a fresh stream each
        # time: the same probes at every measurement
        value_fn, _ = frozen_objective_fns(net, x, x_adv, y, kind)
        row["trh_full_estimate"], row["trh_full_stderr"] = hutchinson_trace(
            quad_form_from_values(value_fn, flatten_weights(net)),
            param_count(net), measure.probes,
            Rng(PROBE_SEED).child("trace-probes"))
    else:
        row["trh_full_estimate"] = float("nan")
        row["trh_full_stderr"] = float("nan")
    layer_means = layer_trace_rows(net, x_adv).mean(axis=0)
    for i, v in enumerate(layer_means, start=1):
        row[f"trh_layer_{i}"] = float(v)
    row["train_loss"] = metrics_row["train_loss"]
    row["robust_acc"] = metrics_row["pgd_acc"]
    return row


def spectrum_records(net: MlpNetwork, x, x_adv, y, kind: RobustLossKind,
                     epoch: int, probes: int, rng: Rng):
    """Per-layer and whole-network (trace, trace_sq) with eigenvalue stats.

    Layer subsets cover that layer's weights and biases; layer 0 denotes
    the whole network.  Hessian-vector products are central differences of
    the bare robust objective's gradient
    (:func:`~trhreg.hessian_oracle.frozen_objective_fns`).  The probes of a
    layer move that layer alone, so they run on its layer-local gradient
    (``layer``), which differentiates only that layer.  The whole-network
    trace is the sum of the layer traces (trace is block-additive), while
    its trace_sq gets its own full-support probes, on the whole-network
    product, because squares are not.
    """
    def record(layer, trace, trace_sq, n):
        mean, std = eigen_stats(trace, trace_sq, n)
        return {"epoch": epoch, "layer": layer, "trace": trace,
                "trace_sq": trace_sq, "eig_mean": mean, "eig_std": std}

    dim = param_count(net)
    records, total = [], 0.0
    for li in range(1, net.depth + 1):
        idx = weight_indices(net, li - 1, include_bias=True)
        _, grad_fn = frozen_objective_fns(net, x, x_adv, y, kind, layer=li - 1)
        (trace, _), (trace_sq, _) = hutchinson_trace_pair(
            hvp_from_grad(grad_fn, flatten_weights(net)), dim, probes,
            rng.child("layer", li), idx)
        records.append(record(li, trace, trace_sq, idx.size))
        total += trace
    _, grad_fn = frozen_objective_fns(net, x, x_adv, y, kind)
    trace_sq, _ = hutchinson_trace_pair(hvp_from_grad(grad_fn, flatten_weights(net)),
                                        dim, probes, rng.child("full"))[1]
    records.insert(0, record(0, total, trace_sq, dim))
    return records
