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

Each epoch logs ``pgd_acc``, the accuracy under the CE attack with
``train.eval_restarts`` restarts at the epoch's final (or averaged)
weights.  In a full-batch run with a CE training attack, no SWA and one
evaluation restart, the next epoch's step makes exactly that attack on
every row, so the epoch makes it once, reads ``pgd_acc`` off it and hands
it to the step: one attack per epoch instead of two, with training
unchanged bit for bit.  Every other run evaluates with
``attacks.eval_robust_accuracy`` on a stream of its own.

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

from .attacks import (AttackConfig, clean_accuracy, eval_robust_accuracy, pgd,
                      predictions)
from .config import MeasureConfig, TrainConfig, TrHConfig
from .data import Dataset
from .hessian_oracle import (eigen_stats, frozen_objective_fns,
                             hutchinson_trace, hutchinson_trace_pair,
                             hvp_from_grad, quad_form_from_values)
from .losses import RobustLossKind
from .network import (MetricsLog, MlpNetwork, TrainingDivergence, backprop,
                      flat_gradient, flatten_weights, layer_params,
                      param_count, unflatten_weights)
from .numerics import Rng
from .layer_traces import layer_trace_rows
from .trh import analytic_trh_rows, objective_nodes

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

    Returns one ``xi_W`` per layer with ``||xi_W|| = delta * ||W||`` (zero
    for zero-gradient or zero-norm layers); biases are not perturbed.
    """
    if delta_awp <= 0:
        raise ValueError("delta_awp must be positive")
    _, grads = backprop(net, lambda lifted: objective_nodes(
        lifted, X, x_adv, y, kind, lam=0.0, gamma=0.0))
    out = []
    for layer, (g_w, _) in zip(net.layers, grads):
        w_norm = float(np.linalg.norm(layer.weights))
        g_norm = float(np.linalg.norm(g_w))
        out.append((delta_awp * w_norm / g_norm) * g_w if w_norm and g_norm
                   else np.zeros_like(layer.weights))
    return out


METRICS_COLUMNS = ["epoch", "train_loss", "clean_acc", "pgd_acc", "lambda_eff", "lr"]
SPECTRUM_COLUMNS = ["epoch", "layer", "trace", "trace_sq", "eig_mean", "eig_std"]


def measurement_columns(mode: str, depth: int) -> list:
    """The columns of the records :func:`measure_trace_row` returns in
    `mode` on a net of `depth` layers."""
    if mode == "spectrum":
        return list(SPECTRUM_COLUMNS)
    return (["epoch", "trh_top_analytic", "trh_full_estimate", "trh_full_stderr"]
            + [f"trh_layer_{i}" for i in range(1, depth + 1)]
            + ["train_loss", "robust_acc"])


@dataclass
class TrainResult:
    net: MlpNetwork            # evaluation network (averaged when SWA)
    raw_net: MlpNetwork
    metrics: MetricsLog
    measurements: list         # the records of every measurement, in order
    diverged_epoch: int | None

    @property
    def diverged(self) -> bool:
        return self.diverged_epoch is not None


def train(net: MlpNetwork, dataset: Dataset, kind: RobustLossKind,
          trh_cfg: TrHConfig, attack_cfg: AttackConfig, cfg: TrainConfig,
          measure: MeasureConfig | None = None) -> TrainResult:
    """Run the regularized training loop; deterministic given the seed.

    A step differentiates :func:`~trhreg.trh.objective_nodes`, whose
    ``full_coeff`` term (the toy "Full" arm) is independent of ``lam``'s.

    ``pgd_acc``: when the run is full batch, ``attack_cfg.inner_loss`` is
    CE, ``cfg.baseline`` is not SWA and ``cfg.eval_restarts`` is 1, the
    end of epoch e attacks ``X[p]`` with ``p`` the permutation of
    ``rng.child("shuffle", e + 1)`` and the stream
    ``rng.child("attack", e + 1, 0)``: the call epoch e + 1's step would
    make.  ``pgd_acc`` is the accuracy on that attack, which the step then
    uses; after the last epoch it feeds ``pgd_acc`` only.  The interval
    bound of `eval_robust_accuracy` is not needed, since it only spares
    rows that no attack breaks.  Otherwise ``pgd_acc`` is
    ``eval_robust_accuracy`` with the stream ``rng.child("eval", e)``.

    Divergence stops the run and returns the last good weights.  A failing
    step keeps the weights before that step.  A failing epoch-end attack
    (``pgd_acc`` nan) keeps the weights the epoch started from, and their
    SWA average; that epoch's metrics row is still read off the weights
    that failed.
    """
    rng = Rng(cfg.seed)
    net = net.copy()
    m = len(dataset)
    bs = cfg.batch_size if cfg.batch_size else m
    if bs > m:
        raise ValueError("batch size exceeds dataset size")
    iters_per_epoch = max(1, m // bs)
    total_iters = cfg.epochs * iters_per_epoch

    metrics = MetricsLog(columns=list(METRICS_COLUMNS))
    measurements: list = []
    eval_attack = replace(attack_cfg, restarts=cfg.eval_restarts, inner_loss="ce")
    # a full-batch step attacks every row with the evaluation's attack, so
    # the epoch's pgd_acc is read off the next step's attack (docstring)
    reuse_attack = (bs == m and cfg.baseline != "swa"
                    and attack_cfg.inner_loss == "ce" and cfg.eval_restarts == 1)
    next_adv = None  # the attack of the next epoch's step, when reused

    velocity = np.zeros(param_count(net))
    swa_avg = flatten_weights(net) if cfg.baseline == "swa" else None
    diverged_epoch = None
    t = 0

    for epoch in range(cfg.epochs):
        start_net, start_swa = net, swa_avg  # last good, if the attack fails
        perm = rng.child("shuffle", epoch).permutation(m)
        epoch_losses = []
        lam_eff = lr = 0.0
        for b in range(iters_per_epoch):
            idx = perm[b * bs:(b + 1) * bs]
            x_b = dataset.inputs[idx]
            y_b = dataset.labels[idx]
            lam_eff = lambda_at(trh_cfg.schedule, t, total_iters, trh_cfg.lam)
            lr = lr_at(cfg, t, total_iters)

            try:  # a non-finite attack direction diverges too
                if next_adv is not None:
                    x_adv, next_adv = next_adv, None
                else:
                    x_adv = pgd(net, x_b, y_b, attack_cfg,
                                rng.child("attack", epoch, b))
                step_net = net
                if cfg.baseline == "awp":
                    step_net = net.copy()
                    for layer, xi in zip(step_net.layers, awp_step(
                            net, x_b, x_adv, y_b, kind, cfg.awp_delta)):
                        layer.weights += xi
                value, grads = backprop(step_net, lambda lifted: objective_nodes(
                    lifted, x_b, x_adv, y_b, kind, lam_eff, cfg.gamma,
                    trh_cfg.stop_grad_clean, full_coeff=trh_cfg.full_coeff))
            except TrainingDivergence:
                diverged_epoch = epoch
                break
            flat_grad = flat_gradient(grads)
            # stop before a non-finite gradient turns the weights into nan
            if value > DIVERGENCE_THRESHOLD or not np.all(np.isfinite(flat_grad)):
                diverged_epoch = epoch
                break
            epoch_losses.append(value)
            velocity = cfg.momentum * velocity + flat_grad
            weights = flatten_weights(net) - lr * velocity
            net = unflatten_weights(net, weights)
            if swa_avg is not None:
                swa_avg = swa_update(swa_avg, weights, cfg.swa_alpha)
            t += 1

        eval_net = unflatten_weights(net, swa_avg) if swa_avg is not None else net
        try:  # finite weights can still give a non-finite attack direction
            if reuse_attack:
                next_perm = rng.child("shuffle", epoch + 1).permutation(m)
                next_adv = pgd(net, dataset.inputs[next_perm],
                               dataset.labels[next_perm], attack_cfg,
                               rng.child("attack", epoch + 1, 0))
                pgd_acc = float(np.mean(predictions(net, next_adv)
                                        == dataset.labels[next_perm]))
            else:
                pgd_acc = eval_robust_accuracy(eval_net, dataset, eval_attack,
                                               rng.child("eval", epoch))
        except TrainingDivergence:
            pgd_acc, diverged_epoch = float("nan"), epoch
            net, swa_avg = start_net, start_swa
        metrics.append(
            epoch=epoch,
            train_loss=float(np.mean(epoch_losses)) if epoch_losses else float("nan"),
            clean_acc=clean_accuracy(eval_net, dataset),
            pgd_acc=pgd_acc,
            lambda_eff=lam_eff,
            lr=lr)

        if diverged_epoch is not None:
            break
        if measure is not None and (
                epoch % measure.every == 0 or epoch == cfg.epochs - 1):
            measurements.extend(measure_trace_row(
                eval_net, dataset, kind, attack_cfg, epoch, measure,
                metrics.rows[-1]))

    eval_net = unflatten_weights(net, swa_avg) if swa_avg is not None else net
    return TrainResult(net=eval_net, raw_net=net, metrics=metrics,
                       measurements=measurements, diverged_epoch=diverged_epoch)


def measure_trace_row(net: MlpNetwork, dataset: Dataset, kind: RobustLossKind,
                      attack_cfg: AttackConfig, epoch: int,
                      measure: MeasureConfig, metrics_row) -> list:
    """The records of one measurement at the current weights: one trace
    record, or the spectrum records, each with the columns of
    :func:`measurement_columns`."""
    meas_rng = Rng(PROBE_SEED).child("measure", epoch)
    x, y = dataset.inputs, dataset.labels
    x_adv = pgd(net, x, y, attack_cfg, meas_rng.child("attack"))

    if measure.mode == "spectrum":
        return spectrum_records(net, x, x_adv, y, kind, epoch,
                                measure.probes, meas_rng.child("spectrum"))

    full = (float("nan"), float("nan"))
    if measure.mode == "full":
        # the bare robust objective (no penalty terms); a fresh stream each
        # time: the same probes at every measurement
        value_fn, _ = frozen_objective_fns(net, x, x_adv, y, kind)
        full = hutchinson_trace(
            quad_form_from_values(value_fn, flatten_weights(net)),
            param_count(net), measure.probes,
            Rng(PROBE_SEED).child("trace-probes"))
    values = [epoch, float(np.mean(analytic_trh_rows(net, x, x_adv, y, kind))),
              *full, *map(float, layer_trace_rows(net, x_adv).mean(axis=0)),
              metrics_row["train_loss"], metrics_row["pgd_acc"]]
    return [dict(zip(measurement_columns(measure.mode, net.depth), values))]


def spectrum_records(net: MlpNetwork, x, x_adv, y, kind: RobustLossKind,
                     epoch: int, probes: int, rng: Rng):
    """Per-layer and whole-network (trace, trace_sq) with eigenvalue stats.

    Layer subsets cover that layer's weights and biases; layer 0 denotes
    the whole network.  Hessian-vector products are central differences of
    the bare robust objective's gradient
    (:func:`~trhreg.hessian_oracle.frozen_objective_fns`).  The probes of a
    layer are probes of its own parameters, on its layer-local gradient
    (``layer``), which differentiates only that layer.  The whole-network
    trace is the sum of the layer traces (trace is block-additive), while
    its trace_sq gets its own full-support probes, on the whole-network
    product, because squares are not.
    """
    def record(layer, trace, trace_sq, n):
        values = (epoch, layer, trace, trace_sq, *eigen_stats(trace, trace_sq, n))
        return dict(zip(SPECTRUM_COLUMNS, values))

    dim = param_count(net)
    records, total = [], 0.0
    for li in range(1, net.depth + 1):
        w0 = layer_params(net, li - 1)
        _, grad_fn = frozen_objective_fns(net, x, x_adv, y, kind, layer=li - 1)
        (trace, _), (trace_sq, _) = hutchinson_trace_pair(
            hvp_from_grad(grad_fn, w0), w0.size, probes, rng.child("layer", li))
        records.append(record(li, trace, trace_sq, w0.size))
        total += trace
    _, grad_fn = frozen_objective_fns(net, x, x_adv, y, kind)
    trace_sq, _ = hutchinson_trace_pair(hvp_from_grad(grad_fn, flatten_weights(net)),
                                        dim, probes, rng.child("full"))[1]
    records.insert(0, record(0, total, trace_sq, dim))
    return records
