"""The benchmark's workloads: seeded inputs and the subcommands of one round.

Each workload is a closed loop: one client runs the round's CLI invocations
one after another, and the next round starts when the last check of the
previous one is done.  A round runs the workload's own subcommands on its
own config, interleaved with the shared *probe*: the subcommands the
workload is not about, on a tiny config, so that every end-to-end metric
exists on every workload (on those workloads it is the subcommand's fixed
cost: interpreter start, import, config parsing, a few epochs on 90
points).

All inputs (configs, CSVs) are written by :func:`make_inputs` from the seed
into the run's temporary directory; the program receives only those files.
"""

from __future__ import annotations

import collections
import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

import checks

# -- inputs ---------------------------------------------------------------

MOONS_N = 500
PGD10_EPOCHS = 30
PGD10_EVAL_RESTARTS = 20
MART_EPOCHS = 15
MART_TRACE_EVERY = 7
MART_TRACE_PROBES = 64
MART_SPECTRUM_EVERY = 14
MART_SPECTRUM_PROBES = 8
BLOBS = dict(n=1000, d=20, k=10, center_std=0.8)
BLOBS_EPOCHS = 5
BLOBS_TRACE_EVERY = 5
BLOBS_TRACE_PROBES = 8
VERIFY_SEED = 0
PROBE_DATA = dict(n=90, d=4, k=3, gap=3.0)
PROBE_EPOCHS = 6
PROBE_TRACE_EVERY = 3
PROBE_TRACE_PROBES = 8
PROBE_SPECTRUM_EVERY = 5
PROBE_SPECTRUM_PROBES = 4


def _moons_base(seed):
    return {
        "dataset.kind": "two_moons", "dataset.n": MOONS_N,
        "dataset.noise_std": 0.1, "dataset.seed": seed,
        "net.hidden": "100,100",
        "attack.norm": "linf", "attack.delta": 0.02,
        "trh.lambda": 0.5, "train.base_lr": 0.1, "train.momentum": 0.9,
        "train.seed": seed,
    }


def pgd10_config(seed):
    """The README example with a 10-step attack."""
    return {**_moons_base(seed), "loss.kind": "at", "attack.steps": 10,
            "train.epochs": PGD10_EPOCHS}


def mart_config(seed):
    # MART diverges on some seeds at the base lr 0.1 (see the benchmark
    # README); lr 0.05 and lambda 0.1 trained on all of 500 seeds tried
    return {**_moons_base(seed), "loss.kind": "mart", "loss.penalty": 5.0,
            "attack.steps": 1, "trh.lambda": 0.1, "train.base_lr": 0.05,
            "train.epochs": MART_EPOCHS}


def blobs_config(csv_path, seed):
    return {
        "dataset.kind": "csv", "dataset.path": csv_path,
        "dataset.normalize": "true",
        "net.hidden": "64,64",
        "loss.kind": "trades", "loss.penalty": 6.0,
        "attack.norm": "l2", "attack.delta": 1.0, "attack.steps": 3,
        "trh.lambda": 0.1, "trh.stop_grad_clean": "false",
        "trh.full_coeff": 0.01,
        "train.epochs": BLOBS_EPOCHS, "train.batch_size": 100,
        "train.base_lr": 0.05, "train.momentum": 0.9, "train.seed": seed,
    }


def probe_config(csv_path, seed):
    """Tiny AT run on 3 separated blobs that still reaches every module:
    CSV loading, centering, minibatches and the whole-network regularizer."""
    return {
        "dataset.kind": "csv", "dataset.path": csv_path,
        "dataset.normalize": "true",
        "net.hidden": "8",
        "loss.kind": "at",
        "attack.norm": "l2", "attack.delta": 0.3, "attack.steps": 2,
        "trh.lambda": 0.1, "trh.full_coeff": 0.01,
        "train.epochs": PROBE_EPOCHS, "train.batch_size": 30,
        "train.base_lr": 0.1, "train.momentum": 0.9, "train.seed": seed,
    }


def gaussian_blobs(seed, n, d, k, center_std):
    """k Gaussian classes with centers drawn N(0, center_std^2) per feature."""
    rng = np.random.default_rng([seed, n, d, k])
    return _around(rng, rng.normal(0.0, center_std, size=(k, d)), n)


def separated_blobs(seed, n, d, k, gap):
    """k Gaussian classes centered ``gap`` along the first k axes, so every
    seed gives an easy problem."""
    rng = np.random.default_rng([seed, n, d, k])
    return _around(rng, gap * np.eye(k, d), n)


def _around(rng, centers, n):
    """n points with unit noise around the class centers, in raw units
    (scaled and offset, so centering matters)."""
    k, d = centers.shape
    y = rng.permutation(np.arange(n) % k)
    X = (centers[y] + rng.normal(size=(n, d))) * 3.0 + 5.0
    return X, y


def write_csv(path, X, y):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join([f"x{i}" for i in range(X.shape[1])] + ["label"]) + "\n")
        for row, label in zip(X, y):
            fh.write(",".join(repr(float(v)) for v in row) + f",{int(label)}\n")


def write_config(path, cfg):
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in cfg.items():
            fh.write(f"{key} = {value}\n")


def centered(X):
    """The global scalar centering that dataset.normalize applies."""
    std = float(X.std())
    return (X - float(X.mean())) / std


@dataclass
class Data:
    """A config file plus the data it trains on, for the output checks."""
    config: str
    X: np.ndarray
    y: np.ndarray
    num_classes: int
    epochs: int
    num_layers: int

    @property
    def min_acc(self) -> float:
        """Chance accuracy plus 4 standard errors of a chance-level
        classifier on this many points: well above chance, yet clear of
        the slowest seeds' final accuracy."""
        chance = 1.0 / self.num_classes
        return chance + 4.0 * math.sqrt(chance * (1.0 - chance) / len(self.y))


def _csv_data(dirname, tag, seed, X, y, cfg_fn, epochs):
    csv_path = os.path.join(dirname, f"{tag}.csv")
    write_csv(csv_path, X, y)
    cfg = cfg_fn(csv_path, seed)
    cfg_path = os.path.join(dirname, f"{tag}.txt")
    write_config(cfg_path, cfg)
    layers = len(cfg["net.hidden"].split(",")) + 1
    return Data(cfg_path, centered(X), y, int(y.max()) + 1, epochs, layers)


def _moons_data(dirname, tag, cfg):
    # two-moons points come from the program's generator; the checks only
    # need them as inputs to their own forward pass
    from trhreg.data import two_moons

    path = os.path.join(dirname, f"{tag}.txt")
    write_config(path, cfg)
    ds = two_moons(cfg["dataset.n"], cfg["dataset.noise_std"], seed=cfg["dataset.seed"])
    return Data(path, ds.inputs, ds.labels, 2, cfg["train.epochs"], 3)


def make_inputs(workload, dirname, seed):
    """(main Data or None, probe Data) for one run."""
    probe = _csv_data(dirname, "probe", seed, *separated_blobs(seed, **PROBE_DATA),
                      probe_config, PROBE_EPOCHS)
    if workload == "moons-pgd10":
        return _moons_data(dirname, "pgd10", pgd10_config(seed)), probe
    if workload == "moons-mart-measure":
        return _moons_data(dirname, "mart", mart_config(seed)), probe
    if workload == "blobs-k10":
        return _csv_data(dirname, "blobs", seed, *gaussian_blobs(seed, **BLOBS),
                         blobs_config, BLOBS_EPOCHS), probe
    return None, probe


# -- rounds ---------------------------------------------------------------
#
# A workload's own subcommands are a generator that yields after each
# invocation, and so is the probe; _interleave runs a few probe invocations
# before every main one.  Each metric's samples are then spread over the
# whole run rather than bunched at the end of each round, which matters on a
# machine whose speed drifts within seconds.


def _train(s, metric, data, out, cmd="train", extra=()):
    """One training invocation plus its training check: (op, out, clean_acc)."""
    op = s.run(metric, [cmd, "--config", data.config, "--out", out, *extra])
    acc = s.check(op, checks.check_training, out, data.X, data.y,
                  data.num_classes, data.min_acc)
    return op, out, acc


def _same_training(s, runs):
    """Every run after the first must have written the first's bytes."""
    for op, out, _ in runs[1:]:
        s.check(op, checks.check_same_training, runs[0][1], out)


def _eval(s, metric, data, trained, restarts, out):
    """eval on a training run's checkpoint; returns the robust accuracy."""
    _, train_out, acc = trained
    op = s.run(metric, ["eval", "--config", data.config, "--checkpoint",
                        os.path.join(train_out, "checkpoint.txt"),
                        "--restarts", str(restarts), "--out", out])
    robust = s.check(op, checks.check_eval, out, acc) if acc is not None else None
    return op, robust


def _verify(s, level):
    # verify --seed is fixed: its 3-standard-error probe checks fail by
    # chance on about 0.6 % of seeds (see the benchmark README), and its
    # instance shapes, hence its work, change with the seed
    op = s.run("verify_s", ["verify", "--level", level, "--seed", str(VERIFY_SEED)])
    s.check(op, checks.check_verify, op.stdout)


def probe_steps(s, probe, rdir, skip, repeats):
    """The probe subcommands not in ``skip`` on the tiny config, ``repeats``
    times, yielding after each invocation.  Each repeat starts with one
    set-up sample."""
    runs = []
    for rep in range(repeats):
        s.sample_setup()
        first = len(runs)
        if "train_s" not in skip:
            runs.append(_train(s, "train_s", probe,
                               os.path.join(rdir, f"probe{rep}-train")))
            yield
        if "trace_s" not in skip:
            run = _train(s, "trace_s", probe, os.path.join(rdir, f"probe{rep}-trace"),
                         "trace", ["--measure", "full",
                                   "--every", str(PROBE_TRACE_EVERY),
                                   "--probes", str(PROBE_TRACE_PROBES)])
            s.check(run[0], checks.check_trace, run[1], probe.epochs,
                    PROBE_TRACE_EVERY, True)
            runs.append(run)
            yield
        if "spectrum_s" not in skip:
            run = _train(s, "spectrum_s", probe,
                         os.path.join(rdir, f"probe{rep}-spectrum"), "spectrum",
                         ["--every", str(PROBE_SPECTRUM_EVERY),
                          "--probes", str(PROBE_SPECTRUM_PROBES)])
            s.check(run[0], checks.check_spectrum, run[1], probe.num_layers)
            runs.append(run)
            yield
        if "eval_s" not in skip:
            _eval(s, "eval_s", probe, runs[first], 1,
                  os.path.join(rdir, f"probe{rep}-eval"))
            yield
        if "verify_s" not in skip:
            _verify(s, "quick")
            yield
    _same_training(s, runs)


def _interleave(main, probe, per_step):
    """Run ``per_step`` steps of ``probe`` before each step of ``main``,
    then whatever is left of both."""
    done = object()
    while True:
        collections.deque(itertools.islice(probe, per_step), maxlen=0)
        if next(main, done) is done:
            break
    collections.deque(probe, maxlen=0)


def _moons_pgd10(s, data, rdir):
    trained = _train(s, "train_s", data, os.path.join(rdir, "train"))
    yield
    _, robust_many = _eval(s, "eval_s", data, trained, PGD10_EVAL_RESTARTS,
                           os.path.join(rdir, "eval-many"))
    yield
    # a second eval with one restart, only for the restart property
    op, robust_one = _eval(s, None, data, trained, 1, os.path.join(rdir, "eval-one"))
    if robust_many is not None and robust_one is not None:
        s.check(op, checks.check_restarts_monotone, robust_many, robust_one)
    yield


def round_moons_pgd10(s, data, probe, rdir):
    # probe: 2 x (trace, spectrum, verify quick); 2 before each main step
    _interleave(_moons_pgd10(s, data, rdir),
                probe_steps(s, probe, rdir, {"train_s", "eval_s"}, 2), 2)


def _moons_mart_measure(s, data, rdir):
    trace = _train(s, "trace_s", data, os.path.join(rdir, "trace"), "trace",
                   ["--measure", "full", "--every", str(MART_TRACE_EVERY),
                    "--probes", str(MART_TRACE_PROBES)])
    s.check(trace[0], checks.check_trace, trace[1], data.epochs,
            MART_TRACE_EVERY, False)
    yield
    spectrum = _train(s, "spectrum_s", data, os.path.join(rdir, "spectrum"),
                      "spectrum", ["--every", str(MART_SPECTRUM_EVERY),
                                   "--probes", str(MART_SPECTRUM_PROBES)])
    s.check(spectrum[0], checks.check_spectrum, spectrum[1], data.num_layers)
    _same_training(s, [trace, spectrum])
    yield


def round_moons_mart_measure(s, data, probe, rdir):
    # probe: 2 x (train, eval, verify quick); 2 before each main step
    _interleave(_moons_mart_measure(s, data, rdir),
                probe_steps(s, probe, rdir, {"trace_s", "spectrum_s"}, 2), 2)


def _blobs_k10(s, data, rdir):
    trained = _train(s, "train_s", data, os.path.join(rdir, "train"))
    yield
    trace = _train(s, "trace_s", data, os.path.join(rdir, "trace"), "trace",
                   ["--measure", "layers", "--every", str(BLOBS_TRACE_EVERY),
                    "--probes", str(BLOBS_TRACE_PROBES)])
    s.check(trace[0], checks.check_trace, trace[1], data.epochs,
            BLOBS_TRACE_EVERY, False)
    _same_training(s, [trained, trace])
    yield


def round_blobs_k10(s, data, probe, rdir):
    # probe: 2 x (spectrum, eval, verify quick); 2 before each main step
    _interleave(_blobs_k10(s, data, rdir),
                probe_steps(s, probe, rdir, {"train_s", "trace_s"}, 2), 2)


def _verify_full(s):
    _verify(s, "full")
    yield


def round_verify_full(s, data, probe, rdir):
    # probe: 3 x (train, trace, spectrum, eval); half before verify, half after
    _interleave(_verify_full(s),
                probe_steps(s, probe, rdir, {"verify_s"}, 3), 6)


ROUNDS = {
    "moons-pgd10": round_moons_pgd10,
    "moons-mart-measure": round_moons_mart_measure,
    "blobs-k10": round_blobs_k10,
    "verify-full": round_verify_full,
}
