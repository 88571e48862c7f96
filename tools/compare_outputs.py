#!/usr/bin/env python3
"""Check that two checkouts of trhreg give byte-identical outputs.

Usage:

    python tools/compare_outputs.py PARENT_ROOT CHANGE_ROOT [--only TEXT]

Writes the seed-1 benchmark inputs once (the `mart`, `blobs`, `probe` and
`pgd10` configs of ``bench/workloads.make_inputs`` in this repository),
plus configs derived from `probe`: three that reach the training options
the benchmark leaves off (`probe-swa`: SWA, cosine lr with warmup, a
linear lambda schedule; `probe-awp`: AWP, multistep lr, a multistep
lambda schedule and a clamp box; `probe-restarts`: three attack restarts
at delta 0.6, where the per-epoch ``pgd_acc`` depends on the restart
count, as it does not at the probe's delta 0.3), three that reach the
losses and loss settings it leaves off (`probe-alp`: ALP, penalty 0.5;
`probe-trades`: TRADES, penalty 6, stop-gradient clean logits;
`probe-mart`: MART, penalty 5, with the probe's whole-network term), and
two whose training diverges in epoch 0, before its first measurement, so
train, trace and spectrum exit 2: in a step (`probe-diverge`: base_lr
100000), and in the epoch-end attack after one full-batch step at base_lr
1e20 (`probe-diverge-attack`; the run keeps the weights the epoch started
from).  It then runs every command of the list below in both checkouts,
each with ``PYTHONPATH=<root>/src``, one BLAS thread and its own output
directory:

* per benchmark, loss or diverging config: ``train``; ``trace --measure
  full --every 7 --probes 8``; ``trace --measure top --every 3``;
  ``spectrum --every 7 --probes 4``;
* per config: ``eval`` with the config's own ``attack.restarts``, and
  ``eval --restarts 1`` and ``--restarts 20``, on the ``train``
  checkpoint (a training-option config runs only these and ``train``);
* ``sweep --param lambda --values 0.05,0.1`` on `probe`;
* ``verify --level full --seed 0``, every check result of that run with
  its detail string, and ``verify --level quick`` at seeds 0, 778 and
  1564;
* ``demos/oracle_tour.py`` and ``demos/bound_anatomy.py``.

A command is IDENTICAL when exit code, stdout, stderr and every file it
wrote match byte for byte, after each checkout's output directory is
replaced by a placeholder.  `--only` keeps the commands whose name
contains TEXT.  Prints one line per command and exits 1 on any
difference.  Under a DIFF line, each CSV that differs gets one line per
column that moved, with the number of rows in which it moved and the
largest absolute difference.
"""

from __future__ import annotations

import argparse
import csv
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = {"mart": "moons-mart-measure", "blobs": "blobs-k10",
             "pgd10": "moons-pgd10"}  # config tag -> benchmark workload
SEED = 1
RUNS = {"train": ["train"],
        "trace-full": ["trace", "--measure", "full", "--every", "7", "--probes", "8"],
        "trace-top": ["trace", "--measure", "top", "--every", "3"],
        "spectrum": ["spectrum", "--every", "7", "--probes", "4"]}
RESTARTS = ("1", "20")
# tag -> keys that replace the probe config's (a config names each key once);
# a training-option config runs train and eval only
TRAIN_OPTIONS = {
    "probe-swa": {"train.baseline": "swa", "train.lr_decay": "cosine",
                  "train.warmup_iters": "3", "trh.schedule": "linear"},
    "probe-awp": {"train.baseline": "awp", "train.lr_decay": "multistep",
                  "trh.schedule": "multistep", "attack.clamp_min": "-1.5",
                  "attack.clamp_max": "1.5"},
    "probe-restarts": {"attack.restarts": "3", "attack.delta": "0.6"},
}
LOSSES = {
    "probe-alp": {"loss.kind": "alp", "loss.penalty": "0.5"},
    "probe-trades": {"loss.kind": "trades", "loss.penalty": "6",
                     "trh.stop_grad_clean": "true"},
    "probe-mart": {"loss.kind": "mart", "loss.penalty": "5"},
}
DIVERGING = {"probe-diverge": {"train.base_lr": "100000"},
             "probe-diverge-attack": {"train.batch_size": "0",
                                      "train.base_lr": "1e20"}}
VERIFY_QUICK_SEEDS = ("0", "778", "1564")
# verify prints only failing checks; this prints every check of the full run
VERIFY_DETAILS = """
from trhreg.verify import run_verification
for r in run_verification("full", 0)[0]:
    print(r.group, r.name, r.passed, r.seed, r.detail)
"""


def write_inputs(dirname):
    """{tag: config path} of the seed-1 benchmark inputs, written to `dirname`."""
    sys.path[:0] = [os.path.join(ROOT, "bench"), os.path.join(ROOT, "src")]
    import workloads

    paths = {}
    for tag, workload in WORKLOADS.items():
        main, probe = workloads.make_inputs(workload, dirname, SEED)
        paths[tag] = main.config
    paths["probe"] = probe.config  # every workload writes the same probe
    with open(probe.config, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    for tag, changes in {**TRAIN_OPTIONS, **LOSSES, **DIVERGING}.items():
        paths[tag] = os.path.join(dirname, f"{tag}.txt")
        with open(paths[tag], "w", encoding="utf-8") as fh:
            fh.writelines(f"{line}\n" for line in lines
                          if line.partition("=")[0].strip() not in changes)
            fh.writelines(f"{key} = {value}\n" for key, value in changes.items())
    return paths


def commands(configs):
    """[(name, argv after the interpreter)] in run order.  In an argv,
    "{out}" stands for the command's output directory, "{side}" for the
    checkout's work directory and "{root}" for the checkout."""
    cli = ["-m", "trhreg"]
    out = []
    for tag, cfg in configs.items():
        for run, args in RUNS.items():
            if tag in TRAIN_OPTIONS and run != "train":
                continue
            out.append((f"{run}:{tag}", cli + args + ["--config", cfg, "--out", "{out}"]))
        checkpoint = os.path.join("{side}", f"train:{tag}", "checkpoint.txt")
        evaluate = cli + ["eval", "--config", cfg, "--checkpoint", checkpoint,
                          "--out", "{out}"]
        out.append((f"eval:{tag}", evaluate))
        for restarts in RESTARTS:
            out.append((f"eval-r{restarts}:{tag}", evaluate + ["--restarts", restarts]))
    out.append(("sweep:probe", cli + [
        "sweep", "--config", configs["probe"], "--out", "{out}",
        "--param", "lambda", "--values", "0.05,0.1"]))
    out.append(("verify-full:s0", cli + ["verify", "--level", "full", "--seed", "0"]))
    out.append(("verify-details:full-s0", ["-c", VERIFY_DETAILS]))
    for seed in VERIFY_QUICK_SEEDS:
        out.append((f"verify-quick:s{seed}",
                    cli + ["verify", "--level", "quick", "--seed", seed]))
    for demo in ("oracle_tour", "bound_anatomy"):
        out.append((f"demo:{demo}", [os.path.join("{root}", "demos", f"{demo}.py")]))
    return out


def _env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _start(root, side, name, argv):
    out = os.path.join(side, name)
    os.makedirs(out)
    fill = {"{out}": out, "{side}": side, "{root}": root}
    argv = [sys.executable] + [_fill(a, fill) for a in argv]
    proc = subprocess.Popen(argv, cwd=out, env=_env(root),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    return proc, out


def _fill(arg, fill):
    for key, value in fill.items():
        arg = arg.replace(key, value)
    return arg


def _outputs(proc, out, side):
    """{item: normalized bytes}: exit code, stdout, stderr and every file."""
    stdout, stderr = proc.communicate()
    marker = side.encode()
    got = {"exit code": str(proc.returncode).encode(),
           "stdout": stdout.replace(marker, b"<side>"),
           "stderr": stderr.replace(marker, b"<side>")}
    for dirpath, _, names in os.walk(out):
        for fname in names:
            path = os.path.join(dirpath, fname)
            with open(path, "rb") as fh:
                got[os.path.relpath(path, out)] = fh.read().replace(marker, b"<side>")
    return got


def compare(parent, change, only=None) -> int:
    """Run the command list in both checkouts; the number of DIFF lines."""
    diffs = 0
    with tempfile.TemporaryDirectory() as tmp:
        configs = write_inputs(tmp)
        sides = {}
        for label in ("parent", "change"):
            sides[label] = os.path.join(tmp, label)
            os.makedirs(sides[label])
        for name, argv in commands(configs):
            if only and only not in name:
                continue
            # both checkouts run at once, one BLAS thread each
            procs = [_start(root, sides[label], name, argv)
                     for label, root in (("parent", parent), ("change", change))]
            a, b = (_outputs(proc, out, sides[label])
                    for (proc, out), label in zip(procs, ("parent", "change")))
            bad = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
            diffs += bool(bad)
            print(f"{'DIFF' if bad else 'IDENTICAL':9s} {name}"
                  + (f"  ({', '.join(bad)})" if bad else ""), flush=True)
            for item in bad:
                if item.endswith(".csv") and item in a and item in b:
                    for line in csv_changes(a[item], b[item]):
                        print(f"          {item}: {line}", flush=True)
    return diffs


def _table(data: bytes):
    """(header, rows) of a CSV that may open with ``#`` comment lines."""
    lines = [l for l in data.decode().splitlines() if l and not l.startswith("#")]
    rows = list(csv.reader(lines))
    return (rows[0], rows[1:]) if rows else ([], [])


def csv_changes(a: bytes, b: bytes) -> list:
    """One line per column that differs between two CSVs: the number of
    rows in which it differs and the largest absolute difference."""
    (head_a, rows_a), (head_b, rows_b) = _table(a), _table(b)
    if head_a != head_b or len(rows_a) != len(rows_b):
        return [f"columns or row count differ ({len(head_a)} x {len(rows_a)} "
                f"against {len(head_b)} x {len(rows_b)})"]
    out = []
    for j, column in enumerate(head_a):
        pairs = [(ra[j], rb[j]) for ra, rb in zip(rows_a, rows_b) if ra[j] != rb[j]]
        if not pairs:
            continue
        try:
            largest = f"{max(abs(float(x) - float(y)) for x, y in pairs):.6g}"
        except ValueError:
            largest = "n/a"
        out.append(f"{column} differs in {len(pairs)} of {len(rows_a)} rows, "
                   f"largest |difference| {largest}")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent_root")
    p.add_argument("change_root")
    p.add_argument("--only", default=None,
                   help="run only the commands whose name contains this text")
    args = p.parse_args(argv)
    roots = [os.path.abspath(r) for r in (args.parent_root, args.change_root)]
    for root in roots:
        if not os.path.isdir(os.path.join(root, "src", "trhreg")):
            p.error(f"{root} is not a trhreg checkout (no src/trhreg)")
    return 1 if compare(*roots, only=args.only) else 0


if __name__ == "__main__":
    sys.exit(main())
