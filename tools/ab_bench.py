#!/usr/bin/env python3
"""Time two checkouts of trhreg against each other in alternating pairs.

Usage:

    python tools/ab_bench.py PARENT_ROOT CHANGE_ROOT --workload W --pairs N
                             [--seconds S]

Each pair runs ``bench/run.py --workload W --seed 1 --seconds S --trace 0``
once in each checkout, one run after the other, from that checkout's root
and with that checkout's own ``bench/``.  Pair 1 runs the parent first,
pair 2 the change first, and so on, so that neither side always runs
second on a machine whose speed drifts.  The tool only reads ``bench/``.

Each run's last line is the benchmark's JSON result; its end-to-end
metrics are the run's values.  Per metric the tool prints:

* the median and the interquartile range (Q3 - Q1, from
  ``statistics.quantiles(n=4)``; 0 with fewer than two pairs) of the
  parent's and of the change's run values, and their ratio;
* the pairs the change won (lower is better for every end-to-end metric
  of the benchmark), out of the pairs that were not tied;
* a two-sided sign-test p-value for those wins.

Every run's values are printed first, one ``# pair`` line per pair.  The
exit code is 1 when a run exits non-zero or reports an incorrect or
failed operation, else 0.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")
SEED = 1  # the benchmark's seed


def run_bench(root, workload, seconds):
    """One benchmark run in `root`: (ok, {metric: value})."""
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(f"{root}: no result line\n{proc.stderr[-2000:]}")
        return False, {}
    ok = proc.returncode == 0 and result["correct"] and not result["failed"]
    if not ok:
        sys.stderr.write(f"{root}: exit {proc.returncode}, correct "
                         f"{result['correct']}, failed {result['failed']}\n"
                         f"{proc.stderr[-2000:]}")
    return ok, {name: m["value"] for name, m in result["metrics"].items()}


def iqr(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def sign_test(wins, trials):
    """Two-sided p-value of `wins` of `trials` under a fair coin."""
    if trials == 0:
        return 1.0
    tail = min(wins, trials - wins)
    p = 2 * sum(math.comb(trials, i) for i in range(tail + 1)) / 2 ** trials
    return min(1.0, p)


def summarize(values):
    """One table line per metric, for `values` = {side: [{metric: value}]}."""
    lines = [f"{'metric':14s} {'parent':>9s} {'IQR':>7s} {'change':>9s} {'IQR':>7s} "
             f"{'ratio':>6s} {'won':>6s} {'p':>7s}"]
    for name in values["parent"][0]:
        a = [run[name] for run in values["parent"]]
        b = [run[name] for run in values["change"]]
        wins = sum(y < x for x, y in zip(a, b))
        trials = sum(x != y for x, y in zip(a, b))
        ma, mb = statistics.median(a), statistics.median(b)
        ratio = mb / ma if ma else float("nan")
        lines.append(f"{name:14s} {ma:9.4f} {iqr(a):7.4f} {mb:9.4f} {iqr(b):7.4f} "
                     f"{ratio:6.3f} {wins:>2d}/{trials:<3d} {sign_test(wins, trials):7.4f}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent_root")
    p.add_argument("change_root")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    args = p.parse_args(argv)
    roots = dict(zip(SIDES, (os.path.abspath(r) for r in
                             (args.parent_root, args.change_root))))
    for root in roots.values():
        if not os.path.isfile(os.path.join(root, "bench", "run.py")):
            p.error(f"{root} has no bench/run.py")
    if args.pairs < 1:
        p.error("--pairs must be at least 1")

    print(f"# ab_bench workload={args.workload} pairs={args.pairs} "
          f"seconds={args.seconds}", flush=True)
    values = {side: [] for side in SIDES}
    ok = True
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            run_ok, metrics = run_bench(roots[side], args.workload, args.seconds)
            ok &= run_ok
            values[side].append(metrics)
        print(f"# pair {i + 1} first={order[0]} " + " ".join(
            f"{name}={values['parent'][-1].get(name, float('nan')):.4f}/"
            f"{values['change'][-1].get(name, float('nan')):.4f}"
            for name in values["parent"][-1]), flush=True)
    if not ok:
        return 1
    for line in summarize(values):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
