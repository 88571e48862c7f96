#!/usr/bin/env python3
"""Time two checkouts of trhreg against each other in alternating pairs.

Usage:

    python tools/ab_bench.py PARENT_ROOT CHANGE_ROOT --workload W --pairs N
                             [--seconds S]
    python tools/ab_bench.py PARENT_ROOT CHANGE_ROOT --stmt CODE
                             [--setup CODE] --pairs N

With ``--workload``, each pair runs ``bench/run.py --workload W --seed 1
--seconds S --trace 0`` once in each checkout, one run after the other,
from that checkout's root and with that checkout's own ``bench/``; the
mode only reads ``bench/``.  Each run's last line is the benchmark's JSON
result; its end-to-end metrics are the run's values.

With ``--stmt``, each pair runs one fresh ``python -c`` process per
checkout, from that checkout's root with ``PYTHONPATH=<root>/src`` and one
BLAS thread.  The process calls ``trhreg.numerics.pin_allocator``, runs
`--setup` once, runs `--stmt` once as a warm-up, then times one more run
of it; that time is the run's one metric, ``stmt_s``.  For example:

    python tools/ab_bench.py OLD NEW --pairs 10 \\
        --setup "from trhreg.verify import run_verification" \\
        --stmt "run_verification('full', 0)"

In both modes pair 1 runs the parent first, pair 2 the change first, and
so on, so that neither side always runs second on a machine whose speed
drifts.  Per metric the tool prints:

* the median and the interquartile range (Q3 - Q1, from
  ``statistics.quantiles(n=4)``; 0 with fewer than two pairs) of the
  parent's and of the change's run values, and their ratio;
* the pairs the change won (lower is better for every metric), out of
  the pairs that were not tied;
* a two-sided sign-test p-value for those wins.

Every run's values are printed first, one ``# pair`` line per pair.  The
exit code is 1 when a run exits non-zero or (workload mode) reports an
incorrect or failed operation, else 0.
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


# the program of one --stmt run; argv: setup, stmt
STMT_PROGRAM = """
import json, sys, time
from trhreg.numerics import pin_allocator
pin_allocator()
exec(sys.argv[1])
stmt = compile(sys.argv[2], "<stmt>", "exec")
exec(stmt)
t0 = time.perf_counter()
exec(stmt)
print(json.dumps({"stmt_s": time.perf_counter() - t0}))
"""


def run_stmt(root, setup, stmt):
    """One timed run of `stmt` in a fresh process in `root`:
    (ok, {"stmt_s": seconds})."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run([sys.executable, "-c", STMT_PROGRAM, setup, stmt],
                          cwd=root, env=env, capture_output=True, text=True)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or result is None:
        sys.stderr.write(f"{root}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        return False, {}
    return True, result


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
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload")
    mode.add_argument("--stmt")
    p.add_argument("--setup", default="pass")
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    args = p.parse_args(argv)
    roots = dict(zip(SIDES, (os.path.abspath(r) for r in
                             (args.parent_root, args.change_root))))
    needed = ("bench", "run.py") if args.workload else ("src", "trhreg")
    for root in roots.values():
        if not os.path.exists(os.path.join(root, *needed)):
            p.error(f"{root} has no {'/'.join(needed)}")
    if args.pairs < 1:
        p.error("--pairs must be at least 1")

    if args.workload:
        print(f"# ab_bench workload={args.workload} pairs={args.pairs} "
              f"seconds={args.seconds}", flush=True)
        run = lambda root: run_bench(root, args.workload, args.seconds)
    else:
        print(f"# ab_bench stmt={args.stmt!r} setup={args.setup!r} "
              f"pairs={args.pairs}", flush=True)
        run = lambda root: run_stmt(root, args.setup, args.stmt)
    values = {side: [] for side in SIDES}
    ok = True
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            run_ok, metrics = run(roots[side])
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
