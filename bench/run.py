"""Benchmark of the trhreg workbench, end to end and per module.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is taken from ``src/``
through ``PYTHONPATH``; nothing is installed).  One run:

1. writes the workload's inputs (configs, CSVs) from ``--seed`` into a
   temporary directory under ``.bench_tmp/``;
2. runs whole rounds of the workload's CLI invocations for about
   ``--seconds``, checking every invocation's outputs; with ``--trace 0``
   each repeat of the probe within a round first starts a fresh
   interpreter to time set-up (import, config, dataset, network init);
3. prints every metric by name and unit, and as its last line one JSON
   object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--workload all`` makes one run of each workload in turn; its last line
keys the metrics by ``<workload>/<metric>``.  ``--trace 0`` reports the
end-to-end metrics (medians over rounds).
``--trace 1`` alternates untraced and traced rounds and reports per-span
call counts, inclusive and self seconds, the forwards per attack step and
the tracing overhead.  Every child is a single process with one BLAS
thread, started only after the previous one has exited.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

import checks
import tracer
import workloads

BLAS_THREADS = "1"
RUN_LIMIT_S = 170.0  # every run exits well within 180 s
END_TO_END = ["setup_s", "train_s", "eval_s", "trace_s", "spectrum_s",
              "verify_s", "peak_rss_mb"]
SUBCOMMAND_METRICS = END_TO_END[1:-1]
SETUP_CODE = ("import sys\n"
              "from trhreg.config import ExperimentConfig\n"
              "cfg = ExperimentConfig.from_file(sys.argv[1])\n"
              "cfg.build_network(cfg.build_dataset())\n")


@dataclass
class Op:
    metric: str | None
    args: list
    seconds: float = 0.0
    rss_mb: float = 0.0
    returncode: int = 0
    stdout: str = ""
    span_file: str | None = None
    failed: bool = False


@dataclass
class Session:
    """Runs CLI invocations one at a time and records their outcome."""
    root: str
    tmp: str
    start: float
    setup_config: str = ""  # set-up is timed only when this is set
    traced: bool = False
    ops: list = field(default_factory=list)
    setup_samples: list = field(default_factory=list)
    check_failures: list = field(default_factory=list)

    def env(self):
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = BLAS_THREADS
        return env

    def time_left(self):
        return RUN_LIMIT_S - (time.perf_counter() - self.start)

    def spawn(self, argv, log_prefix):
        """Run argv to completion: (returncode, seconds, peak RSS MB, stdout)."""
        out_path, err_path = log_prefix + ".out", log_prefix + ".err"
        timeout = max(1.0, self.time_left())
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env(),
                                    stdout=out, stderr=err)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, "r", encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        if proc.returncode != 0:
            with open(err_path, "r", encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-2000:]
            print(f"exit {proc.returncode}: {' '.join(argv)}\n{tail}", file=sys.stderr)
        return proc.returncode, seconds, usage.ru_maxrss / 1024.0, stdout

    def sample_setup(self):
        """Time one fresh process through set-up (import, config, dataset,
        network init)."""
        if not self.setup_config or self.time_left() <= 0:
            return
        rc, secs, _, _ = self.spawn(
            [sys.executable, "-c", SETUP_CODE, self.setup_config],
            os.path.join(self.tmp, f"setup{len(self.setup_samples)}"))
        if rc != 0:
            self.check_failures.append("set-up process failed")
        self.setup_samples.append(secs)

    def run(self, metric, args) -> Op:
        op = Op(metric, list(args))
        if self.time_left() <= 0:
            op.failed = True  # not started: the run is out of time
            self.ops.append(op)
            return op
        prefix = os.path.join(self.tmp, f"op{len(self.ops)}")
        if self.traced:
            op.span_file = prefix + ".spans.json"
            argv = [sys.executable, os.path.join(self.root, "bench", "tracer.py"),
                    op.span_file, *args]
        else:
            argv = [sys.executable, "-m", "trhreg", *args]
        op.returncode, op.seconds, op.rss_mb, op.stdout = self.spawn(argv, prefix)
        op.failed = op.returncode != 0
        self.ops.append(op)
        return op

    def check(self, op, fn, *args):
        """Apply one output check; a failure fails the op.  Returns fn's
        result, or None when the op had already failed or the check fails."""
        if op.failed:
            return None
        try:
            return fn(*args)
        except (checks.CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
            op.failed = True
            msg = f"check {fn.__name__} failed for {' '.join(op.args)}: {exc}"
            self.check_failures.append(msg)
            print(msg, file=sys.stderr)
            return None


def run_round(session, workload, data, probe, index, traced):
    session.traced = traced
    rdir = os.path.join(session.tmp, f"round{index}")
    os.makedirs(rdir)
    first = len(session.ops)
    workloads.ROUNDS[workload](session, data, probe, rdir)
    ops = session.ops[first:]
    shutil.rmtree(rdir)
    return ops


def round_seconds(ops):
    return sum(op.seconds for op in ops)


def end_to_end_samples(setup_samples, rounds):
    """Every sample of every end-to-end metric, in the order taken."""
    samples = {"setup_s": list(setup_samples)}
    for metric in SUBCOMMAND_METRICS:
        samples[metric] = [op.seconds for ops in rounds for op in ops
                           if op.metric == metric]
    samples["peak_rss_mb"] = [max(op.rss_mb for op in ops) for ops in rounds]
    return samples


def end_to_end_metrics(samples):
    values = {m: statistics.median(samples[m]) for m in END_TO_END}
    units = {m: ("MB" if m == "peak_rss_mb" else "s") for m in END_TO_END}
    return {m: {"value": values[m], "unit": units[m]} for m in END_TO_END}


def per_layer_metrics(session, traced_rounds, pairs):
    totals = []
    for ops in traced_rounds:
        t = tracer.SpanTotals()
        for op in ops:
            if op.span_file and os.path.exists(op.span_file):
                t.add_file(op.span_file)
        totals.append(t)
    ref = totals[0]
    for t in totals[1:]:
        if t.calls != ref.calls:
            diff = {n: (ref.calls[n], t.calls[n]) for n in ref.calls
                    if ref.calls[n] != t.calls[n]}
            session.check_failures.append(f"call counts differ between rounds: {diff}")
            print(session.check_failures[-1], file=sys.stderr)
    metrics = {}
    for name in tracer.SPAN_NAMES:
        metrics[f"{name}.calls"] = {"value": ref.calls[name], "unit": "count"}
        metrics[f"{name}.s"] = {
            "value": statistics.median(t.seconds[name] for t in totals), "unit": "s"}
        metrics[f"{name}.self_s"] = {
            "value": statistics.median(t.self_seconds[name] for t in totals),
            "unit": "s"}
    metrics["attacks.forwards_per_pgd_step"] = {
        "value": ref.forwards_in_pgd / ref.pgd_steps if ref.pgd_steps else 0.0,
        "unit": "count"}
    metrics["trace_overhead_pct"] = {
        "value": statistics.median(100.0 * (round_seconds(tr) / round_seconds(un) - 1.0)
                                   for un, tr in pairs),
        "unit": "%"}
    return metrics


def run_workload(root, workload, seed, seconds, trace):
    """One run of one workload: prints its metric lines, returns the result."""
    start = time.perf_counter()
    tmp = os.path.join(root, ".bench_tmp", f"{workload}-{os.getpid()}")
    os.makedirs(tmp)
    session = Session(root=root, tmp=tmp, start=start)
    samples = {}
    try:
        data, probe = workloads.make_inputs(workload, tmp, seed)
        if not trace:
            session.setup_config = (data or probe).config
        # compile the package's bytecode before anything is timed
        session.spawn([sys.executable, "-c", "import trhreg.cli"],
                      os.path.join(tmp, "warmup"))
        rounds, traced_rounds, pairs = [], [], []
        while True:
            t0 = time.perf_counter()
            ops = run_round(session, workload, data, probe,
                            len(rounds) + len(traced_rounds), False)
            rounds.append(ops)
            if trace:
                traced = run_round(session, workload, data, probe,
                                   len(rounds) + len(traced_rounds), True)
                traced_rounds.append(traced)
                pairs.append((ops, traced))
            now = time.perf_counter()
            # stop once another round as long as this one would end more
            # than half a round after --seconds
            if (now - start + (now - t0) / 2 >= seconds
                    or session.time_left() < now - t0):
                break

        if trace:
            metrics = per_layer_metrics(session, traced_rounds, pairs)
        else:
            samples = end_to_end_samples(session.setup_samples, rounds)
            metrics = end_to_end_metrics(samples)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass  # another run still uses it, or it holds leftovers

    print(f"# workload={workload} seed={seed} rounds={len(rounds)} "
          f"traced_rounds={len(traced_rounds)} nproc={os.cpu_count()} "
          f"python={platform.python_version()} numpy={np.__version__} "
          f"blas_threads={BLAS_THREADS}")
    for name, values in samples.items():
        print(f"# samples {name} " + " ".join(f"{v:.4f}" for v in values))
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    return {"correct": not session.check_failures,
            "attempted": len(session.ops),
            "failed": sum(op.failed for op in session.ops),
            "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.ROUNDS) + ["all"],
                   help="one workload, or all of them one after another")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "trhreg", "cli.py")):
        print(f"no trhreg sources under {root}/src; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))

    if args.workload != "all":
        result = run_workload(root, args.workload, args.seed, args.seconds,
                              args.trace)
        print(json.dumps(result))
        return 0
    # every workload in turn; the last line then keys metrics by workload
    results = {}
    for workload in workloads.ROUNDS:
        results[workload] = run_workload(root, workload, args.seed,
                                         args.seconds, args.trace)
        print(json.dumps(results[workload]))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{name}": m for w, r in results.items()
                    for name, m in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
