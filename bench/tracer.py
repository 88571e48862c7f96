"""Span recording around the public functions of each ``trhreg`` module.

Run as a script, this is a drop-in for ``python -m trhreg``::

    python3 bench/tracer.py SPANS.json train --config cfg.txt --out DIR

It imports the package, replaces every binding of each traced function
(including the copies other ``trhreg`` modules took with ``from ... import``)
by a wrapper that records one span per call, runs ``trhreg.cli.main`` on the
remaining arguments, and writes the spans to ``SPANS.json`` when the CLI
returns.  Spans stay in memory until then.  The program itself is not
changed: the wrappers live only in this process.

``aggregate`` turns span files into per-span call counts, inclusive seconds
and self seconds (inclusive minus the time covered by direct child spans).
"""

from __future__ import annotations

import functools
import json
import sys
import time

# module -> traced names; "Class.method" names a method, and the two
# closure factories in hessian_oracle are traced through the closures they
# return (see _CLOSURE_FACTORIES)
TRACED = {
    "attacks": ["pgd", "eval_robust_accuracy", "clean_accuracy"],
    "network": ["forward", "input_gradient", "backprop", "gradient_vector",
                "flatten_weights", "unflatten_weights", "save_checkpoint",
                "load_checkpoint"],
    "tape": ["backward"],
    "trh": ["objective_nodes", "analytic_trh_rows"],
    "layer_traces": ["layer_trace_rows", "full_ce_trace_rows_nodes"],
    "hessian_oracle": ["quad_form", "hvp", "exact_trace"],
    "numerics": ["finite_diff_gradient"],
    "trainer": ["train", "measure_trace_row", "spectrum_records",
                "MetricsLog.write_csv"],
    "data": ["two_moons", "load_csv", "normalize_center"],
    "config": ["ExperimentConfig.from_file"],
    "verify": ["check_gradients", "check_trh_formulas", "check_layer_traces",
               "check_pacbayes", "check_hutchinson"],
}

# span name -> factory in the same module whose returned closure is the span
_CLOSURE_FACTORIES = {"quad_form": "quad_form_from_values",
                      "hvp": "hvp_from_grad"}

SPAN_NAMES = [f"{mod}.{name}" for mod, names in TRACED.items() for name in names]
PGD_SPAN = "attacks.pgd"
FORWARD_SPAN = "network.forward"


class Tracer:
    """Holds the spans of one process: ``(name, start, end, parent_index)``."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.pgd_steps = 0

    def wrap(self, name, fn, on_call=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return traced

    def _count_pgd_steps(self, args, kwargs):
        cfg = kwargs["cfg"] if "cfg" in kwargs else args[3]
        self.pgd_steps += cfg.steps

    def install(self):
        """Wrap every traced name; raises if the package no longer has one."""
        import importlib

        import trhreg
        import trhreg.cli  # noqa: F401  (imports every module the CLI uses)

        modules = [m for key, m in sys.modules.items()
                   if key == "trhreg" or key.startswith("trhreg.")]
        for mod_name, names in TRACED.items():
            mod = importlib.import_module(f"trhreg.{mod_name}")
            for name in names:
                span = f"{mod_name}.{name}"
                if "." in name:
                    self._wrap_method(mod, name, span)
                elif name in _CLOSURE_FACTORIES:
                    factory = getattr(mod, _CLOSURE_FACTORIES[name])
                    self._rebind(modules, factory,
                                 self._wrap_factory(span, factory))
                else:
                    fn = getattr(mod, name)
                    on_call = self._count_pgd_steps if span == PGD_SPAN else None
                    self._rebind(modules, fn, self.wrap(span, fn, on_call))

    def _wrap_factory(self, span, factory):
        @functools.wraps(factory)
        def make(*args, **kwargs):
            return self.wrap(span, factory(*args, **kwargs))

        return make

    def _wrap_method(self, mod, dotted, span):
        cls_name, meth = dotted.split(".")
        cls = getattr(mod, cls_name)
        raw = cls.__dict__[meth]
        if isinstance(raw, classmethod):
            setattr(cls, meth, classmethod(self.wrap(span, raw.__func__)))
        else:
            setattr(cls, meth, self.wrap(span, raw))

    @staticmethod
    def _rebind(modules, original, replacement):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)

    def write(self, path):
        names = sorted({s[0] for s in self.spans if s is not None})
        ids = {n: i for i, n in enumerate(names)}
        rows = [[ids[n], start, end, parent]
                for n, start, end, parent in (s for s in self.spans if s is not None)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names, "spans": rows,
                       "pgd_steps": self.pgd_steps}, fh)


class SpanTotals:
    """Per-span sums over any number of span files."""

    def __init__(self):
        self.calls = {n: 0 for n in SPAN_NAMES}
        self.seconds = {n: 0.0 for n in SPAN_NAMES}
        self.self_seconds = {n: 0.0 for n in SPAN_NAMES}
        self.forwards_in_pgd = 0
        self.pgd_steps = 0

    def add_file(self, path):
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        names = data["names"]
        spans = data["spans"]
        child_time = [0.0] * len(spans)
        in_pgd = [False] * len(spans)
        # parents are recorded before their children, so one pass in index
        # order sees every parent first
        for i, (nid, start, end, parent) in enumerate(spans):
            name = names[nid]
            if parent >= 0:
                child_time[parent] += end - start
                in_pgd[i] = in_pgd[parent]
            if name == FORWARD_SPAN and in_pgd[i]:
                self.forwards_in_pgd += 1
            if name == PGD_SPAN:
                in_pgd[i] = True
        for i, (nid, start, end, _) in enumerate(spans):
            name = names[nid]
            self.calls[name] += 1
            self.seconds[name] += end - start
            self.self_seconds[name] += end - start - child_time[i]
        self.pgd_steps += data["pgd_steps"]


def main(argv) -> int:
    if len(argv) < 2:
        print("usage: tracer.py SPANS.json <trhreg arguments>", file=sys.stderr)
        return 2
    tracer = Tracer()
    tracer.install()
    import trhreg.cli

    try:
        return trhreg.cli.main(argv[1:])
    finally:
        tracer.write(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
