"""The benchmark's span tracer still finds and wraps the measurement path.

`bench/tracer.py` replaces traced functions by name, so a rename or a
rewiring in the package can silently drop a span.  This runs the tracer on
a tiny MART `trace --measure full` and `spectrum` and counts the spans.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CONFIG = """\
dataset.kind = two_moons
dataset.n = 40
dataset.seed = 2
net.hidden = 6,5
loss.kind = mart
loss.penalty = 5.0
attack.delta = 0.02
attack.steps = 1
trh.lambda = 0.1
train.epochs = 3
train.base_lr = 0.05
train.seed = 2
"""


def _span_counts(tmp_path, tag, args):
    spans = tmp_path / f"{tag}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")])
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "tracer.py"), str(spans),
         *args, "--out", str(tmp_path / tag)],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(spans.read_text())
    counts = {}
    for name_id, *_ in data["spans"]:
        name = data["names"][name_id]
        counts[name] = counts.get(name, 0) + 1
    return counts


def test_measurement_spans_recorded(tmp_path):
    cfg = tmp_path / "mart.txt"
    cfg.write_text(CONFIG)
    trace = _span_counts(tmp_path, "trace", [
        "trace", "--config", str(cfg), "--measure", "full", "--every", "2",
        "--probes", "4"])
    spectrum = _span_counts(tmp_path, "spectrum", [
        "spectrum", "--config", str(cfg), "--every", "2", "--probes", "2"])
    # measurements at epochs 0 and 2; 4 probes per trace estimate; per
    # spectrum, 2 probes for each of 3 layers and for the whole network
    assert trace.get("trainer.measure_trace_row") == 2
    assert trace.get("hessian_oracle.quad_form") == 8
    assert spectrum.get("trainer.measure_trace_row") == 2
    assert spectrum.get("trainer.spectrum_records") == 2
    assert spectrum.get("hessian_oracle.hvp") == 16
    assert trace.get("trainer.train") == spectrum.get("trainer.train") == 1
