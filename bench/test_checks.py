"""Each output check passes on real CLI output and fails on a corrupted copy.

    python3 -m pytest bench/test_checks.py -q

The outputs come from the CLI run on the benchmark's tiny probe config, so
the module takes a few seconds.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile

import pytest

import checks
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _cli(*args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-m", "trhreg", *args], env=env,
                          check=True, capture_output=True, text=True).stdout


@pytest.fixture(scope="module")
def scratch():
    """A directory inside the checkout, removed after the module."""
    parent = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(parent, exist_ok=True)
    path = tempfile.mkdtemp(prefix="test-checks-", dir=parent)
    yield path
    shutil.rmtree(path)


@pytest.fixture
def tmp_path(scratch, request):
    path = os.path.join(scratch, request.node.name)
    os.makedirs(path)
    return path


@pytest.fixture(scope="module")
def runs(scratch):
    base = os.path.join(scratch, "runs")
    os.makedirs(base)
    _, probe = workloads.make_inputs("verify-full", base, seed=3)
    out = {name: os.path.join(base, name)
           for name in ("train", "trace", "spectrum", "eval")}
    _cli("train", "--config", probe.config, "--out", out["train"])
    _cli("trace", "--config", probe.config, "--out", out["trace"],
         "--measure", "full", "--every", "2", "--probes", "4")
    _cli("spectrum", "--config", probe.config, "--out", out["spectrum"],
         "--every", "3", "--probes", "4")
    _cli("eval", "--config", probe.config, "--out", out["eval"], "--restarts", "1",
         "--checkpoint", os.path.join(out["train"], "checkpoint.txt"))
    out["verify"] = _cli("verify", "--level", "quick")
    out["probe"] = probe
    return out


def _copy(runs, name, tmp_path):
    dst = os.path.join(tmp_path, name)
    shutil.copytree(runs[name], dst)
    return dst


def _set_cell(path, column, row_index, value):
    """Rewrite one cell of a CLI table (row_index counts data rows)."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    head = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    col = lines[head].split(",").index(column)
    data_rows = list(range(head + 1, len(lines)))
    fields = lines[data_rows[row_index]].split(",")
    fields[col] = repr(float(value))
    lines[data_rows[row_index]] = ",".join(fields)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _training(runs, out, min_acc=None):
    p = runs["probe"]
    return checks.check_training(out, p.X, p.y, p.num_classes,
                                 p.min_acc if min_acc is None else min_acc)


def test_training_passes_on_real_output(runs):
    for name in ("train", "trace", "spectrum"):
        _training(runs, runs[name])


def test_training_catches_wrong_clean_acc(runs, tmp_path):
    out = _copy(runs, "train", tmp_path)
    metrics = os.path.join(out, "metrics.csv")
    last = checks.read_table(metrics)[-1]["clean_acc"]
    _set_cell(metrics, "clean_acc", -1, last - 1.0 / len(runs["probe"].y))
    with pytest.raises(checks.CheckFailed, match="classifies"):
        _training(runs, out)


def test_training_catches_corrupted_checkpoint(runs, tmp_path):
    out = _copy(runs, "train", tmp_path)
    layers = checks.read_checkpoint(os.path.join(out, "checkpoint.txt"))
    with open(os.path.join(out, "checkpoint.txt"), "w", encoding="utf-8") as fh:
        fh.write(f"TRHNET v1 {len(layers)}\n")
        for i, (w, b) in enumerate(layers):
            if i == len(layers) - 1:
                w = -w  # flips every prediction's ranking
            fh.write(f"layer {i} {w.shape[0]} {w.shape[1]} {int(b is not None)}\n")
            for row in w:
                fh.write(" ".join(repr(float(v)) for v in row) + "\n")
            if b is not None:
                fh.write(" ".join(repr(float(v)) for v in b) + "\n")
    with pytest.raises(checks.CheckFailed, match="classifies"):
        _training(runs, out)


def test_training_catches_rising_or_nan_loss(runs, tmp_path):
    out = _copy(runs, "train", tmp_path)
    metrics = os.path.join(out, "metrics.csv")
    first = checks.read_table(metrics)[0]["train_loss"]
    _set_cell(metrics, "train_loss", -1, first * 2)
    with pytest.raises(checks.CheckFailed, match="did not fall"):
        _training(runs, out)
    _set_cell(metrics, "train_loss", -1, float("nan"))
    with pytest.raises(checks.CheckFailed, match="non-finite"):
        _training(runs, out)


def test_training_catches_chance_accuracy(runs):
    with pytest.raises(checks.CheckFailed, match="below"):
        _training(runs, runs["train"], min_acc=1.01)


def test_same_training(runs, tmp_path):
    checks.check_same_training(runs["train"], runs["trace"])
    checks.check_same_training(runs["train"], runs["spectrum"])
    out = _copy(runs, "trace", tmp_path)
    ckpt = os.path.join(out, "checkpoint.txt")
    with open(ckpt, "a", encoding="utf-8") as fh:
        fh.write("\n")
    with pytest.raises(checks.CheckFailed, match="checkpoint.txt differs"):
        checks.check_same_training(runs["train"], out)


def test_eval(runs, tmp_path):
    acc = checks.read_table(os.path.join(runs["train"], "metrics.csv"))[-1]["clean_acc"]
    checks.check_eval(runs["eval"], acc)
    out = _copy(runs, "eval", tmp_path)
    _set_cell(os.path.join(out, "eval.csv"), "clean_acc", 0, acc / 2)
    with pytest.raises(checks.CheckFailed, match="eval clean_acc"):
        checks.check_eval(out, acc)


def test_restarts_monotone():
    checks.check_restarts_monotone(0.5, 0.5)
    with pytest.raises(checks.CheckFailed, match="exceeds"):
        checks.check_restarts_monotone(0.52, 0.5)


def test_trace(runs, tmp_path):
    epochs = runs["probe"].epochs
    checks.check_trace(runs["trace"], epochs, 2, True)
    out = _copy(runs, "trace", tmp_path)
    path = os.path.join(out, "trace.csv")
    with pytest.raises(checks.CheckFailed, match="epochs"):
        checks.check_trace(out, epochs, 1, True)
    _set_cell(path, "trh_layer_1", 0, -1e-3)
    with pytest.raises(checks.CheckFailed, match="trh_layer_1"):
        checks.check_trace(out, epochs, 2, True)
    out = _copy(runs, "trace", os.path.join(tmp_path, "again"))
    path = os.path.join(out, "trace.csv")
    top = checks.read_table(path)[-1]["trh_top_analytic"]
    _set_cell(path, "trh_top_analytic", -1, top * (1 + 1e-6))
    with pytest.raises(checks.CheckFailed, match="trh_top_analytic"):
        checks.check_trace(out, epochs, 2, True)
    checks.check_trace(out, epochs, 2, False)  # only AT ties top to layer


def test_spectrum(runs, tmp_path):
    layers = runs["probe"].num_layers
    checks.check_spectrum(runs["spectrum"], layers)
    out = _copy(runs, "spectrum", tmp_path)
    path = os.path.join(out, "spectrum.csv")
    rows = checks.read_table(path)
    _set_cell(path, "trace", 0, rows[0]["trace"] * (1 + 1e-9) + 1e-9)
    with pytest.raises(checks.CheckFailed, match="layer-0 trace"):
        checks.check_spectrum(out, layers)
    with pytest.raises(checks.CheckFailed, match="has layers"):
        checks.check_spectrum(runs["spectrum"], layers + 1)


def test_verify(runs):
    text = runs["verify"]
    checks.check_verify(text)
    group = next(ln for ln in text.splitlines() if ln.startswith("PASS group="))
    with pytest.raises(checks.CheckFailed, match="group lines"):
        checks.check_verify(text.replace(group, group.replace("PASS", "FAIL", 1)))
    with pytest.raises(checks.CheckFailed, match="summary line"):
        checks.check_verify(text.replace("PASS total", "FAIL total"))
    with pytest.raises(checks.CheckFailed, match="ran no checks"):
        checks.check_verify("PASS total checks=0\n")
    with pytest.raises(checks.CheckFailed, match="groups count"):
        checks.check_verify(text.replace("total checks=", "total checks=1"))
