"""Output checks for the benchmark's CLI invocations.

Every check uses an independent computation or a property the method must
have, never a stored copy of an earlier output.  A failed check raises
:class:`CheckFailed` with a message naming the file and the value.

The checks read the files the CLI writes: ``metrics.csv``, ``trace.csv``,
``spectrum.csv``, ``eval.csv`` (``# key = value`` preamble, a header line,
then rows) and the ``TRHNET v1`` checkpoint.
"""

from __future__ import annotations

import math
import os
import re

import numpy as np

REL_TOL_TOP_LAYER = 1e-9
REL_TOL_SPECTRUM_SUM = 1e-12
# rounding slack below zero for a positive semidefinite layer trace
PSD_SLACK = 1e-12
# a point whose top two logits differ by a nonzero amount below this is on
# the decision boundary to rounding; either prediction is accepted for it.
# Exact ties (all-zero logits of points that no hidden unit fires for) go
# to the first class, as numpy's argmax sends them.
MARGIN_TOL = 1e-9


class CheckFailed(AssertionError):
    pass


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def read_table(path):
    """Rows of a CSV written by the CLI, as {column: float}."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    _require(lines, f"{path}: no header")
    columns = lines[0].split(",")
    rows = []
    for ln in lines[1:]:
        fields = ln.split(",")
        _require(len(fields) == len(columns), f"{path}: ragged row {ln!r}")
        rows.append({c: float(v) for c, v in zip(columns, fields)})
    _require(rows, f"{path}: no rows")
    return rows


def read_checkpoint(path):
    """Parse ``TRHNET v1`` into a list of (weights, bias-or-None)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.split() for ln in fh if ln.strip()]
    _require(lines and lines[0][:2] == ["TRHNET", "v1"],
             f"{path}: not a TRHNET v1 checkpoint")
    layers = []
    pos = 1
    for i in range(int(lines[0][2])):
        tag, idx, d_in, d_out, has_bias = lines[pos]
        _require(tag == "layer" and int(idx) == i, f"{path}: bad layer header")
        d_in, d_out = int(d_in), int(d_out)
        w = np.array([[float(v) for v in row] for row in lines[pos + 1:pos + 1 + d_in]])
        _require(w.shape == (d_in, d_out), f"{path}: layer {i} has shape {w.shape}")
        pos += 1 + d_in
        b = None
        if has_bias == "1":
            b = np.array([float(v) for v in lines[pos]])
            pos += 1
        layers.append((w, b))
    return layers


def logits(layers, X):
    cur = X
    for i, (w, b) in enumerate(layers):
        cur = cur @ w
        if b is not None:
            cur = cur + b
        if i < len(layers) - 1:
            cur = np.maximum(cur, 0.0)
    return cur


def accuracy_bounds(layers, X, y):
    """(lowest, highest) accuracy over the predictions rounding allows."""
    z = logits(layers, X)
    top2 = np.sort(z, axis=1)[:, -2:]
    gap = top2[:, 1] - top2[:, 0]
    tied = (gap > 0) & (gap < MARGIN_TOL)
    right = np.argmax(z, axis=1) == y
    return float(np.mean(right & ~tied)), float(np.mean(right | tied))


def check_training(out_dir, X, y, num_classes, min_acc):
    """metrics.csv + checkpoint of a train/trace/spectrum run."""
    rows = read_table(os.path.join(out_dir, "metrics.csv"))
    first, last = rows[0]["train_loss"], rows[-1]["train_loss"]
    _require(math.isfinite(first) and math.isfinite(last),
             f"{out_dir}: non-finite train_loss {first} / {last}")
    _require(last < first, f"{out_dir}: train_loss did not fall "
             f"(first epoch {first}, last {last})")
    acc = rows[-1]["clean_acc"]
    lo, hi = accuracy_bounds(read_checkpoint(os.path.join(out_dir, "checkpoint.txt")),
                             X, y)
    _require(lo <= acc <= hi, f"{out_dir}: metrics.csv clean_acc {acc} but the "
             f"checkpoint classifies {lo}..{hi} of the data correctly")
    _require(acc >= min_acc, f"{out_dir}: clean_acc {acc} below {min_acc} "
             f"({num_classes} classes)")
    return acc


def check_same_training(dir_a, dir_b):
    """Measurement must not perturb training: identical bytes."""
    for name in ("metrics.csv", "checkpoint.txt"):
        with open(os.path.join(dir_a, name), "rb") as fa, \
                open(os.path.join(dir_b, name), "rb") as fb:
            _require(fa.read() == fb.read(),
                     f"{name} differs between {dir_a} and {dir_b}")


def check_eval(out_dir, trained_clean_acc):
    row = read_table(os.path.join(out_dir, "eval.csv"))[0]
    _require(row["clean_acc"] == trained_clean_acc,
             f"{out_dir}: eval clean_acc {row['clean_acc']} != trained "
             f"clean_acc {trained_clean_acc}")
    return row["robust_acc"]


def check_restarts_monotone(robust_many, robust_one):
    """Restart streams are shared, so more restarts never help a point."""
    _require(robust_many <= robust_one,
             f"robust_acc {robust_many} with many restarts exceeds "
             f"{robust_one} with one")


def check_trace(out_dir, epochs, every, top_is_last_layer):
    rows = read_table(os.path.join(out_dir, "trace.csv"))
    expected = [e for e in range(epochs) if e % every == 0 or e == epochs - 1]
    _require([int(r["epoch"]) for r in rows] == expected,
             f"{out_dir}: trace.csv epochs {[r['epoch'] for r in rows]} != {expected}")
    for r in rows:
        layer_cols = sorted((c for c in r if re.fullmatch(r"trh_layer_\d+", c)),
                            key=lambda c: int(c.rsplit("_", 1)[1]))
        _require(layer_cols, f"{out_dir}: no trh_layer_* columns")
        for c in layer_cols:
            # one layer's CE Hessian is J^T Phi J, positive semidefinite
            _require(math.isfinite(r[c]) and r[c] >= -PSD_SLACK,
                     f"{out_dir}: epoch {r['epoch']} {c} = {r[c]}")
        if top_is_last_layer:
            top, last = r["trh_top_analytic"], r[layer_cols[-1]]
            _require(abs(top - last) <= REL_TOL_TOP_LAYER * max(abs(top), abs(last)),
                     f"{out_dir}: epoch {r['epoch']} trh_top_analytic {top} != "
                     f"{layer_cols[-1]} {last}")


def check_spectrum(out_dir, num_layers):
    rows = read_table(os.path.join(out_dir, "spectrum.csv"))
    by_epoch = {}
    for r in rows:
        by_epoch.setdefault(int(r["epoch"]), {})[int(r["layer"])] = r["trace"]
    for epoch, traces in by_epoch.items():
        _require(sorted(traces) == list(range(num_layers + 1)),
                 f"{out_dir}: epoch {epoch} has layers {sorted(traces)}")
        total = traces[0]
        parts = sum(traces[i] for i in range(1, num_layers + 1))
        # traces are block-additive over the layer blocks
        _require(math.isfinite(total) and
                 abs(total - parts) <= REL_TOL_SPECTRUM_SUM * max(1.0, abs(parts)),
                 f"{out_dir}: epoch {epoch} layer-0 trace {total} != "
                 f"sum of layer traces {parts}")


def check_verify(stdout):
    lines = stdout.strip().splitlines()
    _require(lines, "verify printed nothing")
    m = re.fullmatch(r"PASS total checks=(\d+)", lines[-1].strip())
    _require(m is not None, f"verify summary line is {lines[-1]!r}")
    _require(int(m.group(1)) > 0, "verify ran no checks")
    groups = [ln for ln in lines[:-1] if ln.startswith(("PASS group=", "FAIL group="))]
    _require(groups and all(g.startswith("PASS") for g in groups),
             f"verify group lines: {groups}")
    counted = sum(int(re.search(r"checks=(\d+)", g).group(1)) for g in groups)
    _require(counted == int(m.group(1)),
             f"verify groups count {counted} checks, summary says {m.group(1)}")
