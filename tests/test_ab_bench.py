"""``tools/ab_bench.py``: its statistics, and a smoke run of a checkout
against itself."""

import importlib.util
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "ab_bench.py")


@pytest.fixture(scope="module")
def ab_bench():
    spec = importlib.util.spec_from_file_location("ab_bench", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sign_test_p_values(ab_bench):
    assert ab_bench.sign_test(10, 10) == pytest.approx(2 / 1024)
    assert ab_bench.sign_test(0, 10) == pytest.approx(2 / 1024)
    assert ab_bench.sign_test(9, 10) == pytest.approx(22 / 1024)
    assert ab_bench.sign_test(5, 10) == 1.0
    assert ab_bench.sign_test(0, 0) == 1.0


def test_summary_counts_lower_as_a_win(ab_bench):
    values = {"parent": [{"train_s": 1.0}, {"train_s": 2.0}, {"train_s": 3.0}],
              "change": [{"train_s": 0.5}, {"train_s": 2.0}, {"train_s": 3.5}]}
    header, train = ab_bench.summarize(values)
    assert header.split()[0] == "metric"
    fields = train.split()
    # the tied pair counts neither way
    assert fields[0] == "train_s" and fields[-2] == "1/2"
    assert fields[1] == "2.0000" and fields[3] == "2.0000"


def test_repo_against_itself_exits_zero():
    proc = subprocess.run(
        [sys.executable, TOOL, ROOT, ROOT, "--workload", "blobs-k10",
         "--pairs", "1", "--seconds", "0.1"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("# ab_bench workload=blobs-k10 pairs=1")
    assert lines[1].startswith("# pair 1 first=parent")
    metrics = {line.split()[0] for line in lines[3:]}
    assert {"setup_s", "train_s", "peak_rss_mb"} <= metrics


def test_stmt_mode_against_itself_exits_zero():
    proc = subprocess.run(
        [sys.executable, TOOL, ROOT, ROOT, "--pairs", "1",
         "--setup", "from trhreg.numerics import Rng",
         "--stmt", "Rng(0).child('a').normal(size=3)"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("# ab_bench stmt=")
    assert lines[1].startswith("# pair 1 first=parent stmt_s=")
    assert lines[3].split()[0] == "stmt_s"
    assert len(lines) == 4


def test_stmt_mode_failing_statement_exits_one():
    proc = subprocess.run(
        [sys.executable, TOOL, ROOT, ROOT, "--pairs", "1",
         "--stmt", "raise ValueError('no')"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert "ValueError: no" in proc.stderr
