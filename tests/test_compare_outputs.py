"""``tools/compare_outputs.py``: a checkout compared with itself reports
every command IDENTICAL and exits 0, and a CSV that differs is reported
by the columns that moved."""

import importlib.util
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "compare_outputs.py")


def test_repo_against_itself_is_identical():
    proc = subprocess.run(
        [sys.executable, TOOL, ROOT, ROOT, "--only", "verify-quick"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines == [f"IDENTICAL {name}" for name in
                     ("verify-quick:s0", "verify-quick:s778", "verify-quick:s1564")]


def test_names_the_column_that_moved():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    head = b"# loss.kind = at\nepoch,train_loss,pgd_acc\n"
    a = head + b"0,0.5,0.484\n1,0.4,0.692\n2,0.3,0.758\n"
    b = head + b"0,0.5,0.482\n1,0.4,0.688\n2,0.3,0.758\n"
    assert tool.csv_changes(a, a) == []
    assert tool.csv_changes(a, b) == [
        "pgd_acc differs in 2 of 3 rows, largest |difference| 0.004"]
    assert tool.csv_changes(a, head + b"0,0.5,0.484\n") == [
        "columns or row count differ (3 x 3 against 3 x 1)"]
