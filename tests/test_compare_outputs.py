"""Smoke test of ``tools/compare_outputs.py``: a checkout compared with
itself reports every command IDENTICAL and exits 0."""

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
