"""Start-up and exit of a CLI process.

A subcommand runs only the modules it needs: reading a config and
evaluating a checkpoint run none of the training, curvature, bound or
verification modules, training runs no bound or verification code, and
verification runs no trainer code.  "Runs" is
observed with an audit hook on ``exec``, the call that executes a module's
body, so the check holds whatever puts a module in ``sys.modules``.

``python -m trhreg`` freezes the garbage collector after ``main`` returns,
so interpreter exit skips the import-time reference cycles; its output and
exit codes are those of ``main``.
"""

import gc
import json
import os
import subprocess
import sys

from trhreg import cli
from trhreg.network import init_mlp, save_checkpoint
from trhreg.numerics import Rng

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

HEAVY = ("trainer", "trh", "layer_traces", "hessian_oracle", "pacbayes", "verify")

CONFIG = """\
dataset.kind = two_moons
dataset.n = 40
net.hidden = 6
attack.steps = 2
train.epochs = 2
"""

# Runs `body` in a fresh interpreter and prints, as JSON, the package modules
# whose body ran and those in sys.modules.
PROLOGUE = """\
import json, os, sys
ran = set()

def hook(event, args):
    if event == "exec" and getattr(args[0], "co_name", None) == "<module>":
        path = args[0].co_filename
        if os.sep + "trhreg" + os.sep in path:
            ran.add(os.path.splitext(os.path.basename(path))[0])

sys.addaudithook(hook)
"""
EPILOGUE = """
print(json.dumps({"ran": sorted(ran), "loaded": sorted(
    k.split(".", 1)[1] for k in sys.modules if k.startswith("trhreg."))}))
"""


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"),
                                         env.get("PYTHONPATH", "")])
    return env


def _modules_after(body, cwd=None):
    proc = subprocess.run([sys.executable, "-c", PROLOGUE + body + EPILOGUE],
                          env=_env(), cwd=cwd, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _python_m(args, cwd):
    return subprocess.run([sys.executable, "-m", "trhreg", *args], env=_env(),
                          cwd=cwd, capture_output=True, text=True, timeout=120)


class TestImportSets:
    def test_cli_import_runs_no_heavy_module(self):
        seen = _modules_after("import trhreg.cli\n")
        assert "cli" in seen["ran"] and "config" in seen["ran"]
        assert not set(HEAVY) & set(seen["ran"])

    def test_config_import_loads_no_heavy_module(self):
        seen = _modules_after("from trhreg.config import ExperimentConfig\n")
        assert not set(HEAVY) & (set(seen["ran"]) | set(seen["loaded"]))

    def test_eval_subcommand_runs_no_heavy_module(self, tmp_path):
        (tmp_path / "cfg.txt").write_text(CONFIG)
        save_checkpoint(init_mlp([2, 6, 2], Rng(0)), tmp_path / "ck.txt")
        seen = _modules_after(
            "from trhreg.cli import main\n"
            "assert main(['eval', '--config', 'cfg.txt', '--checkpoint',"
            " 'ck.txt', '--out', 'run']) == 0\n", cwd=tmp_path)
        assert "attacks" in seen["ran"]
        assert not set(HEAVY) & set(seen["ran"])
        assert (tmp_path / "run" / "eval.csv").exists()

    def test_train_runs_no_bound_or_verify_module(self, tmp_path):
        (tmp_path / "cfg.txt").write_text(CONFIG)
        seen = _modules_after(
            "from trhreg.cli import main\n"
            "assert main(['train', '--config', 'cfg.txt', '--out', 'run']) == 0\n",
            cwd=tmp_path)
        assert "trainer" in seen["ran"]
        assert not {"pacbayes", "verify"} & set(seen["ran"])

    def test_verify_runs_no_trainer(self):
        alone = _modules_after("import trhreg.verify\n")
        assert "trainer" not in alone["loaded"]
        via_cli = _modules_after("import trhreg.cli\n"
                                 "from trhreg.verify import run_verification\n")
        assert "verify" in via_cli["ran"] and "trainer" not in via_cli["ran"]


class TestExitPath:
    def test_verify_quick_reports_and_exits_zero(self, tmp_path):
        proc = _python_m(["verify", "--level", "quick"], tmp_path)
        assert proc.returncode == 0
        assert proc.stderr == ""
        lines = proc.stdout.splitlines()
        assert len(lines) == 6
        assert all(line.startswith("PASS group=") for line in lines[:5])
        assert lines[5] == "PASS total checks=75"

    def test_missing_config_exits_one_with_one_line(self, tmp_path):
        proc = _python_m(["train", "--config", "missing.txt"], tmp_path)
        assert proc.returncode == cli.EXIT_CONFIG
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith("config error:")

    def test_entry_freezes_and_main_does_not(self, tmp_path):
        frozen = gc.get_freeze_count()
        assert cli.main(["train", "--config", str(tmp_path / "missing.txt")]) == 1
        assert gc.get_freeze_count() == frozen
        seen = _modules_after(
            "import gc\n"
            "from trhreg.cli import entry\n"
            "sys.argv = ['trhreg', 'train', '--config', 'missing.txt']\n"
            "assert entry() == 1 and gc.get_freeze_count() > 0\n", cwd=tmp_path)
        assert "cli" in seen["ran"]
