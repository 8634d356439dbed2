"""The command line as a user starts it: a fresh interpreter running
``python -m gentlehh`` with the sources on PYTHONPATH."""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

from gentlehh import cli

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
FIXTURE = str(SRC / "gentlehh" / "data" / "torus_t1.json")


def run_fresh(*args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=120)


def test_module_entry_point_prints_the_in_process_document():
    proc = run_fresh("-m", "gentlehh", "analyze", FIXTURE, "--format", "json")
    assert proc.returncode == 0, proc.stderr
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["analyze", FIXTURE, "--format", "json"]) == 0
    assert proc.stdout == out.getvalue()
    assert json.loads(proc.stdout)["methods"]["rr"]["tail"] == \
        "degrees 0..5 enumerated, then period 3"


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # -S: no site hooks, so only the import itself loads modules
    proc = run_fresh("-S", "-c", "import sys, gentlehh.cli; "
                     "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
