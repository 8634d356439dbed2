"""The command line as a user starts it: a fresh interpreter running
``python -m gentlehh`` with the sources on PYTHONPATH."""

import ast
import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

from gentlehh import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
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


def test_every_source_file_parses_as_python_3_10():
    # pyproject.toml sets requires-python >= 3.10; the grammar of a newer
    # release (except*, PEP 695 generics, ...) is a SyntaxError here
    files = sorted(path for folder in ("src", "tests", "demos")
                   for path in (ROOT / folder).rglob("*.py"))
    assert len(files) > 30
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_test_modules_import_only_helper_modules():
    # shared instances and references come from helper modules, which
    # pytest does not collect, and never from another test module
    tests = ROOT / "tests"
    local, helpers = {path.stem for path in tests.glob("*.py")}, set()
    for path in sorted(tests.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            imported = {name.split(".")[0] for name in names} & local
            assert not any(name.startswith("test_") for name in imported), path.name
            helpers |= imported
    assert helpers and not any(name.startswith("test_") or name.endswith("_test")
                               for name in helpers), helpers


def test_a_closed_output_pipe_exits_1_in_silence(tmp_path):
    # buffered, the write fails partway through crosscheck or at the flush
    # on exit; unbuffered, at the first print.  A missing input still exits 2.
    runs = ((["crosscheck", "fixtures", "--polygons", "4..8"], 1), (["analyze", FIXTURE], 1),
            (["generate", "--polygon", "5", "--out", str(tmp_path)], 1),
            (["analyze", str(tmp_path / "absent.json")], 2))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    for buffering in ({}, {"PYTHONUNBUFFERED": "1"}):
        for argv, code in runs:
            read, write = os.pipe()
            os.close(read)
            with os.fdopen(write, "wb") as stdout:
                proc = subprocess.run([sys.executable, "-m", "gentlehh", *argv], stdout=stdout,
                                      stderr=subprocess.PIPE, text=True, timeout=120,
                                      env=dict(env, PYTHONPATH=str(SRC), **buffering))
            errors = proc.stderr.splitlines()
            assert (proc.returncode, len(errors)) == (code, code - 1), (argv, buffering, errors)
            assert all(line.startswith("error: ") for line in errors), errors
