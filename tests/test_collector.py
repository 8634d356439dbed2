"""`cli.main` runs each command with the cyclic garbage collector paused.

That is safe only while every object a command builds is freed by
reference counting, so the invariant is asserted here: each command
handler, run under ``gc.DEBUG_SAVEALL``, leaves no cyclic garbage.
"""

import contextlib
import gc
import io
import pathlib

import pytest
from catalogue import random_polygon

from gentlehh import cli, fileformat
from gentlehh.surface import TriangulationInput

DATA = pathlib.Path(cli.__file__).resolve().parent / "data"
FIXTURE_FILES = sorted(str(path) for path in DATA.glob("*.json"))
TORUS = str(DATA / "torus_t1.json")


@contextlib.contextmanager
def collector(enabled):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


def test_the_handler_runs_with_the_collector_paused(monkeypatch, capsys):
    import gentlehh.report as report_module
    seen, original = [], report_module.analyze

    def recording(*args, **kwargs):
        seen.append(gc.isenabled())
        return original(*args, **kwargs)

    monkeypatch.setattr(report_module, "analyze", recording)
    with collector(True):
        assert cli.main(["analyze", TORUS, "--format", "json"]) == 0
        assert gc.isenabled()
    assert seen == [False]


def disagree(monkeypatch):
    import gentlehh.report as report_module
    from gentlehh.pairs import HHTable
    monkeypatch.setattr(report_module, "hh_dims_rr",
                        lambda presentation, characteristic, nmax:
                        HHTable(dims=tuple([99] * (nmax + 1))))


def crash(monkeypatch):
    import gentlehh.report as report_module

    def broken(*args, **kwargs):
        raise RuntimeError("a bug in a handler")

    monkeypatch.setattr(report_module, "analyze", broken)


@pytest.mark.parametrize("enabled", (True, False), ids=("on", "off"))
@pytest.mark.parametrize("argv, patch, outcome", [
    (["analyze", TORUS], None, 0),
    (["analyze", "absent.json"], None, 2),
    (["analyze", TORUS], disagree, 3),
    (["analyze", TORUS], crash, RuntimeError),
], ids=("exit-0", "exit-2", "exit-3", "raises"))
def test_the_collector_is_left_as_the_caller_had_it(argv, patch, outcome, enabled,
                                                    monkeypatch, tmp_path, capsys):
    if patch:
        patch(monkeypatch)
    argv = [str(tmp_path / arg) if arg == "absent.json" else arg for arg in argv]
    with collector(enabled):
        if outcome is RuntimeError:
            with pytest.raises(RuntimeError, match="a bug"):
                cli.main(argv)
        else:
            assert cli.main(argv) == outcome
        assert gc.isenabled() is enabled


def cyclic_garbage(argv) -> int:
    """Objects the handler of ``argv`` leaves only the cyclic collector
    could free.  The argparse parser holds cycles of its own, so argv is
    parsed, and that garbage collected, before the measured region."""
    args = cli._parser().parse_args(argv)
    cli._check_arguments(args)
    handler = getattr(cli, "cmd_" + args.command.replace("-", "_"))
    with collector(False):
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert handler(args) == cli.EXIT_OK
            return gc.collect()
        finally:
            gc.set_debug(0)
            gc.garbage.clear()


@pytest.fixture(scope="module")
def sixty_gon(tmp_path_factory):
    surface = random_polygon(60, seed=1)
    path = tmp_path_factory.mktemp("polygon") / "60-gon.json"
    fileformat.dump_file(TriangulationInput(surface.name, surface.triangles), path)
    return str(path)


@pytest.mark.parametrize("fmt", ("text", "json"))
@pytest.mark.parametrize("char", ("0", "2", "3"))
def test_analyze_leaves_no_cyclic_garbage(char, fmt, sixty_gon):
    for path in FIXTURE_FILES + [sixty_gon]:
        argv = ["analyze", path, "--char", char, "--format", fmt]
        assert cyclic_garbage(argv) == 0, argv


@pytest.mark.parametrize("argv", [
    ["crosscheck", "fixtures", "--polygons", "4..7"],
    ["ag-compare", TORUS, str(DATA / "torus_t2.json")],
    ["generate", "--polygon", "7", "--out", "{tmp}"],
], ids=("crosscheck", "ag-compare", "generate"))
def test_every_other_command_leaves_no_cyclic_garbage(argv, tmp_path):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert cyclic_garbage(argv) == 0
