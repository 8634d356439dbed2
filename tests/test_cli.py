import collections
import json
import random
import re
import time

import pytest
from catalogue import mutate, polygons

from gentlehh import builtin_fixtures, cli, fileformat, fixture_by_name
from gentlehh.pairs import HHTable
from gentlehh.report import METHODS, SurfaceSummary, analyze


@pytest.fixture
def fixture_file(tmp_path):
    def write(name):
        path = tmp_path / (name.replace("(", "_").replace(")", "_").replace(",", "_") + ".json")
        fileformat.dump_file(fixture_by_name(name).data, path)
        return str(path)
    return write


def test_analyze_fig8(fixture_file, capsys):
    code = cli.main(["analyze", fixture_file("fig8")])
    out = capsys.readouterr().out
    assert code == 0
    assert "[2, 7, 0, 0, 0, 0, 3, 3, 0, 0, 0, 0, 3, 3]" in out
    assert "cross-check: PASS" in out
    assert "cup product nontrivial: yes" in out


def test_analyze_square_disc(fixture_file, capsys):
    code = cli.main(["analyze", fixture_file("square-disc")])
    out = capsys.readouterr().out
    assert code == 0
    assert "[1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]" in out


def test_analyze_torus_char2(fixture_file, capsys):
    code = cli.main(["analyze", fixture_file("torus-T1"), "--char", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[1, 7, 0, 4, 4, 0, 4, 4, 0, 4, 4, 0, 4, 4]" in out
    assert "cross-check: PASS" in out


def test_analyze_single_method(fixture_file, capsys):
    code = cli.main(["analyze", fixture_file("fig8"), "--method", "oracle",
                     "--nmax", "6"])
    out = capsys.readouterr().out
    assert code == 0
    assert "oracle:" in out
    assert "geometric:" not in out


@pytest.mark.parametrize("methods", [(), ("bogus",), ("rr", "bogus"), "rr"])
def test_analyze_rejects_a_selection_outside_the_methods(methods):
    # the command line restricts --method; a library caller gets a
    # ValueError rather than a report without tables
    with pytest.raises(ValueError, match="nonempty selection of %s" % ", ".join(METHODS)):
        analyze(fixture_by_name("fig8").surface, 0, 5, methods=methods)


def test_analyze_json_is_a_superset_of_text(fixture_file, capsys):
    path = fixture_file("fig8")
    cli.main(["analyze", path])
    text = capsys.readouterr().out
    cli.main(["analyze", path, "--format", "json"])
    doc = json.loads(capsys.readouterr().out)

    numbers = set()

    def collect(node):
        if isinstance(node, bool):
            return
        if isinstance(node, int):
            numbers.add(node)
        elif isinstance(node, str):
            numbers.update(int(tok) for tok in re.findall(r"\d+", node))
        elif isinstance(node, list):
            for item in node:
                collect(item)
        elif isinstance(node, dict):
            for value in node.values():
                collect(value)

    collect(doc)
    for token in re.findall(r"\d+", text):
        assert int(token) in numbers
    assert list(doc["surface"]) == list(SurfaceSummary._fields)


def test_analyze_invalid_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "bad", "triangles": [[{"label": "x"}]]}')
    code = cli.main(["analyze", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "error" in err


def test_analyze_missing_file_exits_2(tmp_path, capsys):
    code = cli.main(["analyze", str(tmp_path / "absent.json")])
    assert code == 2


def test_analyze_disagreement_exits_3(fixture_file, capsys, monkeypatch):
    import gentlehh.report as report_module

    def doctored(presentation, characteristic, nmax):
        return HHTable(dims=tuple([99] * (nmax + 1)))

    monkeypatch.setattr(report_module, "hh_dims_rr", doctored)
    code = cli.main(["analyze", fixture_file("fig8")])
    out = capsys.readouterr().out
    assert code == 3
    assert "DISAGREE" in out


def test_crosscheck_fixtures(capsys):
    code = cli.main(["crosscheck", "fixtures", "--nmax", "8"])
    out = capsys.readouterr().out
    assert code == 0
    assert "5 instance(s), 0 disagreement(s)" in out


def test_crosscheck_default_runs_fixtures(capsys):
    code = cli.main(["crosscheck", "--nmax", "6"])
    out = capsys.readouterr().out
    assert code == 0
    assert "torus-T2" in out


def test_crosscheck_polygons(capsys):
    code = cli.main(["crosscheck", "--polygons", "4..6", "--nmax", "7"])
    out = capsys.readouterr().out
    assert code == 0
    assert "21 instance(s), 0 disagreement(s)" in out


def test_crosscheck_builds_each_polygon_just_before_its_analyses(monkeypatch, capsys):
    import gentlehh.corpus as corpus_module
    import gentlehh.report as report_module
    fixtures = [f.data.name for f in builtin_fixtures()]
    calls = []
    build, analyze = cli.build_surface, report_module.analyze

    def recording_build(data):
        calls.append(("build", data.name))
        return build(data)

    def recording_analyze(surface, characteristic, nmax, *args):
        calls.append(("analyze", surface.name, characteristic))
        return analyze(surface, characteristic, nmax, *args)

    monkeypatch.setattr(cli, "build_surface", recording_build)
    monkeypatch.setattr(corpus_module, "build_surface", recording_build)
    monkeypatch.setattr(report_module, "analyze", recording_analyze)
    assert cli.main(["crosscheck", "fixtures", "--polygons", "4..5", "--nmax", "4"]) == 0
    assert "12 instance(s), 0 disagreement(s)" in capsys.readouterr().out

    def analyses(name):
        return [("analyze", name, 0), ("analyze", name, 2)]

    # every fixture is validated before any output, then each polygon is
    # built just before its two analyses
    expected = [("build", name) for name in fixtures]
    expected += [call for name in fixtures for call in analyses(name)]
    for data in polygons((4, 5)):
        expected += [("build", data.name)] + analyses(data.name)
    assert calls == expected


def test_crosscheck_corrupted_file_exits_2(tmp_path, capsys):
    path = tmp_path / "corrupt.json"
    doc = fileformat.as_document(fixture_by_name("fig8").data)
    doc["triangles"][0][0]["to"] = "elsewhere"
    path.write_text(json.dumps(doc))
    code = cli.main(["crosscheck", str(path)])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_ag_compare_torus_pair(fixture_file, capsys):
    code = cli.main(["ag-compare", fixture_file("torus-T1"),
                     fixture_file("torus-T2")])
    out = capsys.readouterr().out
    assert code == 0
    assert "(3, 3): 2 vs 0" in out
    assert "not derived equivalent" in out
    assert out.count("[1, 7, 0, 0, 0, 0, 4, 4, 0, 0, 0, 0, 4, 4]") == 2


def test_ag_compare_reflexive(fixture_file, capsys):
    path = fixture_file("fig8")
    code = cli.main(["ag-compare", path, path])
    out = capsys.readouterr().out
    assert code == 0
    assert "no obstruction found" in out


def test_ag_compare_fig8_vs_torus(fixture_file, capsys):
    code = cli.main(["ag-compare", fixture_file("fig8"),
                     fixture_file("torus-T1")])
    out = capsys.readouterr().out
    assert code == 0
    assert "not derived equivalent" in out


def test_generate_then_analyze(tmp_path, capsys):
    out_dir = tmp_path / "polygons"
    code = cli.main(["generate", "--polygon", "5", "--out", str(out_dir)])
    out = capsys.readouterr().out
    assert code == 0
    assert "wrote 5 triangulation(s)" in out
    files = sorted(out_dir.glob("*.json"))
    assert len(files) == 5
    for path in files:
        assert cli.main(["analyze", str(path), "--nmax", "6"]) == 0
        capsys.readouterr()


def test_generate_counts(tmp_path, capsys):
    for n, count in ((4, 2), (6, 14)):
        out_dir = tmp_path / ("gen%d" % n)
        assert cli.main(["generate", "--polygon", str(n), "--out", str(out_dir)]) == 0
        capsys.readouterr()
        assert len(list(out_dir.glob("*.json"))) == count


def assert_one_line_error(code, capsys):
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("argv", (
    ["analyze", "FIG8", "--nmax", "0"],
    ["crosscheck", "--nmax", "0"],
    ["ag-compare", "FIG8", "FIG8", "--nmax", "0"],
    ["analyze", "FIG8", "--char", "4"],
    ["ag-compare", "FIG8", "FIG8", "--char", "4"],
    ["crosscheck", "--polygons", "x..y"],
    ["crosscheck", "--polygons", "9..4"],
    ["generate", "--polygon", "3", "--out", "OUT"],
    ["analyze", "FIG8", "--char", "1"],
    ["analyze", "FIG8", "--char", "-2"],
    # primes, but too large to test by trial division
    ["analyze", "FIG8", "--nmax", "3", "--char", "100000000000031"],
    ["analyze", "FIG8", "--nmax", "3", "--char", "1000000000000000003"],
))
def test_out_of_range_arguments_exit_2(argv, fixture_file, tmp_path, capsys):
    path, out_dir = fixture_file("fig8"), tmp_path / "out"
    start = time.perf_counter()
    code = cli.main([{"FIG8": path, "OUT": str(out_dir)}.get(arg, arg) for arg in argv])
    assert time.perf_counter() - start < 1
    assert_one_line_error(code, capsys)
    assert not out_dir.exists()


def test_the_largest_accepted_characteristic_is_the_prime_2_31_minus_1(fixture_file,
                                                                         capsys):
    assert cli.main(["analyze", fixture_file("square-disc"), "--nmax", "3",
                     "--char", str(2**31 - 1)]) == 0
    assert "characteristic 2147483647" in capsys.readouterr().out


def test_a_characteristic_is_trial_divided_at_most_once(fixture_file, monkeypatch,
                                                       capsys):
    from gentlehh import linalg
    divided = []
    original = linalg.is_prime

    def recording(p):
        divided.append(p)
        return original(p)

    monkeypatch.setattr(linalg, "is_prime", recording)
    assert cli.main(["analyze", fixture_file("square-disc"), "--nmax", "3",
                     "--char", str(2**31 - 1)]) == 0
    capsys.readouterr()
    assert divided.count(2**31 - 1) <= 1


def test_generate_onto_an_existing_file_exits_2(tmp_path, capsys):
    path = tmp_path / "taken"
    path.write_text("")
    assert_one_line_error(cli.main(["generate", "--polygon", "5", "--out", str(path)]),
                          capsys)


def test_a_library_value_error_is_a_traceback_not_exit_2(fixture_file, monkeypatch):
    import gentlehh.report as report_module

    def broken(*args, **kwargs):
        raise ValueError("a bug, not an input error")

    monkeypatch.setattr(report_module, "analyze", broken)
    with pytest.raises(ValueError, match="a bug"):
        cli.main(["analyze", fixture_file("fig8")])


@pytest.mark.parametrize("command", ("analyze", "crosscheck", "ag-compare"))
def test_non_utf8_file_exits_2(command, tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"name": "café"}'.encode("latin-1"))
    argv = [command, str(path)] + ([str(path)] if command == "ag-compare" else [])
    assert_one_line_error(cli.main(argv), capsys)


@pytest.mark.parametrize("command", ("analyze", "crosscheck", "ag-compare"))
def test_deeply_nested_json_exits_2(command, tmp_path, capsys):
    path = tmp_path / "nested.json"
    path.write_text("[" * 200000)
    argv = [command, str(path)] + ([str(path)] if command == "ag-compare" else [])
    assert_one_line_error(cli.main(argv), capsys)


def malformed_text(kind):
    if kind == "long number":
        # past the interpreter's 4300-digit limit for integer literals
        return '{"name": 1%s, "triangles": []}' % ("0" * 5000)
    doc = fileformat.as_document(fixture_by_name("fig8").data)
    doc["name"] = "fig8 \ud800"  # a lone surrogate: not valid Unicode
    return json.dumps(doc)


@pytest.mark.parametrize("kind", ("long number", "lone surrogate"))
@pytest.mark.parametrize("command", ("analyze", "crosscheck", "ag-compare"))
def test_malformed_json_text_exits_2(command, kind, fixture_file, tmp_path, capsys):
    path = tmp_path / "malformed.json"
    path.write_text(malformed_text(kind), encoding="utf-8")
    argv = [command, str(path)] + ([fixture_file("fig8")] if command == "ag-compare" else [])
    assert_one_line_error(cli.main(argv), capsys)


def test_ag_compare_runs_only_the_geometric_method(fixture_file, capsys, monkeypatch):
    import gentlehh.report as report_module

    def forbidden(*args, **kwargs):
        raise AssertionError("ag-compare prints only the geometric table")

    monkeypatch.setattr(report_module, "build_complex", forbidden)
    monkeypatch.setattr(report_module, "hh_dims_rr", forbidden)
    code = cli.main(["ag-compare", fixture_file("torus-T1"),
                     fixture_file("torus-T2")])
    assert code == 0
    assert capsys.readouterr().out == (
        "torus-T1:\n"
        "  AG invariant: (0, 3): 4; (3, 3): 2\n"
        "  HH dims (char 0): [1, 7, 0, 0, 0, 0, 4, 4, 0, 0, 0, 0, 4, 4]\n"
        "torus-T2:\n"
        "  AG invariant: (0, 3): 4; (2, 2): 1; (4, 4): 1\n"
        "  HH dims (char 0): [1, 7, 0, 0, 0, 0, 4, 4, 0, 0, 0, 0, 4, 4]\n"
        "AG invariants differ at (3, 3): 2 vs 0 -> not derived equivalent\n")


def test_mutated_fixture_documents_exit_cleanly(tmp_path, capsys):
    rng = random.Random(4)
    documents = [fileformat.as_document(f.data) for f in builtin_fixtures()]
    codes = collections.Counter()
    for k in range(500):
        path = tmp_path / ("mutant%d.json" % k)
        path.write_text(json.dumps(mutate(rng.choice(documents), rng)))
        code = cli.main(["analyze", str(path)])
        captured = capsys.readouterr()
        assert code in (0, 2, 3), path.read_text()
        if code == 2:
            lines = captured.err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
        codes[code] += 1
    # the edits reach both rejected and accepted documents
    assert codes[2] and codes[0], codes
