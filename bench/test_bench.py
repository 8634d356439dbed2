"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py
"""

import contextlib
import importlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from gentlehh import cli, fileformat, quiver, surface  # noqa: E402


def attributes():
    return {(m, a): getattr(importlib.import_module(m), a)
            for m, a, _, _ in tracer.LAYERS}


def polygon_file(tmp_path, n, seed):
    doc = workloads.pick_polygon(n, seed)["doc"]
    path = tmp_path / (doc["name"] + ".json")
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def cli_output(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def test_traced_tables_match_untraced_and_names_are_restored(tmp_path):
    before = attributes()
    commands = [["crosscheck", "fixtures", "--polygons", "4..6"],
                ["analyze", polygon_file(tmp_path, 12, 3), "--char", "0",
                 "--format", "json"],
                ["analyze", polygon_file(tmp_path, 12, 3), "--char", "2",
                 "--nmax", "20", "--format", "json"]]
    plain = [cli_output(argv) for argv in commands]
    with tracer.Tracer() as traced:
        spanned = [cli_output(argv) for argv in commands]
    assert spanned == plain
    assert all(code == 0 for code, _ in plain)
    assert attributes() == before
    summary = tracer.summarize(traced.spans)
    # crosscheck builds the quiver once per characteristic, and every
    # analyze calls the geometric formula and the invariant twice
    assert summary["layers"]["report.analyze"]["calls"] == 2 * 26 + 2
    assert summary["layers"]["quiver.build_quiver"]["calls"] == 2 * 26 + 2
    assert summary["layers"]["geometric.hh_dims_geometric"]["calls"] == 2 * (2 * 26 + 2)
    assert summary["layers"]["ag.ag_invariant"]["calls"] == 2 * (2 * 26 + 2)


def test_names_are_restored_when_a_call_raises():
    before = attributes()
    with pytest.raises(OSError):
        with tracer.Tracer():
            cli._load_surface(os.path.join(HERE, "does-not-exist.json"))
    assert attributes() == before


def test_generator_is_deterministic_and_its_census_matches_the_library():
    first = workloads.pick_polygon(40, 7)
    assert workloads.pick_polygon(40, 7) == first
    assert workloads.pick_polygon(40, 8)["doc"] != first["doc"]
    built = surface.build_surface(fileformat.parse_triangulation(first["doc"]))
    presentation = quiver.build_quiver(built)
    assert first["internal"] == len(surface.internal_triangles(built))
    assert first["arcs"] == len(built.arcs)
    assert first["arrows"] == len(presentation.quiver.arrows)
    assert first["basis"] == len(presentation.basis)


def tiny_plans(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "LARGE_SIZES", (9, 11))
    monkeypatch.setattr(workloads, "DEEP_SIZES", (10,))
    monkeypatch.setattr(workloads, "DEEP_NMAX", 20)
    corpus = {"commands": [["crosscheck", "fixtures", "--polygons", "4..5",
                            "--nmax", "13"]],
              "expected": [2 * (5 + 2 + 5)], "nmax": 13, "inputs": [],
              "generated": {}}
    return [corpus] + [workloads.build_plan(w, 5, str(tmp_path), str(tmp_path))
                       for w in ("large_disc", "deep_degree")]


def test_tiny_smoke_run_reports_every_named_metric(tmp_path, monkeypatch):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    fixtures = workloads.load_fixtures(os.path.join(ROOT, "src", "gentlehh", "data"))
    for plan in tiny_plans(tmp_path, monkeypatch):
        plain = run.run_child(plan, 1, False, 120)
        assert len(plain["setup"]) == 3 * len(plain["passes"])
        e2e = run.end_to_end(plan, plain)
        assert sorted(e2e) == sorted(m["name"] for m in spec["end_to_end"])
        child = run.run_child(plan, 1, True, 120)
        assert child["left_patched"] == []
        attempted, failed, messages = run.check_outcomes(plan, child["outcomes"], fixtures)
        assert (failed, messages) == (0, [])
        assert attempted == sum(plan["expected"]) * len(child["passes"])
        layers, inputs, counts_repeat = run.per_layer(child)
        assert sorted(layers) == sorted(m["name"] for m in spec["per_layer"])
        assert counts_repeat
        assert {"fileformat.load_file.self_s", "report.render_json.self_s",
                "corpus.generate_polygon_triangulations.self_s"} <= set(inputs)


def test_a_wrong_table_counts_as_failed(tmp_path, monkeypatch):
    fixtures = workloads.load_fixtures(os.path.join(ROOT, "src", "gentlehh", "data"))
    plan = tiny_plans(tmp_path, monkeypatch)[2]
    child = run.run_child(plan, 1, False, 120)
    report = child["outcomes"][0]["commands"][0]["reports"][0]
    report["dims"]["rr"][6] += 1
    attempted, failed, messages = run.check_outcomes(plan, child["outcomes"], fixtures)
    assert failed == child["outcomes"][0]["passes"]
    assert messages


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "disc_corpus",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
