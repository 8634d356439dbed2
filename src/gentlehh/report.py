"""Per-instance analysis report: surface census, dimension tables from the
requested methods, derived invariant, and the cross-method verdict."""

import json
from typing import NamedTuple

from .ag import AGInvariant, ag_invariant, hh_dims_ladkani
from .cochain import build_complex, hh_dims_oracle
from .geometric import hh_dims_geometric
from .pairs import hh_dims_rr
from .quiver import build_quiver
from .surface import (TriangulatedSurface, boundary_type_counts,
                      classify_boundaries, internal_triangles, sint_count)

METHODS = ("geometric", "rr", "oracle", "ladkani")


class SurfaceSummary(NamedTuple):
    genus: int
    boundary_components: int
    marked_points: int
    arcs: int
    boundary_segments: int
    triangles: int
    internal_triangles: int
    single_boundary_side_triangles: int
    type0_boundaries: int
    type1_boundaries: int
    boundary_pairs: tuple[tuple[int, int], ...]


class Report(NamedTuple):
    name: str
    summary: SurfaceSummary
    characteristic: int
    nmax: int
    tables: dict
    invariant: AGInvariant
    cup_nontrivial: bool
    bracket_nontrivial: bool
    verdict: str
    disagreement: str = ""


def summarize(surface: TriangulatedSurface) -> SurfaceSummary:
    profiles = classify_boundaries(surface)
    type0, type1 = boundary_type_counts(profiles)
    return SurfaceSummary(
        genus=surface.genus,
        boundary_components=len(surface.boundary_components),
        marked_points=len(surface.marked_points),
        arcs=len(surface.arcs),
        boundary_segments=len(surface.boundary_segments),
        triangles=len(surface.triangles),
        internal_triangles=len(internal_triangles(surface)),
        single_boundary_side_triangles=sint_count(surface),
        type0_boundaries=type0,
        type1_boundaries=type1,
        boundary_pairs=tuple((p.n_incident, p.m_segments) for p in profiles),
    )


def compute_tables(surface: TriangulatedSurface, characteristic: int,
                   nmax: int, methods=METHODS) -> dict:
    """Run the requested dimension methods on one surface."""
    tables = {}
    presentation = None
    if any(m in methods for m in ("rr", "oracle", "ladkani")):
        presentation = build_quiver(surface)
    if "geometric" in methods:
        tables["geometric"] = hh_dims_geometric(surface, characteristic, nmax).table
    if "rr" in methods:
        tables["rr"] = hh_dims_rr(presentation, characteristic, nmax)
    if "oracle" in methods:
        complex_ = build_complex(presentation, nmax)
        tables["oracle"] = hh_dims_oracle(complex_, characteristic, nmax)
    if "ladkani" in methods:
        tables["ladkani"] = hh_dims_ladkani(
            ag_invariant(surface), len(presentation.quiver.vertices),
            len(presentation.quiver.arrows), characteristic, nmax)
    return tables


def tables_agree(tables: dict) -> bool:
    dims = {table.dims for table in tables.values()}
    return len(dims) <= 1


def analyze(surface: TriangulatedSurface, characteristic: int, nmax: int,
            methods=METHODS) -> Report:
    tables = compute_tables(surface, characteristic, nmax, methods)
    geo = hh_dims_geometric(surface, characteristic, nmax)
    agree = tables_agree(tables)
    disagreement = ""
    if not agree:
        parts = ["%s=%s" % (m, list(t.dims)) for m, t in sorted(tables.items())]
        disagreement = "; ".join(parts)
    return Report(
        name=surface.name,
        summary=summarize(surface),
        characteristic=characteristic,
        nmax=nmax,
        tables=tables,
        invariant=ag_invariant(surface),
        cup_nontrivial=geo.cup_nontrivial,
        bracket_nontrivial=geo.bracket_nontrivial,
        verdict="pass" if agree else "disagree",
        disagreement=disagreement,
    )


def render_text(report: Report) -> str:
    s = report.summary
    lines = [
        "instance: %s" % report.name,
        "surface: genus %d, boundary components %d, marked points %d, "
        "arcs %d, boundary segments %d, triangles %d"
        % (s.genus, s.boundary_components, s.marked_points, s.arcs,
           s.boundary_segments, s.triangles),
        "         internal triangles %d, single-boundary-side triangles %d, "
        "type-0 boundaries %d, type-1 boundaries %d"
        % (s.internal_triangles, s.single_boundary_side_triangles,
           s.type0_boundaries, s.type1_boundaries),
        "characteristic %d, degrees 0..%d" % (report.characteristic, report.nmax),
        "HH dimensions:",
    ]
    width = max(len(m) for m in report.tables)
    for method in METHODS:
        if method in report.tables:
            table = report.tables[method]
            lines.append("  %-*s %s" % (width + 1, method + ":", list(table.dims)))
    lines.append("AG invariant: %s" % ("; ".join(report.invariant.lines()) or "(empty)"))
    lines.append("flags: cup product nontrivial: %s; Lie bracket nontrivial: %s"
                 % ("yes" if report.cup_nontrivial else "no",
                    "yes" if report.bracket_nontrivial else "no"))
    lines.append("cross-check: %s" % ("PASS" if report.verdict == "pass" else "DISAGREE"))
    if report.disagreement:
        lines.append("  " + report.disagreement)
    return "\n".join(lines)


def as_json_document(report: Report) -> dict:
    return {
        "name": report.name,
        "surface": report.summary._asdict(),
        "characteristic": report.characteristic,
        "nmax": report.nmax,
        "methods": {
            name: {"dims": list(table.dims), "tail": table.tail_note}
            for name, table in report.tables.items()
        },
        "ag_invariant": [[pair[0], pair[1], mult]
                         for pair, mult in report.invariant.support],
        "flags": {
            "cup_nontrivial": report.cup_nontrivial,
            "bracket_nontrivial": report.bracket_nontrivial,
        },
        "verdict": report.verdict,
        "disagreement": report.disagreement,
    }


def render_json(report: Report) -> str:
    return json.dumps(as_json_document(report), indent=2)
