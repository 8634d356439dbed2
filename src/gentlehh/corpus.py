"""Instance generation: exhaustive polygon triangulations and the shipped
fixture surfaces."""

import json
from typing import NamedTuple

from . import fileformat
from .surface import (ARC, BOUNDARY, Side, Triangle, TriangulatedSurface,
                      TriangulationInput, SurfaceError, build_surface)


class FixtureCorrupt(Exception):
    """A shipped fixture file failed parsing or surface validation."""


class Fixture(NamedTuple):
    """A shipped fixture: its triangulation, the surface its validation
    built, and the tables it expects."""

    name: str
    data: TriangulationInput
    surface: TriangulatedSurface
    expected: dict


def generate_polygon_triangulations(n: int) -> list[TriangulationInput]:
    """All triangulations of a convex n-gon, Catalan(n-2) of them.

    Vertices are p0..p(n-1) counter-clockwise; edge i runs pi -> p(i+1).
    Recursion splits on the apex of the triangle over the base edge
    (p0, p(n-1)), so each triangulation appears exactly once.  Each
    triangle (a, b, c) is built once, with its sides, and shared by every
    triangulation that holds it.  The n = 3 case returns the bare
    triangle, which is not a valid surface input (it has no arc);
    build_surface rejects it.
    """
    if n < 3:
        raise ValueError("a polygon needs at least 3 vertices")

    def oriented_side(u, w):
        # In a ccw triangle (a, b, c) with a < b < c, boundary edges occur
        # only as (u, u+1) or as the closing edge (n-1, 0).
        if w == u + 1 or (u == n - 1 and w == 0):
            return Side("s%d" % u, BOUNDARY, "p%d" % u, "p%d" % w)
        lo, hi = (u, w) if u < w else (w, u)
        return Side("d%d_%d" % (lo, hi), ARC, "p%d" % u, "p%d" % w)

    shared = {}

    def triangle(a, b, c):
        if (a, b, c) not in shared:
            shared[a, b, c] = Triangle(sides=(
                oriented_side(a, b), oriented_side(b, c), oriented_side(c, a)))
        return shared[a, b, c]

    return [TriangulationInput(name="polygon%d-%03d" % (n, idx), triangles=triangles)
            for idx, triangles in enumerate(_split(0, n - 1, triangle))]


def _split(lo, hi, triangle):
    """Every triangulation of the polygon p_lo..p_hi as a tuple of
    ``triangle(a, b, c)`` results.  A module function, not a closure: a
    nested recursive function holds itself through its closure cell, and
    that cycle would keep the triangle table alive until a collection."""
    if hi - lo < 2:
        yield ()
        return
    for apex in range(lo + 1, hi):
        tri = triangle(lo, apex, hi)
        for left in _split(lo, apex, triangle):
            for right in _split(apex, hi, triangle):
                yield left + (tri,) + right


_FIXTURE_FILES = (
    "square_disc.json",
    "annulus_1_1.json",
    "fig8.json",
    "torus_t1.json",
    "torus_t2.json",
)


def fixture_documents():
    # imported here: on Python 3.12+ importlib.resources loads inspect
    from importlib import resources
    for filename in _FIXTURE_FILES:
        text = resources.files("gentlehh.data").joinpath(filename).read_text("utf-8")
        yield filename, json.loads(text)


def _parse_fixture(doc, origin) -> TriangulationInput:
    try:
        return fileformat.parse_triangulation(doc)
    except fileformat.FormatError as exc:
        raise FixtureCorrupt("%s: %s" % (origin, exc))


def load_fixture_document(doc, origin="fixture") -> Fixture:
    data = _parse_fixture(doc, origin)
    try:
        surface = build_surface(data)
    except SurfaceError as exc:
        raise FixtureCorrupt("%s: %s" % (origin, exc))
    return Fixture(name=data.name, data=data, surface=surface,
                   expected=doc.get("expected", {}))


def builtin_fixtures() -> list[Fixture]:
    """The shipped fixture surfaces, each validated on load."""
    return [load_fixture_document(doc, origin=filename)
            for filename, doc in fixture_documents()]


def fixture_by_name(name: str) -> Fixture:
    """The shipped fixture called ``name``; every document is parsed, only
    that one is built and validated.  An unknown name is a KeyError."""
    for filename, doc in fixture_documents():
        if _parse_fixture(doc, filename).name == name:
            return load_fixture_document(doc, origin=filename)
    raise KeyError(name)
