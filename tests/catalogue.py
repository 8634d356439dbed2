"""The instances the test suite shares and the corpora it runs over.

Surfaces are the shipped fixtures and the triangulated convex polygons;
presentations come from them, or from small hand-made and seeded random
quivers.  The tests that run over groups of instances (agreement,
periodicity, prefix, level and brute-force tests) name the groups of
GROUPS they take, so a new corpus is one entry there.  Test modules import
from here and from references.py, never from one another.
"""

import copy
import random

from gentlehh import (Arrow, GentlePresentation, InfiniteDimensionalError, Quiver,
                      build_quiver, build_surface, builtin_fixtures, check_gentle,
                      fixture_by_name, generate_polygon_triangulations)
from gentlehh.fileformat import parse_triangulation
from gentlehh.quiver import Violation


def surface_for(name):
    return fixture_by_name(name).surface


def presentation_for(name):
    return build_quiver(fixture_by_name(name).surface)


def fresh(surface):
    """A presentation of ``surface`` that no other call shares.
    build_quiver hands back its last presentation when it is given the
    same surface object again (the identity memo ``quiver._last_built``),
    so this builds one from an equal copy of the surface."""
    return build_quiver(surface._replace())


def polygons(ngons):
    """The triangulations of each n-gon for n in ``ngons``, as data."""
    return [data for n in ngons for data in generate_polygon_triangulations(n)]


def corpus(ngons, data=False):
    """The fixtures, then every triangulation of each n-gon for n in
    ``ngons``: as surfaces (the fixtures' own, each polygon built here), or
    as triangulation data."""
    fixtures = builtin_fixtures()
    if data:
        return [fx.data for fx in fixtures] + polygons(ngons)
    return [fx.surface for fx in fixtures] + [build_surface(d) for d in polygons(ngons)]


def random_polygon(n, seed):
    """A seeded random triangulation of the convex n-gon: the triangle over
    each base takes a uniformly random apex, then both sides recurse."""
    rng = random.Random(seed)

    def side(u, w):
        if w == u + 1 or (u == n - 1 and w == 0):
            return {"label": "s%d" % u, "kind": "boundary",
                    "from": "p%d" % u, "to": "p%d" % w}
        return {"label": "d%d_%d" % (min(u, w), max(u, w)), "kind": "arc",
                "from": "p%d" % u, "to": "p%d" % w}

    triangles, stack = [], [(0, n - 1)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo >= 2:
            apex = rng.randrange(lo + 1, hi)
            triangles.append([side(lo, apex), side(apex, hi), side(hi, lo)])
            stack += [(lo, apex), (apex, hi)]
    return build_surface(parse_triangulation(
        {"name": "%d-gon-s%d" % (n, seed), "triangles": triangles}))


def mutate(doc, rng):
    """Apply one to three random edits to a copy of a triangulation
    document: drop a side, duplicate one side over another, relabel a side
    (to a label in use or a fresh one), or swap the kind of a side or of
    every side with its label."""
    doc = copy.deepcopy(doc)
    triangles = doc["triangles"]
    labels = sorted({side["label"] for tri in triangles for side in tri})
    for _ in range(rng.randint(1, 3)):
        tri = rng.choice(triangles)
        if not tri:
            continue
        side = tri[rng.randrange(len(tri))]
        edit = rng.choices(("drop", "duplicate", "relabel", "swap kind"), (1, 2, 4, 3))[0]
        if edit == "drop":
            tri.remove(side)
        elif edit == "duplicate":
            side.update(rng.choice([s for t in triangles for s in t]))
        elif edit == "relabel":
            side["label"] = rng.choice(labels + ["fresh%d" % rng.randrange(3)])
        else:
            kind = "arc" if side["kind"] == "boundary" else "boundary"
            for other in ([side] if rng.random() < 0.5 else
                          [s for t in triangles for s in t if s["label"] == side["label"]]):
                other["kind"] = kind
    return doc


def replaced(levels, i, value):
    """A copy of the tuple ``levels`` with position i holding ``value``."""
    return levels[:i] + (value,) + levels[i + 1:]


# Presentations that no surface gives.

def chain_presentation(length):
    """Not from a surface: the path 0 -> 1 -> ... -> length with every
    composable pair a relation, so the zero paths stop at degree length
    and never repeat."""
    arrows = tuple(Arrow(i, i, i + 1) for i in range(length))
    return GentlePresentation(Quiver(tuple("v%d" % i for i in range(length + 1)), arrows),
                              {(i, i + 1) for i in range(length - 1)})


def two_cycle_presentation():
    """Gentle and finite, with no period: a: v0 -> v1 and b: v1 -> v0
    under the one relation (a, b).  Its degree-2 zero path ab is a cycle
    at v0 that no relation closes, and v0 is no relation's midpoint, so
    (ab, e_v0) is an empty_incomplete pair, which no surface has."""
    return GentlePresentation(Quiver(("v0", "v1"), (Arrow(0, 0, 1), Arrow(1, 1, 0))),
                              {(0, 1)})


def extra_relation_presentation(side, k):
    """Not gentle: the 3-cycle 0 -> 1 -> 2 -> 0 of arrows 0, 1, 2 (arrow i
    leaves vertex i) under its three relations, plus arrows 3 -> k and
    k -> 4 and one more relation at vertex k, into or out of the cycle,
    which breaks G3 there.  rr refuses it; the families and the oracle
    still serve it."""
    arrows = (Arrow(0, 0, 1), Arrow(1, 1, 2), Arrow(2, 2, 0), Arrow(3, 3, k),
              Arrow(4, k, 4))
    extra = (3, k) if side == "in" else ((k - 1) % 3, 4)
    return GentlePresentation(Quiver(tuple("v%d" % i for i in range(5)), arrows),
                              {(0, 1), (1, 2), (2, 0), extra})


def four_vertex_presentation(ends, relation):
    """The arrows ``ends`` on v0..v3 under the one ``relation``, whose
    zero path of degree 2 ends the zero paths: finite, connected and
    without a period."""
    return GentlePresentation(Quiver(("v0", "v1", "v2", "v3"),
                                     tuple(Arrow(i, s, t) for i, (s, t) in enumerate(ends))),
                              {relation})


def isolated_vertex_presentation():
    # w has no arrow; the loop at v is under its own relation
    return GentlePresentation(
        Quiver(("u", "v", "w"), (Arrow(0, 0, 1), Arrow(1, 1, 1), Arrow(2, 1, 0))),
        {(0, 1), (1, 1)})


# Hand-built presentations that break G1, G3 or G4 on vertices u, v, w, x:
# (arrows as (source, target), relations, the exact check_gentle report).
VIOLATING = {
    "three out of u": (((0, 1), (0, 2), (0, 3)), (), [Violation(
        "G1", "vertex u has 3 outgoing arrows: ['u->v', 'u->w', 'u->x']")]),
    "three into x": (((0, 3), (1, 3), (2, 3)), (), [Violation(
        "G1", "vertex x has 3 incoming arrows: ['u->x', 'v->x', 'w->x']")]),
    # two relations starting at the same arrow violate G3 ...
    "two relations after": (((0, 1), (1, 2), (1, 3)), ((0, 1), (0, 2)), [Violation(
        "G3", "arrow u->v has 2 relations starting with it")]),
    # ... and with no relations the same shape violates G4
    "two free after": (((0, 1), (1, 2), (1, 3)), (), [Violation(
        "G4", "arrow u->v has 2 relation-free extensions on the right")]),
    "two relations before": (((0, 2), (1, 2), (2, 3)), ((0, 2), (1, 2)), [Violation(
        "G3", "arrow w->x has 2 relations ending in it")]),
    "two free before": (((0, 2), (1, 2), (2, 3)), (), [Violation(
        "G4", "arrow w->x has 2 relation-free extensions on the left")]),
}


def violating_presentation(name):
    ends, relations, _ = VIOLATING[name]
    arrows = tuple(Arrow(i, s, t) for i, (s, t) in enumerate(ends))
    return GentlePresentation(Quiver(("u", "v", "w", "x"), arrows), relations=relations)


def random_loop_quiver(rng):
    """Vertices, arrows and relations of a quiver on at most 6 vertices with
    one or two loops, each loop a under the relation (a, a), and each other
    composable pair a relation with probability 1/2."""
    k = rng.randint(1, 6)
    ends = [(v, v) for v in rng.sample(range(k), rng.randint(1, min(k, 2)))]
    ends += [(rng.randrange(k), rng.randrange(k)) for _ in range(rng.randint(k - 1, k + 2))]
    arrows = tuple(Arrow(i, s, t) for i, (s, t) in enumerate(ends))
    relations = {(a.idx, b.idx) for a in arrows for b in arrows
                 if a.target == b.source and (a == b or rng.random() < 0.5)}
    return tuple("v%d" % v for v in range(k)), arrows, relations


def loop_quivers(count, seed):
    """``count`` draws of :func:`random_loop_quiver` whose presentation is
    connected, gentle and finite dimensional."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        vertices, arrows, relations = drawn = random_loop_quiver(rng)
        reached = {0}
        for _ in vertices:
            reached |= {w for a in arrows if {a.source, a.target} & reached
                        for w in (a.source, a.target)}
        p = GentlePresentation(Quiver(vertices, arrows), relations)
        if len(reached) < len(vertices) or check_gentle(p):
            continue
        try:
            p.basis
        except InfiniteDimensionalError:
            continue
        found.append(drawn)
    return found


def random_small_presentation(rng):
    """At most 6 vertices and 8 arrows, loops allowed, and a random subset
    of the composable arrow pairs as relations.  At most three arrows leave
    a vertex: without G4 a basis level grows as the out-degree to the power
    of its length, and the levels up to |Q1| + 1 = 9 arrows stay small."""
    vertices = tuple("v%d" % i for i in range(rng.randint(1, 6)))
    ends = []
    for _ in range(rng.randint(1, 8)):
        source = rng.randrange(len(vertices))
        if sum(s == source for s, _ in ends) < 3:
            ends.append((source, rng.randrange(len(vertices))))
    arrows = tuple(Arrow(i, s, t) for i, (s, t) in enumerate(ends))
    density = rng.random()
    relations = {(a.idx, b.idx) for a in arrows for b in arrows
                 if a.target == b.source and rng.random() < density}
    return GentlePresentation(Quiver(vertices, arrows), relations=relations)


def _fresh_of(surfaces):
    return [(s.name, lambda s=s: fresh(s)) for s in surfaces]


def _random_presentations():
    # drawn in order from one seeded generator; each factory copies its draw
    rng = random.Random(20261019)
    return [("random %d" % i,
             lambda p=random_small_presentation(rng): GentlePresentation(p.quiver, p.relations))
            for i in range(300)]


# The named groups of instances: each lists (name, factory of a fresh
# presentation), and is made only when a test asks for it.
GROUPS = {
    "fixtures": lambda: _fresh_of(corpus(())),
    "polygons 4..8": lambda: _fresh_of(map(build_surface, polygons(range(4, 9)))),
    "60-gon": lambda: [("60-gon", lambda s=random_polygon(60, 11): fresh(s))],
    "torus-T1": lambda: _fresh_of([surface_for("torus-T1")]),
    "extra relations": lambda: [
        ("%s at v%d" % (side, k), lambda side=side, k=k: extra_relation_presentation(side, k))
        for side in ("in", "out") for k in (0, 1)],
    "chain 4": lambda: [("chain 4", lambda: chain_presentation(4))],
    "two-cycle": lambda: [("two-cycle", two_cycle_presentation)],
    "four-vertex": lambda: [
        ("three arrows out of v0",
         lambda: four_vertex_presentation(((0, 1), (0, 2), (0, 3), (1, 0)), (3, 0))),
        ("two free arrows after v0->v1",
         lambda: four_vertex_presentation(((0, 1), (1, 2), (1, 3), (2, 0)), (1, 3)))],
    "loop quivers": lambda: [
        ("loop quiver %d" % i, lambda q=q: GentlePresentation(Quiver(q[0], q[1]), q[2]))
        for i, q in enumerate(loop_quivers(44, seed=0))],
    "random presentations": _random_presentations,
    "hand-built violations": lambda: [
        (name, lambda name=name: violating_presentation(name)) for name in VIOLATING],
    "isolated vertex": lambda: [("isolated vertex", isolated_vertex_presentation)],
}


def instances(*groups):
    """(name, factory of a fresh presentation) for every instance of the
    named groups, in order."""
    return [instance for group in groups for instance in GROUPS[group]()]
