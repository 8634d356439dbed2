"""Every table is an invariant of the algebra: the opposite algebra and a
relabelled triangulation agree.

Reflecting a triangulated surface reverses its orientation.  Listing each
triangle's sides in the other order, each side from its other end, is
again a valid input, and its quiver is the opposite quiver: every arrow
and every relation reversed.  Hochschild cohomology is the same for an
algebra and its opposite, and so is the derived invariant, so all four
tables and the AG invariant must not change.  The invariant also counts
the quiver it came from: over its support, the sum of n * mult is the
number 2|Q0| - |Q1| of permitted threads and the sum of m * mult is |Q1|.

Relabelling writes the same surface another way: the triangles in
another order, each starting at another side, and every arc, segment and
point under another name.  The quiver is the same up to the renaming of
its vertices, whose order and arrow ids change, so the tables, the AG
invariant and the census must not change.  The census lists its boundary
pairs in the order of the boundary labels, so they compare as a multiset.
"""

import random

from gentlehh import (Triangle, ag_invariant, build_quiver, build_surface,
                      builtin_fixtures, generate_polygon_triangulations)
from gentlehh.report import compute_tables, summarize

CHARS = (0, 2, 3, 5)
NMAX = 13


def mirror(data):
    """The reflected triangulation: each triangle's sides in the reverse
    order, and each side running from its other end."""
    return data._replace(name=data.name + " mirrored", triangles=tuple(
        Triangle(tuple(side._replace(src=side.dst, dst=side.src)
                       for side in reversed(triangle.sides)))
        for triangle in data.triangles))


def labelled(p):
    """The arrows of p as sorted (source, target) arc labels, and its
    relations as sorted (source, middle, target) arc labels."""
    names, arrows = p.quiver.vertices, p.quiver.arrows
    return (sorted((names[a.source], names[a.target]) for a in arrows),
            sorted((names[arrows[a].source], names[arrows[a].target], names[arrows[b].target])
                   for a, b in p.relations))


def opposite(arrows, relations):
    return (sorted((target, source) for source, target in arrows),
            sorted((target, middle, source) for source, middle, target in relations))


def inputs():
    found = [f.data for f in builtin_fixtures()]
    found += [d for n in range(4, 10) for d in generate_polygon_triangulations(n)]
    return found


def analysis(surface):
    """Labelled quiver, the tables at every characteristic and the AG
    invariant of one surface, its presentation built once."""
    p = build_quiver(surface)
    counts = len(p.quiver.vertices), len(p.quiver.arrows)
    tables = {char: compute_tables(surface, char, NMAX) for char in CHARS}
    return labelled(p), counts, tables, ag_invariant(surface)


def test_the_opposite_algebra_has_the_same_tables_and_invariant():
    found = inputs()
    assert len(found) == 5 + 624
    for data in found:
        quiver, (q0, q1), tables, invariant = analysis(build_surface(data))
        mirrored_quiver, mirrored_counts, mirrored_tables, mirrored_invariant = analysis(
            build_surface(mirror(data)))
        assert mirrored_quiver == opposite(*quiver), data.name
        assert mirrored_counts == (q0, q1), data.name
        assert len(tables[0]) == 4 and mirrored_tables == tables, data.name
        assert mirrored_invariant == invariant, data.name
        assert sum(n * mult for (n, _), mult in invariant.support) == 2 * q0 - q1, data.name
        assert sum(m * mult for (_, m), mult in invariant.support) == q1, data.name


def relabel(data, rng):
    """The triangulation with its triangles shuffled, each triangle's sides
    rotated and every arc, segment and point renamed at random, and the
    renaming of the side labels."""
    labels = sorted({side.label for t in data.triangles for side in t.sides})
    points = sorted({end for t in data.triangles for side in t.sides
                     for end in (side.src, side.dst)})
    label = dict(zip(labels, ("s%d" % k for k in rng.sample(range(len(labels)), len(labels)))))
    point = dict(zip(points, ("q%d" % k for k in rng.sample(range(len(points)), len(points)))))
    triangles = []
    for triangle in rng.sample(data.triangles, len(data.triangles)):
        k = rng.randrange(3)
        triangles.append(Triangle(tuple(
            side._replace(label=label[side.label], src=point[side.src], dst=point[side.dst])
            for side in triangle.sides[k:] + triangle.sides[:k])))
    return data._replace(name=data.name + " relabelled", triangles=tuple(triangles)), label


def census(surface):
    summary = summarize(surface)
    return summary._replace(boundary_pairs=sorted(summary.boundary_pairs))


def test_a_relabelled_triangulation_has_the_same_tables_invariant_and_census():
    rng = random.Random(20261020)
    found = [f.data for f in builtin_fixtures()]
    found += [d for n in range(4, 9) for d in generate_polygon_triangulations(n)]
    assert len(found) == 5 + 195
    for data in found:
        relabelled, label = relabel(data, rng)
        surface, other = build_surface(data), build_surface(relabelled)
        (arrows, relations), counts, tables, invariant = analysis(surface)
        renamed = (sorted((label[s], label[t]) for s, t in arrows),
                   sorted((label[s], label[m], label[t]) for s, m, t in relations))
        assert analysis(other) == (renamed, counts, tables, invariant), data.name
        assert census(other) == census(surface), data.name
