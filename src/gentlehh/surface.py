"""Combinatorial triangulated surfaces with marked points on the boundary.

A surface is described by a list of triangles, each given by its three sides
in counter-clockwise order.  A side is a labelled oriented edge which is
either an ``arc`` (an interior edge, glued to its other occurrence) or a
``boundary`` segment (occurring exactly once).  All geometry the downstream
formulas consume -- genus, boundary components, internal triangles, boundary
profiles -- is derived from this gluing data alone.

:func:`build_surface` reads the triangles once into a flat side list, side
``pos`` of triangle ``t`` at id ``3*t + pos``, with ``other[id]`` the id of
the arc's other occurrence (-1 for a boundary side); the fan walk, the
connectivity search and the boundary chaining all step through these ids.
"""

from typing import NamedTuple


class SurfaceError(ValueError):
    """Base class for every triangulation validation failure."""


class CornerInconsistency(SurfaceError):
    """A triangle's sides do not chain head-to-tail in ccw order."""


class NonManifoldGluing(SurfaceError):
    """An edge label occurs the wrong number of times, or a vertex link
    is not a single fan of corners."""


class OrientationMismatch(SurfaceError):
    """An arc is glued to itself without reversing direction."""


class NonIntegerGenus(SurfaceError):
    """Euler characteristic and boundary count do not fit an oriented
    surface of nonnegative integer genus."""


class DisconnectedSurface(SurfaceError):
    """The triangles do not glue into a single connected surface."""


class UnsupportedSurface(SurfaceError):
    """Valid gluing, but outside the supported class: an interior marked
    point (puncture), or a surface carrying no arc at all."""


ARC = "arc"
BOUNDARY = "boundary"


class Side(NamedTuple):
    """One oriented side of a triangle."""

    label: str
    kind: str
    src: str
    dst: str


class Triangle(NamedTuple):
    sides: tuple[Side, Side, Side]


class TriangulationInput(NamedTuple):
    """Raw, not yet validated triangle gluing data."""

    name: str
    triangles: tuple[Triangle, ...]


class BoundaryComponent(NamedTuple):
    """A boundary circle: ``segments[i]`` runs from ``points[i]`` to
    ``points[(i + 1) % len(points)]``."""

    points: tuple[str, ...]
    segments: tuple[str, ...]


class BoundaryProfile(NamedTuple):
    """Arc-incidence profile of one boundary component.

    ``n_incident`` counts marked points on the component touching at least
    one arc; ``m_segments`` counts segments of the component whose two
    endpoints both touch arcs.
    """

    component: int
    n_incident: int
    m_segments: int

    @property
    def type_tag(self) -> str:
        if (self.n_incident, self.m_segments) == (1, 0):
            return "type0"
        if (self.n_incident, self.m_segments) == (1, 1):
            return "type1"
        return "other"


class TriangulatedSurface(NamedTuple):
    """A validated, immutable triangulation with its genus and Euler
    characteristic.  The last three fields are the census the formulas
    read, computed once by :func:`build_surface` from the triangles: the
    ids of the internal triangles, the number of triangles with one
    boundary side, and the boundary profiles.  Read them through
    :func:`internal_triangles`, :func:`sint_count` and
    :func:`classify_boundaries`."""

    name: str
    triangles: tuple[Triangle, ...]
    arcs: tuple[str, ...]
    boundary_segments: tuple[str, ...]
    marked_points: tuple[str, ...]
    boundary_components: tuple[BoundaryComponent, ...]
    genus: int
    euler_char: int
    internal: frozenset[int]
    sint: int
    profiles: tuple[BoundaryProfile, ...]


def _label_sorted(labels) -> list:
    """Labels by length, then alphabetically: "t2" sorts before "t10"."""
    return sorted(sorted(labels), key=len)


def build_surface(data: TriangulationInput) -> TriangulatedSurface:
    """Validate a triangle gluing and derive its surface topology.

    Raises a :class:`SurfaceError` subclass describing the first problem
    found; on success every Euler / side-count identity is guaranteed.
    """
    triangles = tuple(data.triangles)
    if not triangles:
        raise SurfaceError("%s: no triangles" % data.name)

    sides = []
    arc_sides = []
    arc_ids, bnd_ids = {}, {}  # the ids of each label's occurrences, per kind
    for t_idx, tri in enumerate(triangles):
        if len(tri.sides) != 3:
            raise SurfaceError("triangle %d does not have three sides" % t_idx)
        for side in tri.sides:
            if side.kind not in (ARC, BOUNDARY):
                raise SurfaceError(
                    "triangle %d: unknown side kind %r" % (t_idx, side.kind))
            if not side.label or not side.src or not side.dst:
                raise SurfaceError(
                    "triangle %d: empty label or vertex name" % t_idx)
            (arc_ids if side.kind == ARC else bnd_ids).setdefault(
                side.label, []).append(len(sides))
            sides.append(side)
        s0, s1, s2 = tri.sides
        for here, after in ((s0, s1), (s1, s2), (s2, s0)):
            if here.dst != after.src:
                raise CornerInconsistency(
                    "triangle %d: side %r ends at %r but side %r starts at %r"
                    % (t_idx, here.label, here.dst, after.label, after.src))
        arc_sides.append((s0.kind == ARC) + (s1.kind == ARC) + (s2.kind == ARC))

    arc_labels = _label_sorted(arc_ids)
    bnd_labels = _label_sorted(bnd_ids)
    overlap = arc_ids.keys() & bnd_ids.keys()
    if overlap:
        raise NonManifoldGluing(
            "labels used both as arc and as boundary: %s" % sorted(overlap))

    other = [-1] * len(sides)
    for lbl in arc_labels:
        ids = arc_ids[lbl]
        if len(ids) != 2:
            raise NonManifoldGluing(
                "arc %r occurs %d time(s), expected exactly 2" % (lbl, len(ids)))
        i, j = ids
        a, b = sides[i], sides[j]
        if not (a.src == b.dst and a.dst == b.src):
            raise OrientationMismatch(
                "arc %r glued without reversing direction: %s->%s and %s->%s"
                % (lbl, a.src, a.dst, b.src, b.dst))
        other[i], other[j] = j, i
    for lbl in bnd_labels:
        if len(bnd_ids[lbl]) != 1:
            raise NonManifoldGluing(
                "boundary segment %r occurs %d time(s), expected exactly 1"
                % (lbl, len(bnd_ids[lbl])))

    if not arc_labels:
        raise UnsupportedSurface(
            "%s: surface has no arcs; the associated quiver would be empty"
            % data.name)
    if 0 in arc_sides:
        raise UnsupportedSurface(
            "triangle %d has three boundary sides" % arc_sides.index(0))

    # boundary labels occur once each, so these are in id order
    boundary = [ids[0] for ids in bnd_ids.values()]
    fans, leaving = _vertex_fans(sides, other, boundary)
    _check_connected(other)

    components = _boundary_components(sides, boundary, leaving)
    marked_points = _label_sorted(fans)

    V = len(marked_points)
    E = len(arc_labels) + len(bnd_labels)
    F = len(triangles)
    euler = V - E + F
    b = len(components)
    two_genus = 2 - b - euler
    if two_genus < 0 or two_genus % 2 != 0:
        raise NonIntegerGenus(
            "V-E+F = %d with %d boundary component(s) does not give an "
            "oriented surface" % (euler, b))
    genus = two_genus // 2

    # Identities forced by the construction; failure means a bug here.
    assert 3 * F == 2 * len(arc_labels) + len(bnd_labels)
    assert len(arc_labels) == 6 * genus + 3 * b + V - 6

    return TriangulatedSurface(
        name=data.name,
        triangles=triangles,
        arcs=tuple(arc_labels),
        boundary_segments=tuple(bnd_labels),
        marked_points=tuple(marked_points),
        boundary_components=components,
        genus=genus,
        euler_char=euler,
        internal=frozenset(i for i, count in enumerate(arc_sides) if count == 3),
        sint=arc_sides.count(2),
        profiles=_boundary_profiles(components, fans),
    )


def _vertex_fans(sides, other, boundary):
    """Walk the corner fan around every vertex; return, per marked point,
    whether an arc ends there, and separately the id of the boundary
    segment leaving it.  ``boundary`` lists the boundary ids.

    Side id ``c`` also names the corner at the head of ``sides[c]``, between
    that side (in) and the next side of its triangle (out, id ``c + 1``, or
    ``c - 2`` when ``c % 3 == 2``).  Crossing an arc moves to the corner
    ``other[out]``, whose in side is the arc's other occurrence.  At each
    vertex the corners must form one open chain bounded by boundary
    segments on both ends: a closed cycle is an interior vertex (a
    puncture), several chains are a pinched vertex or a reused point name.
    The chain's last out side is the one boundary segment leaving the
    point, and an arc ends there exactly when the chain has more than one
    corner: a single corner has boundary on both sides, and a longer chain
    leaves its first corner through an arc.
    """
    corners, start, wedges = {}, {}, {}
    for side in sides:
        corners[side.dst] = corners.get(side.dst, 0) + 1
    for c in boundary:
        vertex = sides[c].dst
        wedges[vertex] = wedges.get(vertex, 0) + 1
        start.setdefault(vertex, c)

    seen = bytearray(len(sides))
    fans, leaving = {}, {}
    for vertex, count in corners.items():
        if vertex not in start:
            raise UnsupportedSurface(
                "marked point %r is interior (a puncture)" % vertex)
        if wedges[vertex] > 1:
            raise NonManifoldGluing(
                "marked point %r has %d boundary wedges" % (vertex, wedges[vertex]))
        c, walked = start[vertex], 0
        while c >= 0:  # until the out side is a boundary segment
            if seen[c]:
                raise NonManifoldGluing(
                    "corner walk at %r revisits a corner" % vertex)
            seen[c] = 1
            walked += 1
            out = c - 2 if c % 3 == 2 else c + 1
            c = other[out]
        if walked != count:
            raise NonManifoldGluing(
                "marked point %r: %d corner(s) unreachable from its boundary "
                "wedge (puncture or pinch)" % (vertex, count - walked))
        fans[vertex] = walked > 1
        leaving[vertex] = out
    return fans, leaving


def _check_connected(other):
    reached, stack = {0}, [0]
    while stack:
        t_idx = stack.pop()
        for c in other[3 * t_idx:3 * t_idx + 3]:
            if c >= 0 and c // 3 not in reached:
                reached.add(c // 3)
                stack.append(c // 3)
    if len(reached) != len(other) // 3:
        raise DisconnectedSurface(
            "only %d of %d triangles are connected to triangle 0"
            % (len(reached), len(other) // 3))


def _boundary_components(sides, boundary, leaving) -> tuple[BoundaryComponent, ...]:
    """Chain boundary segments dst -> src into cyclic components, starting
    each at its first segment in id order.

    The ccw triangle convention orients each boundary segment with the
    surface on its left, so the successor of a segment is the boundary
    segment leaving the point where it ends: ``leaving`` holds its id.
    """
    components = []
    done = bytearray(len(sides))
    for first in boundary:
        if done[first]:
            continue
        chain, c = [], first
        while not done[c]:
            done[c] = 1
            chain.append(sides[c])
            c = leaving[sides[c].dst]
        components.append(BoundaryComponent(tuple(s.src for s in chain),
                                            tuple(s.label for s in chain)))
    return tuple(components)


def internal_triangles(surface: TriangulatedSurface) -> frozenset[int]:
    """Ids of triangles whose three sides are all arcs."""
    return surface.internal


def sint_count(surface: TriangulatedSurface) -> int:
    """Number of triangles with exactly one boundary side.

    Each such triangle has two arc sides and contributes exactly one arrow
    to the quiver, which is what ties this count to the arrow total
    ``3*|internal| + sint``.
    """
    return surface.sint


def classify_boundaries(surface: TriangulatedSurface) -> tuple[BoundaryProfile, ...]:
    """Profile every boundary component by its arc incidence.

    The pair ``(n_incident, m_segments)`` is the component's contribution to
    the derived invariant; ``(1, 0)`` and ``(1, 1)`` are the two shapes that
    correct HH^0 and HH^1.
    """
    return surface.profiles


def _boundary_profiles(components, fans) -> tuple[BoundaryProfile, ...]:
    """Count per component the points an arc ends at (read from their fans)
    and the segments between two such points."""
    profiles = []
    for idx, comp in enumerate(components):
        incident = [fans[p] for p in comp.points]
        m_seg = sum(1 for i in range(len(incident)) if incident[i - 1] and incident[i])
        profiles.append(BoundaryProfile(idx, sum(incident), m_seg))
    return tuple(profiles)


def boundary_type_counts(profiles) -> tuple[int, int]:
    """Numbers of type-0 ((1,0)) and type-1 ((1,1)) boundary profiles."""
    tags = [p.type_tag for p in profiles]
    return tags.count("type0"), tags.count("type1")
