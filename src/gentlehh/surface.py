"""Combinatorial triangulated surfaces with marked points on the boundary.

A surface is described by a list of triangles, each given by its three sides
in counter-clockwise order.  A side is a labelled oriented edge which is
either an ``arc`` (an interior edge, glued to its other occurrence) or a
``boundary`` segment (occurring exactly once).  All geometry the downstream
formulas consume -- genus, boundary components, internal triangles, boundary
profiles -- is derived from this gluing data alone.
"""

from dataclasses import dataclass, field


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


@dataclass(frozen=True)
class Side:
    """One oriented side of a triangle."""

    label: str
    kind: str
    src: str
    dst: str


@dataclass(frozen=True)
class Triangle:
    sides: tuple[Side, Side, Side]


@dataclass(frozen=True)
class TriangulationInput:
    """Raw, not yet validated triangle gluing data."""

    name: str
    triangles: tuple[Triangle, ...]


@dataclass(frozen=True)
class BoundaryComponent:
    """A boundary circle: ``segments[i]`` runs from ``points[i]`` to
    ``points[(i + 1) % len(points)]``."""

    points: tuple[str, ...]
    segments: tuple[str, ...]


@dataclass(frozen=True)
class BoundaryProfile:
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


@dataclass(frozen=True)
class TriangulatedSurface:
    """A validated, immutable triangulation with its genus and Euler
    characteristic; the module functions derive the other counts (internal
    triangles, boundary profiles) from the triangles on each call."""

    name: str
    triangles: tuple[Triangle, ...]
    arcs: tuple[str, ...]
    boundary_segments: tuple[str, ...]
    marked_points: tuple[str, ...]
    boundary_components: tuple[BoundaryComponent, ...]
    genus: int
    euler_char: int
    # occurrences: arc label -> the two (triangle, position) side slots
    _arc_occurrences: dict = field(repr=False, hash=False, compare=False, default_factory=dict)


def _label_key(label: str):
    # "t2" sorts before "t10"
    return (len(label), label)


def _side_count_by_kind(triangle: Triangle) -> dict:
    counts = {ARC: 0, BOUNDARY: 0}
    for side in triangle.sides:
        counts[side.kind] += 1
    return counts


def build_surface(data: TriangulationInput) -> TriangulatedSurface:
    """Validate a triangle gluing and derive its surface topology.

    Raises a :class:`SurfaceError` subclass describing the first problem
    found; on success every Euler / side-count identity is guaranteed.
    """
    triangles = tuple(data.triangles)
    if not triangles:
        raise SurfaceError("%s: no triangles" % data.name)

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
        for i in range(3):
            here, after = tri.sides[i], tri.sides[(i + 1) % 3]
            if here.dst != after.src:
                raise CornerInconsistency(
                    "triangle %d: side %r ends at %r but side %r starts at %r"
                    % (t_idx, here.label, here.dst, after.label, after.src))

    # Collect occurrences per (kind, label).
    occurrences: dict = {}
    for t_idx, tri in enumerate(triangles):
        for pos, side in enumerate(tri.sides):
            occurrences.setdefault((side.kind, side.label), []).append((t_idx, pos))

    arc_labels = sorted({lbl for (k, lbl) in occurrences if k == ARC}, key=_label_key)
    bnd_labels = sorted({lbl for (k, lbl) in occurrences if k == BOUNDARY}, key=_label_key)
    overlap = set(arc_labels) & set(bnd_labels)
    if overlap:
        raise NonManifoldGluing(
            "labels used both as arc and as boundary: %s" % sorted(overlap))

    def side_at(occ):
        t_idx, pos = occ
        return triangles[t_idx].sides[pos]

    arc_occurrences = {}
    for lbl in arc_labels:
        occs = occurrences[(ARC, lbl)]
        if len(occs) != 2:
            raise NonManifoldGluing(
                "arc %r occurs %d time(s), expected exactly 2" % (lbl, len(occs)))
        a, b = side_at(occs[0]), side_at(occs[1])
        if not (a.src == b.dst and a.dst == b.src):
            raise OrientationMismatch(
                "arc %r glued without reversing direction: %s->%s and %s->%s"
                % (lbl, a.src, a.dst, b.src, b.dst))
        arc_occurrences[lbl] = (occs[0], occs[1])
    for lbl in bnd_labels:
        occs = occurrences[(BOUNDARY, lbl)]
        if len(occs) != 1:
            raise NonManifoldGluing(
                "boundary segment %r occurs %d time(s), expected exactly 1"
                % (lbl, len(occs)))

    if not arc_labels:
        raise UnsupportedSurface(
            "%s: surface has no arcs; the associated quiver would be empty"
            % data.name)
    for t_idx, tri in enumerate(triangles):
        if _side_count_by_kind(tri)[BOUNDARY] == 3:
            raise UnsupportedSurface(
                "triangle %d has three boundary sides" % t_idx)

    _check_vertex_links(triangles, arc_occurrences)
    _check_connected(triangles, arc_occurrences)

    components = _boundary_components(triangles)

    marked_points = sorted(
        {s.src for tri in triangles for s in tri.sides}
        | {s.dst for tri in triangles for s in tri.sides},
        key=_label_key)

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
        _arc_occurrences=arc_occurrences,
    )


def _check_vertex_links(triangles, arc_occurrences):
    """Walk the corner fan around every vertex.

    A corner is identified by its incoming side slot (triangle, position):
    the corner of that triangle sitting at ``sides[pos].dst``, between
    ``sides[pos]`` (in) and ``sides[pos+1]`` (out).  Crossing an arc moves to
    the corner whose incoming slot is the arc's other occurrence.  At each
    vertex the corners must form one open chain bounded by boundary segments
    on both ends: a closed cycle is an interior vertex (a puncture), several
    chains are a pinched vertex or a reused point name.
    """
    corners_at = {}
    for t_idx, tri in enumerate(triangles):
        for pos in range(3):
            corners_at.setdefault(tri.sides[pos].dst, []).append((t_idx, pos))

    def partner(occ, label):
        first, second = arc_occurrences[label]
        return second if occ == first else first

    for vertex, corners in corners_at.items():
        starts = []
        for t_idx, pos in corners:
            if triangles[t_idx].sides[pos].kind == BOUNDARY:
                starts.append((t_idx, pos))
        if not starts:
            raise UnsupportedSurface(
                "marked point %r is interior (a puncture)" % vertex)
        if len(starts) > 1:
            raise NonManifoldGluing(
                "marked point %r has %d boundary wedges" % (vertex, len(starts)))
        seen = set()
        t_idx, pos = starts[0]
        while True:
            if (t_idx, pos) in seen:
                raise NonManifoldGluing(
                    "corner walk at %r revisits a corner" % vertex)
            seen.add((t_idx, pos))
            out_pos = (pos + 1) % 3
            out_side = triangles[t_idx].sides[out_pos]
            if out_side.kind == BOUNDARY:
                break
            t_idx, pos = partner((t_idx, out_pos), out_side.label)
        if len(seen) != len(corners):
            raise NonManifoldGluing(
                "marked point %r: %d corner(s) unreachable from its boundary "
                "wedge (puncture or pinch)" % (vertex, len(corners) - len(seen)))


def _check_connected(triangles, arc_occurrences):
    if not triangles:
        return
    reached = {0}
    stack = [0]
    while stack:
        t_idx = stack.pop()
        for side in triangles[t_idx].sides:
            if side.kind != ARC:
                continue
            for other_t, _ in arc_occurrences[side.label]:
                if other_t not in reached:
                    reached.add(other_t)
                    stack.append(other_t)
    if len(reached) != len(triangles):
        raise DisconnectedSurface(
            "only %d of %d triangles are connected to triangle 0"
            % (len(reached), len(triangles)))


def _boundary_components(triangles) -> tuple[BoundaryComponent, ...]:
    """Chain boundary segments dst -> src into cyclic components.

    The ccw triangle convention orients each boundary segment with the
    surface on its left, so the successor of a segment is the unique
    boundary segment starting where it ends.
    """
    by_src = {}
    order = []
    for tri in triangles:
        for side in tri.sides:
            if side.kind != BOUNDARY:
                continue
            if side.src in by_src:
                raise NonManifoldGluing(
                    "two boundary segments leave marked point %r" % side.src)
            by_src[side.src] = side
            order.append(side)

    components = []
    visited = set()
    for start in order:
        if start.label in visited:
            continue
        points, segments = [], []
        side = start
        while True:
            visited.add(side.label)
            points.append(side.src)
            segments.append(side.label)
            side = by_src[side.dst]
            if side.label == start.label:
                break
        components.append(BoundaryComponent(tuple(points), tuple(segments)))
    return tuple(components)


def internal_triangles(surface: TriangulatedSurface) -> set[int]:
    """Ids of triangles whose three sides are all arcs."""
    return {i for i, tri in enumerate(surface.triangles)
            if _side_count_by_kind(tri)[ARC] == 3}


def sint_count(surface: TriangulatedSurface) -> int:
    """Number of triangles with exactly one boundary side.

    Each such triangle has two arc sides and contributes exactly one arrow
    to the quiver, which is what ties this count to the arrow total
    ``3*|internal| + sint``.
    """
    return sum(1 for tri in surface.triangles
               if _side_count_by_kind(tri)[BOUNDARY] == 1)


def arc_incident_points(surface: TriangulatedSurface) -> set[str]:
    """Marked points that are an endpoint of at least one arc."""
    points = set()
    for tri in surface.triangles:
        for side in tri.sides:
            if side.kind == ARC:
                points.add(side.src)
                points.add(side.dst)
    return points


def classify_boundaries(surface: TriangulatedSurface) -> list[BoundaryProfile]:
    """Profile every boundary component by its arc incidence.

    The pair ``(n_incident, m_segments)`` is the component's contribution to
    the derived invariant; ``(1, 0)`` and ``(1, 1)`` are the two shapes that
    correct HH^0 and HH^1.
    """
    incident = arc_incident_points(surface)
    profiles = []
    for idx, comp in enumerate(surface.boundary_components):
        n_inc = sum(1 for p in comp.points if p in incident)
        k = len(comp.points)
        m_seg = sum(
            1 for i in range(len(comp.segments))
            if comp.points[i] in incident and comp.points[(i + 1) % k] in incident)
        profiles.append(BoundaryProfile(idx, n_inc, m_seg))
    return profiles


def boundary_type_counts(profiles) -> tuple[int, int]:
    """Numbers of type-0 ((1,0)) and type-1 ((1,1)) boundary profiles."""
    tags = [p.type_tag for p in profiles]
    return tags.count("type0"), tags.count("type1")
