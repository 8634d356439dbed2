"""Quivers with cubic potential from triangulations, and their path bases.

The quiver has one vertex per arc.  Inside each triangle, every pair of
ccw-consecutive arc sides contributes one arrow from the first arc to the
second, so an internal triangle yields an oriented 3-cycle and a triangle
with one boundary side yields a single arrow.  The potential is the sum of
the internal-triangle 3-cycles; its cyclic derivatives are exactly the
length-two subpaths of those cycles, which generate the relation ideal.

Paths grow one way, a level at a time: :func:`_extend` follows each path
by the successors of its last arrow.  Over the relation successors it
grows the zero-path levels AP_n, over the relation-free ones the path
basis, and the first basis path to repeat an arrow decides finiteness.
"""

from functools import cached_property
from typing import NamedTuple

from .surface import ARC, TriangulatedSurface, internal_triangles, sint_count


class GentlenessViolation(Exception):
    """A surface-built presentation failed the gentleness checks.

    This cannot happen for a validated surface; it signals a construction
    bug and aborts the build.
    """


class InfiniteDimensionalError(Exception):
    """The presentation admits a relation-free cycle, so the path algebra
    modulo relations is infinite dimensional."""


class Arrow(NamedTuple):
    idx: int
    source: int
    target: int


class Path(NamedTuple):
    """A path in the quiver: a source vertex and a tuple of arrow ids.

    The empty tuple is the trivial path at ``source``.  The basis and the
    zero-path levels list paths by (length, source, arrow ids).
    """

    source: int
    arrows: tuple[int, ...]


class Quiver:
    """Vertices and arrows, with the adjacency in arrow-id order built once
    at construction."""

    __slots__ = ("vertices", "arrows", "_outgoing", "_incoming")

    def __init__(self, vertices: tuple[str, ...], arrows: tuple[Arrow, ...]):
        self.vertices = vertices
        self.arrows = arrows
        self._outgoing, self._incoming = {}, {}
        for a in arrows:
            self._outgoing.setdefault(a.source, []).append(a)
            self._incoming.setdefault(a.target, []).append(a)

    def outgoing(self, vertex: int) -> list[Arrow]:
        return list(self._outgoing.get(vertex, ()))

    def incoming(self, vertex: int) -> list[Arrow]:
        return list(self._incoming.get(vertex, ()))

    def arrow_name(self, idx: int) -> str:
        a = self.arrows[idx]
        return "%s->%s" % (self.vertices[a.source], self.vertices[a.target])


class Violation(NamedTuple):
    condition: str
    message: str


class Neighbours(NamedTuple):
    """The arrows composable with one arrow, in adjacency order, split by
    whether the length-two composite is a relation."""

    rel_before: tuple[int, ...]
    free_before: tuple[int, ...]
    rel_after: tuple[int, ...]
    free_after: tuple[int, ...]


class GentlePresentation:
    """A bound quiver (Q, I) with quadratic monomial relations.

    ``relations`` is the set of forbidden length-two arrow pairs; the path
    basis is every path containing none of them.  ``neighbours``, built at
    construction, lists per arrow id the arrows before and after it, split
    by whether they compose with it into a relation; gentleness, the basis,
    the zero paths, the 3-cycle turns and :meth:`annihilated` all read it.
    Cached on first use: the zero-path levels (AP_n extended from
    AP_{n-1}), ``basis``, ``parallel`` (the basis paths by (source,
    target), in basis order), the parallel-pair levels and ``periodic``
    (whether the levels repeat under :meth:`shift`).  ``complexes`` and
    ``rr_counts``, keyed by nmax, hold what :func:`cochain.build_complex`
    and :func:`pairs.hh_dims_rr` derive from it, each checked once when
    built.  Nothing cached holds a characteristic, so one presentation
    serves every characteristic; it changes only by filling these caches.
    """

    def __init__(self, quiver: Quiver, potential_cycles=(), relations=frozenset()):
        self.quiver = quiver
        self.potential_cycles = tuple(potential_cycles)
        self.relations = relations = frozenset(relations)
        for first, second in relations:
            a, b = quiver.arrows[first], quiver.arrows[second]
            if a.target != b.source:
                raise ValueError("relation %d,%d is not a composable pair" % (first, second))
        self._zero_paths = []
        self._parallel_pairs = []
        self.complexes = {}
        self.rr_counts = {}
        self.loops = tuple(a for a in quiver.arrows if a.source == a.target)
        self.relation_midpoints = frozenset(
            quiver.arrows[first].target for first, _ in relations)
        self._isolated = frozenset(
            v for v in range(len(quiver.vertices))
            if not quiver.incoming(v) and not quiver.outgoing(v))
        table = []
        for a in quiver.arrows:
            before = [b.idx for b in quiver.incoming(a.source)]
            after = [b.idx for b in quiver.outgoing(a.target)]
            table.append(Neighbours(
                tuple(b for b in before if (b, a.idx) in relations),
                tuple(b for b in before if (b, a.idx) not in relations),
                tuple(b for b in after if (a.idx, b) in relations),
                tuple(b for b in after if (a.idx, b) not in relations)))
        self.neighbours = tuple(table)

        # a -> (a, b, c) when b is the only relation successor of a, c the
        # only one of b and a the only one of c: one turn of a relation 3-cycle
        def single(a):
            after = () if a is None else table[a].rel_after
            return after[0] if len(after) == 1 else None

        self._turns = {}
        for a in range(len(table)):
            b = single(a)
            c = single(b)
            if single(c) == a:
                self._turns[a] = (a, b, c)

    def annihilated(self, gamma: Path) -> bool:
        """Whether every arrow composable with gamma, on either side, meets
        it in a relation; a trivial path is annihilated when no arrow
        starts or ends at its vertex."""
        if not gamma.arrows:
            return gamma.source in self._isolated
        return (not self.neighbours[gamma.arrows[0]].free_before
                and not self.neighbours[gamma.arrows[-1]].free_after)

    def path_target(self, path: Path) -> int:
        if not path.arrows:
            return path.source
        return self.quiver.arrows[path.arrows[-1]].target

    @cached_property
    def basis(self) -> tuple[Path, ...]:
        return tuple(enumerate_basis(self))

    @cached_property
    def parallel(self) -> dict:
        """(source, target) -> tuple of the basis paths with those ends."""
        index = {}
        for gamma in self.basis:
            index.setdefault((gamma.source, self.path_target(gamma)), []).append(gamma)
        return {ends: tuple(paths) for ends, paths in index.items()}

    def zero_paths(self, n: int) -> tuple[Path, ...]:
        """AP_n in path order: trivial paths, arrows, then chains of n arrows
        in which every consecutive pair is a relation (extended from AP_{n-1})."""
        if n < 0:
            raise ValueError("degree must be nonnegative")
        levels = self._zero_paths
        if not levels:
            levels.append(tuple(Path(v, ()) for v in range(len(self.quiver.vertices))))
            levels.append(tuple(sorted(Path(a.source, (a.idx,)) for a in self.quiver.arrows)))
        while len(levels) <= n:
            levels.append(_extend(levels[-1], [nb.rel_after for nb in self.neighbours]))
        return levels[n]

    def parallel_pairs(self, n: int) -> tuple[tuple[Path, Path], ...]:
        """Each degree-n zero path with each of its parallel basis paths, in
        the order of AP_n and then of the basis: the degree-n pairs of both
        the rr families and the cochain basis.  May raise
        :class:`InfiniteDimensionalError` from the basis."""
        levels = self._parallel_pairs
        while len(levels) <= n:
            parallel = self.parallel
            levels.append(tuple(
                (rho, gamma) for rho in self.zero_paths(len(levels))
                for gamma in parallel.get((rho.source, self.path_target(rho)), ())))
        return levels[n]

    def shift(self, rho: Path) -> Path:
        """The zero path rho with one more full turn around the relation
        3-cycle a -> b -> c of its first arrow a, inserted in front: a b ...
        becomes a b c a b ...  The first arrow, the last arrow, the source
        and the target stay, so the parallel basis paths stay too."""
        return Path(rho.source, self._turns[rho.arrows[0]] + rho.arrows)

    @cached_property
    def periodic(self) -> bool:
        """Whether AP_{n+3} is AP_n shifted, position for position, for every
        n >= 2; checked once, on AP_5 against AP_2.

        One check covers every degree by induction: AP_{n+1} is AP_n
        extended by the arrows b with (last arrow, b) a relation, so it
        depends on AP_n only through last arrows, and the shift keeps the
        last arrow and both endpoints, commutes with appending an arrow and
        keeps the path order.  A chain of AP_n, n >= 2, starts with a chain
        of AP_2, so every first arrow has its turn.  A loop a with the
        relation (a, a) is its own turn (a, a, a): the shift inserts a a a
        in front, which keeps the first and last arrow and both endpoints
        just as a turn around a 3-cycle does.
        """
        low = self.zero_paths(2)
        return (all(rho.arrows[0] in self._turns for rho in low)
                and self.zero_paths(5) == tuple(self.shift(rho) for rho in low))

    def dimension(self) -> int:
        return len(self.basis)


# (surface, presentation) of the last build_quiver call, or None
_last_built = None


def build_quiver(surface: TriangulatedSurface) -> GentlePresentation:
    """Build the bound quiver of a triangulated surface.

    Arrows are created scanning triangles in input order and side positions
    in ccw order, so ids are reproducible.  Gentleness is verified and a
    failure aborts: a validated surface can never produce one.

    The presentation of the last call is returned again, caches and all,
    when the same surface object comes back, so the analyses of one
    surface at several characteristics share everything that does not
    depend on the characteristic.  The key is identity, not equality: a
    surface is immutable and a presentation changes only by filling its
    caches, so sharing is safe, and an equal surface loaded separately
    gets a fresh presentation.  The previous entry is dropped before a
    new build, so at most one presentation is kept.
    """
    global _last_built
    if _last_built is not None and _last_built[0] is surface:
        return _last_built[1]
    _last_built = None
    presentation = _build_presentation(surface)
    _last_built = (surface, presentation)
    return presentation


def _build_presentation(surface: TriangulatedSurface) -> GentlePresentation:
    vertices = surface.arcs
    index = {label: i for i, label in enumerate(vertices)}

    arrows = []
    cycles = []
    internal = internal_triangles(surface)
    for t_idx, tri in enumerate(surface.triangles):
        created = {}
        for pos in range(3):
            here, after = tri.sides[pos], tri.sides[(pos + 1) % 3]
            if here.kind == ARC and after.kind == ARC:
                arrow = Arrow(len(arrows), index[here.label], index[after.label])
                arrows.append(arrow)
                created[pos] = arrow.idx
        if t_idx in internal:
            # ccw 3-cycle: side0->side1, side1->side2, side2->side0
            cycles.append((created[0], created[1], created[2]))

    quiver = Quiver(vertices=tuple(vertices), arrows=tuple(arrows))
    relations = set()
    for c0, c1, c2 in cycles:
        relations.update([(c0, c1), (c1, c2), (c2, c0)])

    presentation = GentlePresentation(quiver, cycles, relations)

    problems = []
    for arrow in arrows:
        if arrow.source == arrow.target:
            problems.append("loop at %s" % quiver.vertices[arrow.source])
    seen = {(a.source, a.target) for a in arrows}
    for s, t in seen:
        if s != t and (t, s) in seen:
            problems.append("2-cycle between %s and %s"
                            % (quiver.vertices[s], quiver.vertices[t]))
    violations = check_gentle(presentation)
    if problems or violations:
        raise GentlenessViolation(
            "; ".join(problems + [v.message for v in violations]))

    assert len(arrows) == 3 * len(internal) + sint_count(surface)
    return presentation


def check_gentle(presentation: GentlePresentation) -> list[Violation]:
    """Check conditions G1-G4 and return the violations (empty means gentle).

    G1: at most two arrows start and at most two stop at each vertex.
    G2: relations are paths of length two (structural for this type).
    G3: each arrow extends to a relation in at most one way on each side.
    G4: same with relation-free compositions.
    """
    quiver = presentation.quiver
    violations = []
    for v in range(len(quiver.vertices)):
        for direction, arrows in (("outgoing", quiver.outgoing(v)),
                                  ("incoming", quiver.incoming(v))):
            if len(arrows) > 2:
                violations.append(Violation(
                    "G1", "vertex %s has %d %s arrows: %s"
                    % (quiver.vertices[v], len(arrows), direction,
                       [quiver.arrow_name(a.idx) for a in arrows])))
    for idx, neighbours in enumerate(presentation.neighbours):
        for condition, found, what in (
                ("G3", neighbours.rel_before, "relations ending in it"),
                ("G3", neighbours.rel_after, "relations starting with it"),
                ("G4", neighbours.free_before, "relation-free extensions on the left"),
                ("G4", neighbours.free_after, "relation-free extensions on the right")):
            if len(found) > 1:
                violations.append(Violation(
                    condition, "arrow %s has %d %s"
                    % (quiver.arrow_name(idx), len(found), what)))
    return violations


def _extend(level, successors) -> tuple[Path, ...]:
    """Every path of ``level`` followed by each successor of its last arrow
    (``successors`` is indexed by arrow id), in path order: the paths of
    one level have one length, so plain tuple order is path order."""
    return tuple(sorted(Path(p.source, p.arrows + (b,))
                        for p in level for b in successors[p.arrows[-1]]))


def enumerate_basis(presentation: GentlePresentation) -> list[Path]:
    """All paths containing no relation, in (length, source, arrows) order.

    The trivial paths and the arrows (AP_0 and AP_1) are the first two
    levels; each next level is the last one extended by the relation-free
    successors of its last arrows.  Finiteness is decided in that loop, at
    the first repeated arrow: a new basis path that ends in an arrow it
    already contains raises :class:`InfiniteDimensionalError` naming that
    arrow, because the stretch between the two copies is a relation-free
    cycle, which gives basis paths of every length.  Conversely a
    relation-free cycle makes some basis path of at most |Q1| + 1 arrows
    repeat its last arrow, so without one the levels run out.

    Under G4 a level holds at most |Q1| paths, so the basis costs
    O(|Q1|^3); without G4 a level can grow as the out-degree to the power
    of its length, but a cycle is still caught at the level where it first
    closes.  :func:`build_quiver` builds gentle presentations of valid
    surfaces, which are always finite.
    """
    free_after = [nb.free_after for nb in presentation.neighbours]
    basis = list(presentation.zero_paths(0))
    level = presentation.zero_paths(1)
    while level:
        basis.extend(level)
        level = _extend(level, free_after)
        for path in level:
            last = path.arrows[-1]
            if path.arrows.index(last) != len(path.arrows) - 1:
                raise InfiniteDimensionalError(
                    "relation-free cycle through arrow %s"
                    % presentation.quiver.arrow_name(last))
    return basis
