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

from functools import cached_property, partial
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


# Path((source, arrows)) without the Python-level NamedTuple constructor
_path = partial(tuple.__new__, Path)


class Quiver:
    """Vertices and arrows; ``outgoing`` and ``incoming``, built once, map a
    vertex to the tuple of its arrows out, or in, in id order (if any)."""

    __slots__ = ("vertices", "arrows", "outgoing", "incoming")

    def __init__(self, vertices: tuple[str, ...], arrows: tuple[Arrow, ...]):
        self.vertices = vertices
        self.arrows = arrows
        self.outgoing, self.incoming = outgoing, incoming = {}, {}
        for a in arrows:
            outgoing[a.source] = outgoing.get(a.source, ()) + (a,)
            incoming[a.target] = incoming.get(a.target, ()) + (a,)

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
    ``loop_pairs`` pairs each loop with the trivial path at its vertex.
    Cached on first use and shared, never copied: the zero-path levels (AP_n
    extended from AP_{n-1}), ``basis``, ``parallel`` (the tuples of basis
    paths by (source, target), in basis order), the parallel-pair levels and
    ``periodic`` (whether the levels repeat under :meth:`shift`).
    ``complex`` and ``rr_counts`` keep the one build each of
    :func:`cochain.build_complex` and :func:`pairs.hh_dims_rr` for the
    largest nmax asked so far, checked when built; a larger nmax extends
    it and every smaller one reads its first degrees.  Nothing kept holds
    a characteristic or an nmax, so one presentation serves every
    characteristic; it changes only by filling these caches or replacing
    a kept build by its extension.
    """

    def __init__(self, quiver: Quiver, potential_cycles=(), relations=frozenset()):
        self.quiver = quiver
        self.potential_cycles = tuple(potential_cycles)
        self.relations = relations = frozenset(relations)
        # the neighbour lists, and so the path levels, rely on ascending ids
        if any(a.idx != i for i, a in enumerate(quiver.arrows)):
            raise ValueError("arrow ids must be the positions 0, 1, ... of the arrows")
        for first, second in relations:
            a, b = quiver.arrows[first], quiver.arrows[second]
            if a.target != b.source:
                raise ValueError("relation %d,%d is not a composable pair" % (first, second))
        self._zero_paths = []
        self._parallel_pairs = []
        self.complex = None
        self.rr_counts = None
        self.loops = tuple(a for a in quiver.arrows if a.source == a.target)
        self.loop_pairs = tuple((Path(a.source, (a.idx,)), Path(a.source, ()))
                                for a in self.loops)
        self.relation_midpoints = frozenset(
            quiver.arrows[first].target for first, _ in relations)
        outgoing, incoming = quiver.outgoing, quiver.incoming
        self._isolated = frozenset(range(len(quiver.vertices))).difference(
            outgoing, incoming)
        table = []
        for a in quiver.arrows:
            rel_before, free_before, rel_after, free_after = [], [], [], []
            for b in incoming.get(a.source, ()):
                (rel_before if (b.idx, a.idx) in relations else free_before).append(b.idx)
            for b in outgoing.get(a.target, ()):
                (rel_after if (a.idx, b.idx) in relations else free_after).append(b.idx)
            table.append(Neighbours(tuple(rel_before), tuple(free_before),
                                    tuple(rel_after), tuple(free_after)))
        self.neighbours = tuple(table)
        self._rel_after = [nb.rel_after for nb in table]
        self._targets = [a.target for a in quiver.arrows]

        # a -> (a, b, c) when b is the only relation successor of a, c the
        # only one of b and a the only one of c: one turn of a relation 3-cycle
        only = [after[0] if len(after) == 1 else None for after in self._rel_after]
        self._turns = {a: (a, b, only[b]) for a, b in enumerate(only)
                       if b is not None and only[b] is not None and only[only[b]] == a}

    def annihilated(self, gamma: Path) -> bool:
        """Whether every arrow composable with gamma, on either side, meets
        it in a relation; a trivial path is annihilated when no arrow
        starts or ends at its vertex."""
        if not gamma.arrows:
            return gamma.source in self._isolated
        return (not self.neighbours[gamma.arrows[0]].free_before
                and not self.neighbours[gamma.arrows[-1]].free_after)

    def path_target(self, path: Path) -> int:
        return self._targets[path.arrows[-1]] if path.arrows else path.source

    @cached_property
    def basis(self) -> tuple[Path, ...]:
        return tuple(enumerate_basis(self))

    @cached_property
    def parallel(self) -> dict:
        """(source, target) -> the tuple of basis paths with those ends, in
        basis order."""
        # each group holds few paths: concatenating beats lists converted after
        grouped, targets = {}, self._targets
        for path in self.basis:
            ends = path.source, targets[path.arrows[-1]] if path.arrows else path.source
            grouped[ends] = grouped.get(ends, ()) + (path,)
        return grouped

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
            levels.append(_extend(levels[-1], self._rel_after))
        return levels[n]

    def parallel_pairs(self, n: int) -> tuple[tuple[Path, Path], ...]:
        """Each degree-n zero path with each of its parallel basis paths, in
        the order of AP_n and then of the basis: the degree-n pairs of both
        the rr families and the cochain basis.  May raise
        :class:`InfiniteDimensionalError` from the basis."""
        levels = self._parallel_pairs
        if len(levels) <= n:
            parallel, targets = self.parallel, self._targets
            self.zero_paths(n)
            while len(levels) <= n:
                degree, pairs = len(levels), []
                append = pairs.append
                for rho in self._zero_paths[degree]:
                    end = targets[rho.arrows[-1]] if degree else rho.source
                    for gamma in parallel.get((rho.source, end), ()):
                        append((rho, gamma))
                levels.append(tuple(pairs))
        return levels[n]

    def shift(self, rho: Path) -> Path:
        """The zero path rho with one more full turn around the relation
        3-cycle a -> b -> c of its first arrow a, inserted in front: a b ...
        becomes a b c a b ...  The first arrow, the last arrow, the source
        and the target stay, so the parallel basis paths stay too."""
        return _path((rho.source, self._turns[rho.arrows[0]] + rho.arrows))

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
        s0, s1, s2 = tri.sides
        first = len(arrows)
        for here, after in ((s0, s1), (s1, s2), (s2, s0)):
            if here.kind == ARC and after.kind == ARC:
                arrows.append(Arrow(len(arrows), index[here.label], index[after.label]))
        if t_idx in internal:
            # ccw 3-cycle, created in a row: side0->side1, side1->side2, side2->side0
            cycles.append((first, first + 1, first + 2))

    quiver = Quiver(vertices=tuple(vertices), arrows=tuple(arrows))
    relations = {pair for c0, c1, c2 in cycles for pair in ((c0, c1), (c1, c2), (c2, c0))}

    presentation = GentlePresentation(quiver, cycles, relations)

    problems = ["loop at %s" % quiver.vertices[a.source]
                for a in arrows if a.source == a.target]
    seen = {(a.source, a.target) for a in arrows}
    problems += ["2-cycle between %s and %s" % (quiver.vertices[s], quiver.vertices[t])
                 for s, t in seen if s != t and (t, s) in seen]
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
        for direction, arrows in (("outgoing", quiver.outgoing.get(v, ())),
                                  ("incoming", quiver.incoming.get(v, ()))):
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
    (``successors`` is indexed by arrow id, each list ascending, as the
    neighbour lists are), in path order when ``level`` is: paths of one
    length compare as their parents, then as their last arrows."""
    return tuple([_path((source, arrows + (b,)))
                  for source, arrows in level for b in successors[arrows[-1]]])


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
    ``GentlePresentation.parallel`` groups the result by endpoints.

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
        for path in level:
            last = path.arrows[-1]
            if path.arrows.index(last) != len(path.arrows) - 1:
                raise InfiniteDimensionalError(
                    "relation-free cycle through arrow %s"
                    % presentation.quiver.arrow_name(last))
        basis.extend(level)
        level = _extend(level, free_after)
    return basis
