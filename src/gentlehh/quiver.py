"""Quivers with cubic potential from triangulations, and their path bases.

The quiver has one vertex per arc.  Inside each triangle, every pair of
ccw-consecutive arc sides contributes one arrow from the first arc to the
second, so an internal triangle yields an oriented 3-cycle and a triangle
with one boundary side yields a single arrow.  The potential is the sum of
the internal-triangle 3-cycles; its cyclic derivatives are exactly the
length-two subpaths of those cycles, which generate the relation ideal.
"""

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

    The empty tuple is the trivial path at ``source``.  Paths order by
    (length, source, arrow ids), which is the order used everywhere.
    """

    source: int
    arrows: tuple[int, ...]

    def sort_key(self):
        return (len(self.arrows), self.source, self.arrows)


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


class GentlePresentation:
    """A bound quiver (Q, I) with quadratic monomial relations.

    ``relations`` is the set of forbidden length-two arrow pairs; the path
    basis is every path containing none of them, enumerated lazily.  More
    caches live and die with the presentation: the zero-path levels (AP_n
    is extended from AP_{n-1} when first asked for), ``parallel``, the
    basis paths indexed by (source, target) in basis order, and
    ``periodic``, whether the levels repeat under :meth:`shift`.  What no
    degree changes is computed at construction: the loops, the middle
    vertices of relations, the arrows :meth:`annihilated` reads, and the
    relation 3-cycles :meth:`shift` turns around.
    """

    def __init__(self, quiver: Quiver, potential_cycles=(), relations=frozenset()):
        self.quiver = quiver
        self.potential_cycles = tuple(potential_cycles)
        self.relations = frozenset(relations)
        for first, second in self.relations:
            a, b = quiver.arrows[first], quiver.arrows[second]
            if a.target != b.source:
                raise ValueError("relation %d,%d is not a composable pair" % (first, second))
        self._basis = self._parallel = self._periodic = None
        self._zero_paths = []
        self.loops = tuple(a for a in quiver.arrows if a.source == a.target)
        self.relation_midpoints = frozenset(
            quiver.arrows[first].target for first, _ in self.relations)
        # arrows every arrow composing into them (left) or out of them
        # (right) meets in a relation, and the vertices without arrows
        self._left_closed = frozenset(
            a.idx for a in quiver.arrows
            if all((b.idx, a.idx) in self.relations for b in quiver.incoming(a.source)))
        self._right_closed = frozenset(
            a.idx for a in quiver.arrows
            if all((a.idx, b.idx) in self.relations for b in quiver.outgoing(a.target)))
        self._isolated = frozenset(
            v for v in range(len(quiver.vertices))
            if not quiver.incoming(v) and not quiver.outgoing(v))
        # arrow -> the arrows it composes with to a relation
        self._after = after = {}
        for first, second in self.relations:
            after.setdefault(first, []).append(second)

        # a -> (a, b, c) when b is the only relation successor of a, c the
        # only one of b and a the only one of c: one turn of a relation 3-cycle
        def single(a):
            return after[a][0] if len(after.get(a, ())) == 1 else None

        self._turns = {}
        for a in after:
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
        return gamma.arrows[0] in self._left_closed and gamma.arrows[-1] in self._right_closed

    def path_target(self, path: Path) -> int:
        if not path.arrows:
            return path.source
        return self.quiver.arrows[path.arrows[-1]].target

    @property
    def basis(self) -> tuple[Path, ...]:
        if self._basis is None:
            self._basis = tuple(enumerate_basis(self))
        return self._basis

    @property
    def parallel(self) -> dict:
        """(source, target) -> tuple of the basis paths with those ends."""
        if self._parallel is None:
            index = {}
            for gamma in self.basis:
                index.setdefault((gamma.source, self.path_target(gamma)), []).append(gamma)
            self._parallel = {ends: tuple(paths) for ends, paths in index.items()}
        return self._parallel

    def zero_paths(self, n: int) -> tuple[Path, ...]:
        """AP_n in path order: trivial paths, arrows, then chains of n arrows
        in which every consecutive pair is a relation (extended from AP_{n-1})."""
        if n < 0:
            raise ValueError("degree must be nonnegative")
        levels = self._zero_paths
        if not levels:
            levels.append(tuple(Path(v, ()) for v in range(len(self.quiver.vertices))))
            levels.append(tuple(sorted(Path(a.source, (a.idx,)) for a in self.quiver.arrows)))
        # paths of one length sort as tuples (source, arrows), which is path order
        while len(levels) <= n:
            levels.append(tuple(sorted(
                Path(p.source, p.arrows + (b,)) for p in levels[-1]
                for b in self._after.get(p.arrows[-1], ()))))
        return levels[n]

    def shift(self, rho: Path) -> Path:
        """The zero path rho with one more full turn around the relation
        3-cycle a -> b -> c of its first arrow a, inserted in front: a b ...
        becomes a b c a b ...  The first arrow, the last arrow, the source
        and the target stay, so the parallel basis paths stay too."""
        return Path(rho.source, self._turns[rho.arrows[0]] + rho.arrows)

    @property
    def periodic(self) -> bool:
        """Whether AP_{n+3} is AP_n shifted, position for position, for every
        n >= 2; checked once, on AP_5 against AP_2.

        One check covers every degree by induction: AP_{n+1} is AP_n
        extended by the arrows b with (last arrow, b) a relation, so it
        depends on AP_n only through last arrows, and the shift keeps the
        last arrow and both endpoints, commutes with appending an arrow and
        keeps the path order.  A chain of AP_n, n >= 2, starts with a chain
        of AP_2, so every first arrow has its turn.
        """
        if self._periodic is None:
            low = self.zero_paths(2)
            self._periodic = (
                all(rho.arrows[0] in self._turns for rho in low)
                and self.zero_paths(5) == tuple(self.shift(rho) for rho in low))
        return self._periodic

    def dimension(self) -> int:
        return len(self.basis)


def build_quiver(surface: TriangulatedSurface) -> GentlePresentation:
    """Build the bound quiver of a triangulated surface.

    Arrows are created scanning triangles in input order and side positions
    in ccw order, so ids are reproducible.  Gentleness is verified and a
    failure aborts: a validated surface can never produce one.
    """
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
    relations = presentation.relations
    violations = []

    for v in range(len(quiver.vertices)):
        outs = quiver.outgoing(v)
        ins = quiver.incoming(v)
        if len(outs) > 2:
            violations.append(Violation(
                "G1", "vertex %s has %d outgoing arrows: %s"
                % (quiver.vertices[v], len(outs),
                   [quiver.arrow_name(a.idx) for a in outs])))
        if len(ins) > 2:
            violations.append(Violation(
                "G1", "vertex %s has %d incoming arrows: %s"
                % (quiver.vertices[v], len(ins),
                   [quiver.arrow_name(a.idx) for a in ins])))

    for beta in quiver.arrows:
        before = [a.idx for a in quiver.incoming(beta.source)]
        after = [a.idx for a in quiver.outgoing(beta.target)]
        rel_before = [i for i in before if (i, beta.idx) in relations]
        rel_after = [i for i in after if (beta.idx, i) in relations]
        free_before = [i for i in before if (i, beta.idx) not in relations]
        free_after = [i for i in after if (beta.idx, i) not in relations]
        name = quiver.arrow_name(beta.idx)
        if len(rel_before) > 1:
            violations.append(Violation(
                "G3", "arrow %s has %d relations ending in it" % (name, len(rel_before))))
        if len(rel_after) > 1:
            violations.append(Violation(
                "G3", "arrow %s has %d relations starting with it" % (name, len(rel_after))))
        if len(free_before) > 1:
            violations.append(Violation(
                "G4", "arrow %s has %d relation-free extensions on the left"
                % (name, len(free_before))))
        if len(free_after) > 1:
            violations.append(Violation(
                "G4", "arrow %s has %d relation-free extensions on the right"
                % (name, len(free_after))))
    return violations


def enumerate_basis(presentation: GentlePresentation) -> list[Path]:
    """All paths containing no relation, in (length, source, arrows) order.

    Finiteness is decided first: a cycle in the arrow-composition graph
    restricted to relation-free pairs would make the algebra infinite
    dimensional.  The length cap is a backstop and should be unreachable.
    """
    quiver = presentation.quiver
    relations = presentation.relations

    successors = {
        a.idx: [b.idx for b in quiver.outgoing(a.target)
                if (a.idx, b.idx) not in relations]
        for a in quiver.arrows
    }
    _reject_relation_free_cycles(quiver, successors)

    cap = 3 * len(quiver.arrows) + 3
    basis = [Path(v, ()) for v in range(len(quiver.vertices))]
    frontier = [Path(a.source, (a.idx,)) for a in quiver.arrows]
    frontier.sort(key=Path.sort_key)
    while frontier:
        basis.extend(frontier)
        if len(frontier[0].arrows) > cap:
            raise InfiniteDimensionalError(
                "path of length %d exceeds the cap" % len(frontier[0].arrows))
        new = [Path(p.source, p.arrows + (nxt,))
               for p in frontier for nxt in successors[p.arrows[-1]]]
        new.sort(key=Path.sort_key)
        frontier = new
    return basis


def _reject_relation_free_cycles(quiver, successors):
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {a.idx: WHITE for a in quiver.arrows}
    for start in color:
        if color[start] != WHITE:
            continue
        stack = [(start, iter(successors[start]))]
        color[start] = GRAY
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color[nxt] == GRAY:
                    raise InfiniteDimensionalError(
                        "relation-free cycle through arrow %s"
                        % quiver.arrow_name(nxt))
                if color[nxt] == WHITE:
                    color[nxt] = GRAY
                    stack.append((nxt, iter(successors[nxt])))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
