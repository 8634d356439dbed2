"""Degree-n zero paths, parallel-pair families, and the pair-counting
formula for Hochschild dimensions of a gentle presentation.

The families are enumerated exactly: each zero path finds its parallel
basis paths in the presentation's (source, target) index, and every
family is a filter of those pairs by its defining predicate.  The tests
check equality with brute-force scans, since the closed geometric formulas
elsewhere are validated against these counts.

Coinvariant dimensions are counted as rotation orbits, since rotation
permutes the cyclic pairs: the rr method does no linear algebra.

Only one verified period of degrees is enumerated.  When the zero paths
repeat (``GentlePresentation.periodic``: AP_{n+3} is AP_n with one more
turn in front of each chain, for n >= 2), the shift is a bijection from
the degree-n pairs onto the degree-(n+3) pairs that keeps the first and
the last arrow of rho, both endpoints and the basis path, which is all
the zero_zero, empty_incomplete, complete and complete0 predicates read;
on a complete chain it also commutes with rotation, so the orbits match
too.  :func:`hh_dims_rr` then enumerates degrees 0..5, checks the counts
of degree 5 against degree 2, and repeats degrees 3..5 with period 3.
"""

from typing import NamedTuple

# unused here, but bench/tracer.py wraps gentlehh.pairs.rank by name
from .linalg import check_characteristic, rank  # noqa: F401
from .quiver import GentlePresentation, Path


class HHTable(NamedTuple):
    """Hochschild dimensions HH^0..HH^nmax and a note on how the method
    got the tail; the report keys each table by its method and carries
    the characteristic."""

    dims: tuple[int, ...]
    tail_note: str = ""


class ParallelPairFamily(NamedTuple):
    """All degree-n pair families of one presentation, for the degree n
    the caller passed to :func:`rr_sets`.

    ``ap`` is the list of degree-n zero paths (arrow chains whose
    consecutive pairs are relations), ``pairs`` the parallel pairs of a
    zero path with a basis path.  The remaining fields are the subfamilies
    feeding the dimension formula; ``set_a`` is only populated in degree 0
    and ``loop_pairs`` is degree independent.  ``gentle_orbits`` is the
    number of rotation orbits of ``gentle_complete``.
    """

    ap: tuple[Path, ...]
    pairs: tuple[tuple[Path, Path], ...]
    set_a: tuple[tuple[Path, Path], ...]
    zero_zero: tuple[tuple[Path, Path], ...]
    complete: tuple[tuple[Path, Path], ...]
    incomplete: tuple[tuple[Path, Path], ...]
    complete0: tuple[tuple[Path, Path], ...]
    gentle_complete: tuple[tuple[Path, Path], ...]
    empty_incomplete: tuple[tuple[Path, Path], ...]
    loop_pairs: tuple[tuple[Path, Path], ...]
    gentle_orbits: int


def ap_paths(presentation: GentlePresentation, n: int) -> list[Path]:
    """Degree-n generators (trivial paths, arrows, then relation chains) as a
    fresh list from the presentation's cached levels; n < 0 is a ValueError."""
    return list(presentation.zero_paths(n))


def rotate(presentation: GentlePresentation, rho: Path) -> Path:
    """The rotation action on cyclic zero paths: move the last arrow in
    front.  Only defined when the chain is a cycle."""
    last = rho.arrows[-1]
    return Path(presentation.quiver.arrows[last].source,
                (last,) + rho.arrows[:-1])


def _orbits(presentation: GentlePresentation, rhos) -> list[list[Path]]:
    """The rotation orbits of the cyclic zero paths ``rhos``, each walked
    once from its first member rho as rotate(rho), ..., rho."""
    seen = set()
    orbits = []
    for rho in rhos:
        if rho in seen:
            continue
        orbit = [rotate(presentation, rho)]
        while orbit[-1] != rho:
            assert len(orbit) < len(rho.arrows), "rotation orbit does not close"
            orbit.append(rotate(presentation, orbit[-1]))
        # rotate^n is the identity on a cycle of n arrows
        assert len(rho.arrows) % len(orbit) == 0
        seen.update(orbit)
        orbits.append(orbit)
    return orbits


def rr_sets(presentation: GentlePresentation, n: int) -> ParallelPairFamily:
    """Populate every degree-n pair family: the pairs are the
    presentation's degree-n parallel pairs, each subfamily is a predicate
    filter."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    relations = presentation.relations
    ap = ap_paths(presentation, n)
    pairs = presentation.parallel_pairs(n)

    set_a = ()
    if n == 0:
        set_a = tuple(
            (rho, gamma) for rho, gamma in pairs
            if gamma.arrows and presentation.annihilated(gamma))

    zero_zero = ()
    if n >= 1:
        zero_zero = tuple(
            (rho, gamma) for rho, gamma in pairs
            if (not gamma.arrows or gamma.arrows[0] != rho.arrows[0])
            and (not gamma.arrows or gamma.arrows[-1] != rho.arrows[-1])
            and presentation.annihilated(gamma))

    complete, incomplete, complete0, gentle_complete, empty_incomplete = (), (), (), (), ()
    gentle_orbits = 0
    if n >= 1:
        cyclic = [(rho, gamma) for rho, gamma in pairs if not gamma.arrows]
        complete = tuple(
            (rho, gamma) for rho, gamma in cyclic
            if (rho.arrows[-1], rho.arrows[0]) in relations)
        incomplete = tuple(
            (rho, gamma) for rho, gamma in cyclic
            if (rho.arrows[-1], rho.arrows[0]) not in relations)
        assert len(complete) + len(incomplete) == len(cyclic)
        # complete0: no relation meets rho's ends but the one closing it
        neighbours = presentation.neighbours
        complete0 = tuple(
            (rho, gamma) for rho, gamma in complete
            if set(neighbours[rho.arrows[0]].rel_before) <= {rho.arrows[-1]}
            and set(neighbours[rho.arrows[-1]].rel_after) <= {rho.arrows[0]})
        complete_set = {rho for rho, _ in complete}
        complete0_set = {rho for rho, _ in complete0}
        gentle = set()
        for orbit in _orbits(presentation, (rho for rho, _ in complete)):
            assert complete_set.issuperset(orbit)  # rotation maps complete to itself
            if complete0_set.issuperset(orbit):
                gentle.update(orbit)
                gentle_orbits += 1
        gentle_complete = tuple((rho, gamma) for rho, gamma in complete
                                if rho in gentle)

        empty_incomplete = tuple(
            (rho, gamma) for rho, gamma in incomplete
            if rho.source not in presentation.relation_midpoints)

    return ParallelPairFamily(
        ap=tuple(ap), pairs=pairs, set_a=set_a,
        zero_zero=zero_zero, complete=complete, incomplete=incomplete,
        complete0=complete0, gentle_complete=gentle_complete,
        empty_incomplete=empty_incomplete,
        loop_pairs=tuple((Path(a.source, (a.idx,)), Path(a.source, ()))
                         for a in presentation.loops),
        gentle_orbits=gentle_orbits)


def pair_order(presentation: GentlePresentation, pair) -> int:
    """Least k >= 1 with rotate^k fixing the cyclic pair."""
    return len(_orbits(presentation, [pair[0]])[0])


def coinvariant_dim(presentation: GentlePresentation, n: int,
                    characteristic: int = 0,
                    family: ParallelPairFamily | None = None) -> int:
    """Dimension of the rotation coinvariants of the degree-n gentle
    complete family, counted as its rotation orbits: rotation permutes the
    family, so over every field the cokernel of (1 - rotation) is free on
    the orbits, and the characteristic (validated) cannot change it.  The
    count is the one :func:`rr_sets` records in the family."""
    if n < 1:
        raise ValueError("degree must be at least 1")
    check_characteristic(characteristic)
    if family is None:
        family = rr_sets(presentation, n)
    return family.gentle_orbits


def parity_weights(characteristic: int, n: int) -> tuple[int, int]:
    """Weights of the degree-n and degree-(n-1) rotation terms of HH^n."""
    if characteristic == 2:
        return 1, 1
    return (1, 0) if n % 2 == 0 else (0, 1)


# Degrees 2..4 are one period of the rr counts; degree 5 is checked against 2.
RR_BUILT_TOP = 5


def _unreachable_vertex(quiver) -> int | None:
    """A vertex no walk along arrows, either way, reaches from vertex 0."""
    reached, frontier = {0}, [0]
    while frontier:
        v = frontier.pop()
        for a in quiver.outgoing(v) + quiver.incoming(v):
            for w in (a.source, a.target):
                if w not in reached:
                    reached.add(w)
                    frontier.append(w)
    return next((v for v in range(len(quiver.vertices)) if v not in reached), None)


class RRCounts(NamedTuple):
    """The characteristic-free counts :func:`hh_dims_rr` combines: the
    degree-0 annihilated cycle pairs, the loop pairs, and ``degrees[n]``
    for n >= 1, the zero_zero and empty_incomplete sizes and the gentle
    complete orbits of degree n; ``periodic`` when degrees past
    RR_BUILT_TOP repeat the counts three below."""

    set_a: int
    loop_pairs: int
    degrees: tuple
    periodic: bool


def _rr_counts(presentation: GentlePresentation, nmax: int) -> RRCounts:
    """The rr counts of degrees 0..nmax, built once per presentation and
    nmax, with the connectivity check and the period check; a failed
    check caches nothing."""
    if nmax in presentation.rr_counts:
        return presentation.rr_counts[nmax]
    quiver = presentation.quiver
    unreached = _unreachable_vertex(quiver)
    if unreached is not None:
        raise ValueError("rr needs a connected quiver: vertex %s is not reachable "
                         "from vertex %s"
                         % (quiver.vertices[unreached], quiver.vertices[0]))
    periodic = nmax > RR_BUILT_TOP and presentation.periodic
    families = [rr_sets(presentation, n)
                for n in range(RR_BUILT_TOP + 1 if periodic else nmax + 1)]
    degrees = [None] + [(len(f.zero_zero), len(f.empty_incomplete), f.gentle_orbits)
                        for f in families[1:]]
    if periodic:
        if degrees[RR_BUILT_TOP] != degrees[RR_BUILT_TOP - 3]:
            raise AssertionError("rr counts of degree %d differ from degree %d"
                                 % (RR_BUILT_TOP, RR_BUILT_TOP - 3))
        for n in range(RR_BUILT_TOP + 1, nmax + 1):
            degrees.append(degrees[n - 3])
    counts = presentation.rr_counts[nmax] = RRCounts(
        set_a=len(families[0].set_a), loop_pairs=len(families[1].loop_pairs),
        degrees=tuple(degrees), periodic=periodic)
    return counts


def hh_dims_rr(presentation: GentlePresentation, characteristic: int,
               nmax: int) -> HHTable:
    """Hochschild dimensions from the pair-family counts.

    Degree 0 counts the annihilated cycle pairs, degree 1 corrects the
    arrow surplus (plus the loop count in characteristic 2), and degree
    n >= 2 combines the two family counts with the parity-weighted
    coinvariant dimensions of degrees n and n-1.  When the zero paths
    repeat, degrees past RR_BUILT_TOP repeat the counts three below, and
    the tail note says so.  The formulas hold for a connected quiver only,
    so one with a vertex unreachable from vertex 0 is a ValueError.

    The counts do not depend on the characteristic: they are cached in
    ``presentation.rr_counts``, keyed by nmax, and only the weighted sum
    runs per call.  :func:`build_quiver` hands the same presentation back
    only for the same surface object, which is immutable, so the cached
    counts always belong to the quiver they are read with.
    """
    check_characteristic(characteristic)
    if nmax < 1:
        raise ValueError("nmax must be at least 1")
    counts = _rr_counts(presentation, nmax)
    degrees = counts.degrees
    quiver = presentation.quiver
    dims = [1 + counts.set_a]
    hh1 = 1 + degrees[1][0] + len(quiver.arrows) - len(quiver.vertices)
    if characteristic == 2:
        hh1 += counts.loop_pairs
    dims.append(hh1)
    for n in range(2, nmax + 1):
        a, b = parity_weights(characteristic, n)
        zero_zero, empty_incomplete, orbits = degrees[n]
        dims.append(zero_zero + empty_incomplete + a * orbits + b * degrees[n - 1][2])
    tail_note = ("degrees 0..%d enumerated, then period 3" % RR_BUILT_TOP
                 if counts.periodic else "computed degree by degree")
    return HHTable(dims=tuple(dims), tail_note=tail_note)
