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

    ``ap`` is the degree-n zero paths (arrow chains whose consecutive
    pairs are relations) and ``pairs`` their parallel pairs with basis
    paths, both the presentation's cached levels.  The remaining fields
    are the subfamilies feeding the dimension formula; ``set_a`` is only
    populated in degree 0 and ``loop_pairs`` is degree independent.
    ``gentle_orbits`` is the number of rotation orbits of ``gentle_complete``.
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


def ap_paths(presentation: GentlePresentation, n: int) -> tuple[Path, ...]:
    """Degree-n generators (trivial paths, arrows, then relation chains):
    the presentation's cached level itself; n < 0 is a ValueError."""
    return presentation.zero_paths(n)


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
    presentation's degree-n parallel pairs, sorted into their subfamilies
    in one pass, so each subfamily keeps the order of the pairs."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    ap = ap_paths(presentation, n)
    pairs = presentation.parallel_pairs(n)
    annihilated = presentation.annihilated
    set_a, zero_zero, complete, incomplete, complete0, empty_incomplete = (
        [], [], [], [], [], [])
    if n == 0:
        set_a = [pair for pair in pairs if pair[1].arrows and annihilated(pair[1])]
    else:
        relations = presentation.relations
        neighbours = presentation.neighbours
        midpoints = presentation.relation_midpoints
        for pair in pairs:
            rho, gamma = pair
            first, last = rho.arrows[0], rho.arrows[-1]
            if gamma.arrows:
                if (gamma.arrows[0] != first and gamma.arrows[-1] != last
                        and annihilated(gamma)):
                    zero_zero.append(pair)
                continue
            # a cyclic pair: rho is a cycle and gamma the trivial path at its
            # vertex, which rho's arrows touch, so gamma is not annihilated
            # and the pair is not zero_zero
            if (last, first) in relations:
                complete.append(pair)
                # complete0: no relation meets rho's ends but the one closing it
                if (set(neighbours[first].rel_before) <= {last}
                        and set(neighbours[last].rel_after) <= {first}):
                    complete0.append(pair)
            else:
                incomplete.append(pair)
                if rho.source not in midpoints:
                    empty_incomplete.append(pair)

    gentle_complete = ()
    gentle_orbits = 0
    if complete:
        complete_set = {rho for rho, _ in complete}
        complete0_set = {rho for rho, _ in complete0}
        gentle = set()
        for orbit in _orbits(presentation, (rho for rho, _ in complete)):
            assert complete_set.issuperset(orbit)  # rotation maps complete to itself
            if complete0_set.issuperset(orbit):
                gentle.update(orbit)
                gentle_orbits += 1
        gentle_complete = tuple(pair for pair in complete if pair[0] in gentle)

    return ParallelPairFamily(
        ap=ap, pairs=pairs, set_a=tuple(set_a),
        zero_zero=tuple(zero_zero), complete=tuple(complete),
        incomplete=tuple(incomplete), complete0=tuple(complete0),
        gentle_complete=gentle_complete,
        empty_incomplete=tuple(empty_incomplete),
        loop_pairs=presentation.loop_pairs, gentle_orbits=gentle_orbits)


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
    """Weights of the degree-n and degree-(n-1) rotation terms of HH^n;
    they depend on n only through its parity."""
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
        for arrows in (quiver.outgoing.get(v, ()), quiver.incoming.get(v, ())):
            for a in arrows:
                for w in (a.source, a.target):
                    if w not in reached:
                        reached.add(w)
                        frontier.append(w)
    return next((v for v in range(len(quiver.vertices)) if v not in reached), None)


class RRCounts(NamedTuple):
    """The characteristic-free counts :func:`hh_dims_rr` combines, one per
    degree enumerated: ``degrees[0]`` is the number of degree-0
    annihilated cycle pairs and ``degrees[n]``, n >= 1, the zero_zero and
    empty_incomplete sizes and the gentle complete orbits of degree n;
    ``periodic`` when they stop at RR_BUILT_TOP and later degrees repeat
    the counts three below."""

    degrees: tuple
    periodic: bool


def _rr_counts(presentation: GentlePresentation, nmax: int) -> RRCounts:
    """Counts that serve nmax: of degrees 0..RR_BUILT_TOP with the period
    when nmax reaches it and the zero paths repeat, else of 0..nmax, with
    the connectivity and period checks.  The presentation keeps one
    record, like its complex (:func:`cochain.build_complex`): a larger
    nmax extends it from its last degree, and a failed check keeps it as
    it was."""
    counts = presentation.rr_counts
    if counts is not None and (counts.periodic or len(counts.degrees) > nmax):
        return counts
    periodic = nmax >= RR_BUILT_TOP and presentation.periodic
    built = RR_BUILT_TOP if periodic else nmax
    quiver = presentation.quiver
    unreached = _unreachable_vertex(quiver)
    if unreached is not None:
        raise ValueError("rr needs a connected quiver: vertex %s is not reachable "
                         "from vertex %s"
                         % (quiver.vertices[unreached], quiver.vertices[0]))
    degrees = list(counts.degrees) if counts else []
    for n in range(len(degrees), built + 1):
        f = rr_sets(presentation, n)
        degrees.append((len(f.zero_zero), len(f.empty_incomplete), f.gentle_orbits)
                       if n else len(f.set_a))
    if periodic and degrees[RR_BUILT_TOP] != degrees[RR_BUILT_TOP - 3]:
        raise AssertionError("rr counts of degree %d differ from degree %d"
                             % (RR_BUILT_TOP, RR_BUILT_TOP - 3))
    counts = presentation.rr_counts = RRCounts(degrees=tuple(degrees), periodic=periodic)
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

    The counts depend on neither the characteristic nor nmax: only the
    extension by the period and the weighted sum run per call, on the
    record ``presentation.rr_counts`` keeps.  The tail note names the
    period only past RR_BUILT_TOP, where it is read.  :func:`build_quiver`
    hands the same presentation back only for the same surface object, so
    the kept counts always belong to the quiver they are read with.
    """
    check_characteristic(characteristic)
    if nmax < 1:
        raise ValueError("nmax must be at least 1")
    counts = _rr_counts(presentation, nmax)
    degrees = list(counts.degrees)
    while len(degrees) <= nmax:
        degrees.append(degrees[-3])
    quiver = presentation.quiver
    dims = [1 + degrees[0]]
    hh1 = 1 + degrees[1][0] + len(quiver.arrows) - len(quiver.vertices)
    if characteristic == 2:
        hh1 += len(presentation.loop_pairs)
    dims.append(hh1)
    weights = parity_weights(characteristic, 0), parity_weights(characteristic, 1)
    for n in range(2, nmax + 1):
        a, b = weights[n % 2]
        zero_zero, empty_incomplete, orbits = degrees[n]
        dims.append(zero_zero + empty_incomplete + a * orbits + b * degrees[n - 1][2])
    tail_note = ("degrees 0..%d enumerated, then period 3" % RR_BUILT_TOP
                 if counts.periodic and nmax > RR_BUILT_TOP
                 else "computed degree by degree")
    return HHTable(dims=tuple(dims), tail_note=tail_note)
