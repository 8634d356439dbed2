"""Degree-n zero paths, parallel-pair families, and the pair-counting
formula for Hochschild dimensions of a gentle presentation.

The families are enumerated exactly: each zero path finds its parallel
basis paths in the presentation's (source, target) index, and every
family is a filter of those pairs by its defining predicate.  The tests
check equality with brute-force scans, since the closed geometric formulas
elsewhere are validated against these counts.
"""

from dataclasses import dataclass, field

from .linalg import check_characteristic, rank
from .quiver import GentlePresentation, Path


@dataclass(frozen=True)
class HHTable:
    """Hochschild dimensions HH^0..HH^nmax over a fixed characteristic."""

    characteristic: int
    dims: tuple[int, ...]
    method: str = field(default="", compare=False)
    tail_note: str = field(default="", compare=False)

    @property
    def nmax(self) -> int:
        return len(self.dims) - 1


@dataclass(frozen=True)
class ParallelPairFamily:
    """All degree-n pair families of one presentation.

    ``ap`` is the list of degree-n zero paths (arrow chains whose
    consecutive pairs are relations), ``pairs`` the parallel pairs of a
    zero path with a basis path.  The remaining fields are the subfamilies
    feeding the dimension formula; ``set_a`` is only populated in degree 0
    and ``loop_pairs`` is degree independent.
    """

    degree: int
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


def rr_sets(presentation: GentlePresentation, n: int) -> ParallelPairFamily:
    """Populate every degree-n pair family: the pairs come from the
    (source, target) index, each subfamily is a predicate filter."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    quiver = presentation.quiver
    relations = presentation.relations
    parallel = presentation.parallel  # may raise InfiniteDimensionalError
    ap = ap_paths(presentation, n)
    pairs = tuple((rho, gamma) for rho in ap for gamma in
                  parallel.get((rho.source, presentation.path_target(rho)), ()))

    def fully_annihilated(gamma):
        # every composable arrow hits a relation on that side
        if not gamma.arrows:
            return (not quiver.incoming(gamma.source)
                    and not quiver.outgoing(gamma.source))
        first, last = gamma.arrows[0], gamma.arrows[-1]
        for b in quiver.incoming(quiver.arrows[first].source):
            if (b.idx, first) not in relations:
                return False
        for b in quiver.outgoing(quiver.arrows[last].target):
            if (last, b.idx) not in relations:
                return False
        return True

    set_a = ()
    if n == 0:
        set_a = tuple(
            (rho, gamma) for rho, gamma in pairs
            if gamma.arrows and fully_annihilated(gamma))

    zero_zero = ()
    if n >= 1:
        zero_zero = tuple(
            (rho, gamma) for rho, gamma in pairs
            if (not gamma.arrows or gamma.arrows[0] != rho.arrows[0])
            and (not gamma.arrows or gamma.arrows[-1] != rho.arrows[-1])
            and fully_annihilated(gamma))

    complete, incomplete, complete0, gentle_complete, empty_incomplete = (), (), (), (), ()
    if n >= 1:
        cyclic = [(rho, gamma) for rho, gamma in pairs if not gamma.arrows]
        complete = tuple(
            (rho, gamma) for rho, gamma in cyclic
            if (rho.arrows[-1], rho.arrows[0]) in relations)
        incomplete = tuple(
            (rho, gamma) for rho, gamma in cyclic
            if (rho.arrows[-1], rho.arrows[0]) not in relations)
        assert len(complete) + len(incomplete) == len(cyclic)

        def is_complete0(rho):
            # relations are composable: only arrows at rho's ends can matter
            first, last = rho.arrows[0], rho.arrows[-1]
            for g in quiver.incoming(quiver.arrows[first].source):
                if g.idx != last and (g.idx, first) in relations:
                    return False
            for g in quiver.outgoing(quiver.arrows[last].target):
                if g.idx != first and (last, g.idx) in relations:
                    return False
            return True

        complete0 = tuple((rho, gamma) for rho, gamma in complete
                          if is_complete0(rho))
        complete0_set = {rho for rho, _ in complete0}

        def orbit_in_complete0(rho):
            current = rho
            for _ in range(n):
                if current not in complete0_set:
                    return False
                current = rotate(presentation, current)
            assert current == rho
            return True

        gentle_complete = tuple((rho, gamma) for rho, gamma in complete
                                if orbit_in_complete0(rho))
        # closure of the rotation action on the gentle complete family
        gc_set = {rho for rho, _ in gentle_complete}
        assert all(rotate(presentation, rho) in gc_set for rho in gc_set)

        relation_midpoints = {quiver.arrows[a].target for a, _ in relations}
        empty_incomplete = tuple(
            (rho, gamma) for rho, gamma in incomplete
            if rho.source not in relation_midpoints)

    loop_pairs = tuple(
        (Path(a.source, (a.idx,)), Path(a.source, ()))
        for a in quiver.arrows if a.source == a.target)

    return ParallelPairFamily(
        degree=n, ap=tuple(ap), pairs=pairs, set_a=set_a,
        zero_zero=zero_zero, complete=complete, incomplete=incomplete,
        complete0=complete0, gentle_complete=gentle_complete,
        empty_incomplete=empty_incomplete, loop_pairs=loop_pairs)


def pair_order(presentation: GentlePresentation, pair) -> int:
    """Least k >= 1 with rotate^k fixing the cyclic pair."""
    rho, _ = pair
    current = rotate(presentation, rho)
    k = 1
    while current != rho:
        current = rotate(presentation, current)
        k += 1
    return k


def coinvariant_dim(presentation: GentlePresentation, n: int,
                    characteristic: int = 0,
                    family: ParallelPairFamily | None = None) -> int:
    """Dimension of the rotation coinvariants of the degree-n gentle
    complete family, as the cokernel of (1 - rotation) over the field."""
    if n < 1:
        raise ValueError("degree must be at least 1")
    check_characteristic(characteristic)
    if family is None:
        family = rr_sets(presentation, n)
    members = [rho for rho, _ in family.gentle_complete]
    if not members:
        return 0
    index = {rho: i for i, rho in enumerate(members)}
    # row j is column j of (1 - rotation), zero at a fixed point; a
    # transpose has the same rank
    rows = []
    for j, rho in enumerate(members):
        image = index[rotate(presentation, rho)]
        rows.append(((j, 1), (image, -1)) if image != j else ())
    return len(members) - rank(rows, characteristic)


def parity_weights(characteristic: int, n: int) -> tuple[int, int]:
    """Weights of the degree-n and degree-(n-1) rotation terms of HH^n."""
    if characteristic == 2:
        return 1, 1
    return (1, 0) if n % 2 == 0 else (0, 1)


def hh_dims_rr(presentation: GentlePresentation, characteristic: int,
               nmax: int) -> HHTable:
    """Hochschild dimensions from the pair-family counts.

    Degree 0 counts the annihilated cycle pairs, degree 1 corrects the
    arrow surplus (plus the loop count in characteristic 2), and degree
    n >= 2 combines the two family counts with the parity-weighted
    coinvariant dimensions of degrees n and n-1.
    """
    check_characteristic(characteristic)
    if nmax < 1:
        raise ValueError("nmax must be at least 1")
    families = {n: rr_sets(presentation, n) for n in range(nmax + 1)}
    coinv = {n: coinvariant_dim(presentation, n, characteristic, families[n])
             for n in range(1, nmax + 1)}
    quiver = presentation.quiver

    dims = [1 + len(families[0].set_a)]
    hh1 = 1 + len(families[1].zero_zero) + len(quiver.arrows) - len(quiver.vertices)
    if characteristic == 2:
        hh1 += len(families[1].loop_pairs)
    dims.append(hh1)
    for n in range(2, nmax + 1):
        a, b = parity_weights(characteristic, n)
        dims.append(len(families[n].zero_zero)
                    + len(families[n].empty_incomplete)
                    + a * coinv[n] + b * coinv[n - 1])
    return HHTable(characteristic=characteristic, dims=tuple(dims),
                   method="rr", tail_note="computed degree by degree")
