"""The derived-equivalence invariant of surface algebras and the
dimension formula written in terms of it.

The invariant is a finitely supported multiset of pairs: (0,3) carries the
internal-triangle count, and each boundary component contributes the pair
(marked points incident to an arc, segments with both endpoints incident).
Matching invariants never proves derived equivalence; a mismatch disproves
it.
"""

from typing import NamedTuple

from .linalg import check_characteristic
from .pairs import HHTable, parity_weights
from .surface import TriangulatedSurface, classify_boundaries, internal_triangles


class AGInvariant(NamedTuple):
    """Support pairs (n, m) with their multiplicities, sorted."""

    support: tuple[tuple[tuple[int, int], int], ...]

    @staticmethod
    def from_counts(counts: dict) -> "AGInvariant":
        cleaned = {pair: mult for pair, mult in counts.items() if mult > 0}
        return AGInvariant(tuple(sorted(cleaned.items())))

    def multiplicity(self, n: int, m: int) -> int:
        # a short scan: (0, 3) and one pair per distinct boundary profile
        for pair, mult in self.support:
            if pair == (n, m):
                return mult
        return 0

    def as_dict(self) -> dict:
        return dict(self.support)

    def lines(self) -> list[str]:
        return ["(%d, %d): %d" % (pair[0], pair[1], mult)
                for pair, mult in self.support]


class AGComparison(NamedTuple):
    equal: bool
    witness: tuple[tuple[int, int], int, int] | None
    verdict: str


def ag_invariant(surface: TriangulatedSurface) -> AGInvariant:
    """Compute the invariant geometrically from triangle and boundary data."""
    counts: dict = {}
    int_count = len(internal_triangles(surface))
    if int_count:
        counts[(0, 3)] = int_count
    for profile in classify_boundaries(surface):
        # every boundary component of a valid surface touches an arc
        assert profile.n_incident >= 1
        pair = (profile.n_incident, profile.m_segments)
        counts[pair] = counts.get(pair, 0) + 1
    return AGInvariant.from_counts(counts)


def psi(invariant: AGInvariant, n: int) -> int:
    """Sum of the (0, d) multiplicities over the divisors d of n."""
    if n < 1:
        raise ValueError("psi is defined for n >= 1")
    return sum(mult for (first, d), mult in invariant.support
               if first == 0 and d >= 1 and n % d == 0)


def hh_dims_ladkani(invariant: AGInvariant, q0: int, q1: int,
                    characteristic: int, nmax: int) -> HHTable:
    """Hochschild dimensions from the invariant and the vertex/arrow counts.

    HH^0 = 1 + phi(1,0); HH^1 = 1 + |Q1| - |Q0| + phi(1,1), plus phi(0,1)
    in characteristic 2; for n >= 2 the dimension is phi(1,n) plus the
    parity-weighted combination of psi(n) and psi(n-1).  One scan of the
    support gives every phi(1, n) and every psi(n) up to nmax.
    """
    check_characteristic(characteristic)
    if nmax < 1:
        raise ValueError("nmax must be at least 1")
    ones = [0] * (nmax + 1)  # ones[n] = phi(1, n)
    psis = [0] * (nmax + 1)  # psis[n] = psi(n) for n >= 1
    for (first, m), mult in invariant.support:
        if first == 1 and m <= nmax:
            ones[m] = mult
        elif first == 0 and m >= 1:
            for multiple in range(m, nmax + 1, m):
                psis[multiple] += mult
    hh1 = 1 + q1 - q0 + ones[1]
    if characteristic == 2:
        hh1 += invariant.multiplicity(0, 1)
    dims = [1 + ones[0], hh1]
    weights = parity_weights(characteristic, 0), parity_weights(characteristic, 1)
    for n in range(2, nmax + 1):
        a, b = weights[n % 2]
        dims.append(ones[n] + a * psis[n] + b * psis[n - 1])
    return HHTable(dims=tuple(dims), tail_note="from the derived invariant")


def compare_ag(first: AGInvariant, second: AGInvariant) -> AGComparison:
    """Exact comparison of two invariants.

    A difference is a proof of non-equivalence; equality only means no
    obstruction was found.
    """
    da, db = first.as_dict(), second.as_dict()
    if da == db:
        return AGComparison(equal=True, witness=None,
                            verdict="no obstruction found")
    # report the most significant difference: largest multiplicity gap,
    # smallest pair on ties
    differing = [(pair, da.get(pair, 0), db.get(pair, 0))
                 for pair in sorted(set(da) | set(db))
                 if da.get(pair, 0) != db.get(pair, 0)]
    pair, ma, mb = max(differing, key=lambda item: (abs(item[1] - item[2]),
                                                    [-x for x in item[0]]))
    return AGComparison(equal=False, witness=(pair, ma, mb),
                        verdict="not derived equivalent")
