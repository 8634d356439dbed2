"""Ground-truth Hochschild dimensions by exact linear algebra.

The degree-n cochain space has one basis element per parallel pair of a
degree-n zero path with a basis path of the algebra.  The differential of
a basis cochain multiplies its value by the outer arrows of the zero path,
reducing products inside the algebra (a product containing a relation is
zero, anything else is again a basis path):

    (D_n f)(a_1...a_n) = a_1 * f(a_2...a_n) + (-1)^n * f(a_1...a_{n-1}) * a_n

with the degree-1 case reading f on trivial paths on both sides.  Written
this way the composite of consecutive differentials vanishes identically
over the integers, which the builder verifies.

The complex is assembled once, over the integers and independent of the
characteristic, with sparse differentials: the row of a pair (rho, delta)
has at most two entries, found by dict lookup.  The characteristic enters
only in :func:`hh_dims_oracle`, at the rank step.
"""

from dataclasses import dataclass

from .linalg import check_characteristic, nullity, rank
from .pairs import HHTable, ap_paths
from .quiver import GentlePresentation, Path


@dataclass
class CochainComplex:
    """Bases and sparse integer differentials D_1..D_N.

    ``bases[n]`` lists the degree-n parallel pairs; ``differentials[n]``
    (1-indexed) is D_n with one row per pair of bases[n], each row a
    tuple of (column, value) pairs with nonzero values and increasing
    columns, indexing bases[n-1].
    """

    bases: list
    differentials: list

    @property
    def top_degree(self) -> int:
        return len(self.bases) - 1


def build_complex(presentation: GentlePresentation, nmax: int) -> CochainComplex:
    """Assemble bases and differentials up to degree nmax + 1.

    Propagates :class:`InfiniteDimensionalError` from basis enumeration.
    The complex property D_{n+1} D_n = 0 is asserted over the integers.
    """
    if nmax < 1:
        raise ValueError("nmax must be at least 1")
    parallel = presentation.parallel  # may raise InfiniteDimensionalError
    arrows = presentation.quiver.arrows
    top = nmax + 1

    bases = []
    differentials = [None]
    for n in range(top + 1):
        bases.append([(rho, gamma) for rho in ap_paths(presentation, n) for gamma in
                      parallel.get((rho.source, presentation.path_target(rho)), ())])
        if n == 0:
            continue
        # D_n(rho, delta) reads f at (tail, delta without its first arrow)
        # when that arrow is the first of rho, and at (head, delta without
        # its last arrow) when that is the last of rho; a subpath of a basis
        # path is a basis path, so both columns exist.
        columns = {pair: i for i, pair in enumerate(bases[n - 1])}
        sign = -1 if n % 2 else 1
        matrix = []
        for rho, delta in bases[n]:
            entries = {}
            if delta.arrows and delta.arrows[0] == rho.arrows[0]:
                tail = Path(arrows[rho.arrows[0]].target, rho.arrows[1:])
                gamma = Path(tail.source, delta.arrows[1:])
                entries[columns[(tail, gamma)]] = 1
            if delta.arrows and delta.arrows[-1] == rho.arrows[-1]:
                head = Path(rho.source, rho.arrows[:-1])
                col = columns[(head, Path(delta.source, delta.arrows[:-1]))]
                entries[col] = entries.get(col, 0) + sign
            matrix.append(tuple(sorted((c, v) for c, v in entries.items() if v)))
        differentials.append(matrix)

    complex_ = CochainComplex(bases=bases, differentials=differentials)
    verify_complex_property(complex_)
    return complex_


def verify_complex_property(complex_: CochainComplex):
    """Check D_{n+1} . D_n = 0 over the integers for every degree, in time
    proportional to the number of nonzero products."""
    for n in range(1, complex_.top_degree):
        d_n = complex_.differentials[n]
        for row, entries in enumerate(complex_.differentials[n + 1]):
            totals = {}
            for k, outer in entries:
                for col, inner in d_n[k]:
                    totals[col] = totals.get(col, 0) + outer * inner
            for col, total in totals.items():
                if total:
                    raise AssertionError(
                        "D_%d . D_%d is nonzero at (%d, %d)" % (n + 1, n, row, col))


def hh_dims_oracle(complex_: CochainComplex, characteristic: int) -> HHTable:
    """Cohomology dimensions of an assembled complex over Q
    (characteristic 0) or GF(characteristic).

    HH^0 is the kernel dimension of D_1 and HH^n the kernel of D_{n+1}
    minus the rank of D_n; all ranks by exact sparse elimination.
    """
    check_characteristic(characteristic)
    bases, differentials = complex_.bases, complex_.differentials
    hh0 = nullity(differentials[1], len(bases[0]), characteristic)
    ranks = [0, len(bases[0]) - hh0] + [
        rank(differentials[n], characteristic)
        for n in range(2, complex_.top_degree + 1)]
    dims = [len(bases[n]) - ranks[n + 1] - ranks[n]
            for n in range(complex_.top_degree)]
    return HHTable(characteristic=characteristic, dims=tuple(dims), method="oracle",
                   tail_note="exact kernel/rank computation")
