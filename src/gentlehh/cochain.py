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

Only one verified period is built.  When the presentation's zero paths
repeat (``GentlePresentation.periodic``: AP_{n+3} is AP_n with one more
turn in front of each chain, position for position, for n >= 2), so do
the bases, since the shift keeps both endpoints and hence the parallel
basis paths.  A row of D_n reads its columns through the tail and the
head of rho, and for n >= 3 the shift commutes with both: it keeps the
first and the last arrow, and the tail of a shifted chain is its tail
shifted, because the turn of the second arrow is the turn of the first
rotated.  So D_{n+3} is D_n with the sign of the head term flipped, and
D_{n+6} = D_n for n >= 3 (and D_{n+3} = D_n mod 2).
:func:`build_complex` then builds degrees 0..9 only, checks the shift
on the bases it built, D_{n+3} = D_n mod 2 and D_9 == D_3, and every
later degree reuses the basis size and the rank of the built degree
congruent to it mod 6.  In characteristic 2 the ranks of D_3..D_5 serve
D_6..D_8 too, since a rank over GF(2) reads the entries mod 2 only.
Presentations whose zero paths do not repeat are built up to nmax + 1 by
the same loop.
"""

from typing import NamedTuple

from .linalg import check_characteristic, nullity, rank
from .pairs import HHTable, ap_paths, parallel_pairs
from .quiver import GentlePresentation, Path

PERIOD_START, PERIOD = 3, 6
BUILT_TOP = PERIOD_START + PERIOD  # one period, plus D_9 to check against D_3


class CochainComplex(NamedTuple):
    """Bases and sparse integer differentials of degrees 0..top_degree.

    ``bases[n]`` lists the degree-n parallel pairs; ``differentials[n]``
    (1-indexed) is D_n with one row per pair of bases[n], each row a
    tuple of (column, value) pairs with nonzero values and increasing
    columns, indexing bases[n-1].  Both lists hold the built degrees; with
    a nonzero ``period`` they stop at BUILT_TOP and every later degree is
    the built one :meth:`built_degree` names.
    """

    bases: list
    differentials: list
    top_degree: int
    period: int = 0

    def built_degree(self, n: int) -> int:
        """The built degree whose basis and differential degree n repeats."""
        if self.period and n >= PERIOD_START + self.period:
            return PERIOD_START + (n - PERIOD_START) % self.period
        return n


def build_complex(presentation: GentlePresentation, nmax: int) -> CochainComplex:
    """Assemble bases and differentials up to degree nmax + 1, building
    degrees 0..BUILT_TOP only when the presentation's zero paths repeat.

    Propagates :class:`InfiniteDimensionalError` from basis enumeration.
    The complex property D_{n+1} D_n = 0 is asserted over the integers on
    every build, and the period on every build that uses it.
    """
    if nmax < 1:
        raise ValueError("nmax must be at least 1")
    arrows = presentation.quiver.arrows
    top = nmax + 1
    period = PERIOD if top > BUILT_TOP and presentation.periodic else 0

    bases = []
    differentials = [None]
    for n in range(BUILT_TOP + 1 if period else top + 1):
        bases.append(parallel_pairs(presentation, ap_paths(presentation, n)))
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

    complex_ = CochainComplex(bases=bases, differentials=differentials,
                              top_degree=top, period=period)
    verify_complex_property(complex_)
    if period:
        verify_period(presentation, complex_)
    return complex_


def verify_period(presentation: GentlePresentation, complex_: CochainComplex):
    """Check the period on the degrees built: each bases[n + 3], n >= 2, is
    bases[n] with every zero path shifted by one turn, position for
    position and with the same basis path; D_{n+3} = D_n mod 2 for
    n >= PERIOD_START; and the last built differential equals the one a
    period below, row for row."""
    bases, differentials = complex_.bases, complex_.differentials
    for n in range(2, len(bases) - 3):
        shifted = [(presentation.shift(rho), gamma) for rho, gamma in bases[n]]
        if bases[n + 3] != shifted:
            raise AssertionError(
                "bases[%d] is not bases[%d] shifted by one turn" % (n + 3, n))

    def mod2(rows):
        return [tuple(col for col, value in row if value % 2) for row in rows]

    last = len(differentials) - 1
    for n in range(PERIOD_START, last - 2):
        if mod2(differentials[n + 3]) != mod2(differentials[n]):
            raise AssertionError("D_%d != D_%d mod 2" % (n + 3, n))
    if differentials[last] != differentials[last - complex_.period]:
        raise AssertionError("D_%d != D_%d" % (last, last - complex_.period))


def verify_complex_property(complex_: CochainComplex):
    """Check D_{n+1} . D_n = 0 over the integers for every built degree, in
    time proportional to the number of nonzero products."""
    for n in range(1, len(complex_.differentials) - 1):
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
    minus the rank of D_n; all ranks by exact sparse elimination, once
    per built degree, and in characteristic 2 once per degree mod 3 from
    PERIOD_START on when the complex is periodic (D_{n+3} = D_n mod 2 is
    verified, and bases[n + 3] has the size of bases[n]).
    """
    check_characteristic(characteristic)
    bases, differentials = complex_.bases, complex_.differentials
    degree = [complex_.built_degree(n) for n in range(complex_.top_degree + 1)]
    if characteristic == 2 and complex_.period:
        degree = [m - 3 if m >= PERIOD_START + 3 else m for m in degree]
    hh0 = nullity(differentials[1], len(bases[0]), characteristic)
    ranks = {0: 0, 1: len(bases[0]) - hh0}
    for m in sorted(set(degree[2:])):
        ranks[m] = rank(differentials[m], characteristic)
    dims = [len(bases[degree[n]]) - ranks[degree[n + 1]] - ranks[degree[n]]
            for n in range(complex_.top_degree)]
    return HHTable(dims=tuple(dims), tail_note="exact kernel/rank computation")
