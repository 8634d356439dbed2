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

The complex is assembled once, over the integers, with sparse
differentials: the row of a pair (rho, delta) is empty, one entry (1, +-1,
or 2 = 1 + sign when both terms land in one column) or the two entries 1
and +-1, found by dict lookup.  So each D_n is the incidence matrix of a
signed graph, and the builder keeps its :func:`linalg.signed_form`: its
rank over Q and its Smith divisors 2, every other divisor being 1.  The
characteristic enters only in :func:`hh_dims_oracle`, in one subtraction:
over GF(2) a rank drops by the 2s, over GF(p), p odd, it is the rank over Q.

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
later degree, over every field, reuses the basis size and the form of
the built degree congruent to it mod 6.  Presentations whose zero paths
do not repeat, and every nmax below BUILT_TOP - 1, are built up to
nmax + 1 by the same loop.
"""

from typing import NamedTuple

# nullity, rank and ap_paths are unused here, but bench/tracer.py wraps them by name
from .linalg import check_characteristic, nullity, rank, signed_form  # noqa: F401
from .pairs import HHTable, ap_paths  # noqa: F401
from .quiver import GentlePresentation

PERIOD_START, PERIOD = 3, 6
BUILT_TOP = PERIOD_START + PERIOD  # one period, plus D_9 to check against D_3


class CochainComplex(NamedTuple):
    """Bases, sparse integer differentials and their integral forms of the
    degrees built.

    All tuples, shared and never changed.  ``bases[n]`` is the
    presentation's degree-n parallel pairs; ``differentials[n]``
    (1-indexed) is D_n, one row per pair of bases[n], each row the
    (column, value) pairs with nonzero values and increasing columns,
    indexing bases[n-1]; ``forms[n]`` is the :func:`linalg.signed_form`
    of D_n, (0, 0) for the zero map D_0, for every D_n the oracle reads.
    With a nonzero ``period`` bases and differentials stop at BUILT_TOP,
    forms one below, and every degree n past them repeats the built
    degree PERIOD_START + (n - PERIOD_START) % period; without one all
    three serve every nmax up to len(bases) - 2.
    """

    bases: tuple
    differentials: tuple
    forms: tuple
    period: int = 0


def build_complex(presentation: GentlePresentation, nmax: int) -> CochainComplex:
    """A complex that serves nmax: degrees 0..BUILT_TOP with the period
    when nmax + 1 reaches BUILT_TOP and the zero paths repeat, else
    degrees 0..nmax + 1.  D_{n+1} D_n = 0 is asserted over the integers on
    every degree built, and the period on every build that uses it; basis
    enumeration may raise :class:`InfiniteDimensionalError`.

    The presentation keeps one build, in ``presentation.complex``: the one
    for the largest nmax asked so far.  It is handed back while it has a
    period or holds degrees 0..nmax + 1; a larger nmax extends it from its
    last degree, assembling, checking and forming the new degrees only,
    and a failed check keeps the build as it was.  :func:`build_quiver`
    shares a presentation only for the same surface object, which is
    immutable, so the kept complex always belongs to its quiver.  Its
    bases are the presentation's levels, not copies.
    """
    if nmax < 1:
        raise ValueError("nmax must be at least 1")
    kept = presentation.complex
    if kept is not None and (kept.period or len(kept.bases) > nmax + 1):
        return kept
    period = PERIOD if nmax + 1 >= BUILT_TOP and presentation.periodic else 0
    built = BUILT_TOP if period else nmax + 1
    bases, differentials, forms = (map(list, (kept.bases, kept.differentials, kept.forms))
                                   if kept else ([], [None], [(0, 0)]))
    start = len(bases)
    arrows = presentation.quiver.arrows
    for n in range(start, built + 1):
        bases.append(presentation.parallel_pairs(n))
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
            steps = delta.arrows
            if not steps:
                matrix.append(())
                continue
            first, last = rho.arrows[0], rho.arrows[-1]
            tail_col = head_col = None
            # a plain (source, arrows) tuple hashes and compares as the Path
            if steps[0] == first:
                after = arrows[first].target
                tail_col = columns[((after, rho.arrows[1:]), (after, steps[1:]))]
            if steps[-1] == last:
                head_col = columns[((rho.source, rho.arrows[:-1]),
                                    (rho.source, steps[:-1]))]
            if head_col is None:
                matrix.append(() if tail_col is None else ((tail_col, 1),))
            elif tail_col is None:
                matrix.append(((head_col, sign),))
            elif tail_col == head_col:
                matrix.append(((tail_col, 2),) if sign == 1 else ())
            elif tail_col < head_col:
                matrix.append(((tail_col, 1), (head_col, sign)))
            else:
                matrix.append(((head_col, sign), (tail_col, 1)))
        differentials.append(tuple(matrix))
    # the oracle reads D_1..D_8 of a period; D_9 is checked against D_3 instead
    for rows in differentials[len(forms):len(differentials) - bool(period)]:
        forms.append(signed_form(rows))
        if forms[-1] is None:
            raise AssertionError("D_%d is not a signed graph" % (len(forms) - 1))

    complex_ = CochainComplex(bases=tuple(bases), differentials=tuple(differentials),
                              forms=tuple(forms), period=period)
    verify_complex_property(complex_, max(1, start - 1))
    if period:
        verify_period(presentation, complex_)
    presentation.complex = complex_
    return complex_


def verify_period(presentation: GentlePresentation, complex_: CochainComplex):
    """Check the period on the degrees built: each bases[n + 3], n >= 2, is
    bases[n] with every zero path shifted by one turn, position for
    position and with the same basis path; D_{n+3} = D_n mod 2 for
    n >= PERIOD_START; and the last built differential equals the one a
    period below, row for row.  Each turn is read once, off the shift of
    a degree-2 zero path, and each built D_n is reduced mod 2 once."""
    bases, differentials = complex_.bases, complex_.differentials
    turns = {rho.arrows[0]: presentation.shift(rho).arrows[:-2]
             for rho in presentation.zero_paths(2)}
    for n in range(2, len(bases) - 3):
        # a plain (source, arrows) tuple compares as the Path
        if bases[n + 3] != tuple([((rho.source, turns[rho.arrows[0]] + rho.arrows), gamma)
                                  for rho, gamma in bases[n]]):
            raise AssertionError(
                "bases[%d] is not bases[%d] shifted by one turn" % (n + 3, n))

    last = len(differentials) - 1
    mod2 = {n: [[col for col, value in row if value & 1] for row in differentials[n]]
            for n in range(PERIOD_START, last + 1)}
    for n in range(PERIOD_START, last - 2):
        if mod2[n + 3] != mod2[n]:
            raise AssertionError("D_%d != D_%d mod 2" % (n + 3, n))
    if differentials[last] != differentials[last - complex_.period]:
        raise AssertionError("D_%d != D_%d" % (last, last - complex_.period))


def verify_complex_property(complex_: CochainComplex, start: int = 1):
    """Check D_{n+1} . D_n = 0 over the integers for every built degree
    n >= start, in time proportional to the number of nonzero products."""
    for n in range(start, len(complex_.differentials) - 1):
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


def hh_dims_oracle(complex_: CochainComplex, characteristic: int,
                   nmax: int) -> HHTable:
    """HH^0..HH^nmax of an assembled complex over Q (characteristic 0) or
    GF(characteristic).

    HH^0 is the kernel dimension of D_1 and HH^n the kernel of D_{n+1}
    minus the rank of D_n, each rank read off the form of D_n: its rank
    over Q, less its 2s in characteristic 2.  Nothing is ranked here.
    With a period, a degree past the formed ones reads the formed degree
    congruent to it mod 6, over every field.  A complex without a period
    must hold degrees 0..nmax + 1, else ValueError; the first degrees of
    a larger one serve.
    """
    check_characteristic(characteristic)
    if nmax < 1:
        raise ValueError("nmax must be at least 1")
    bases, forms, period = complex_.bases, complex_.forms, complex_.period
    if not period and len(bases) < nmax + 2:
        raise ValueError("the complex does not hold D_%d for nmax %d" % (nmax + 1, nmax))
    ranks = [rank_q - twos if characteristic == 2 else rank_q for rank_q, twos in forms]
    degree = [n if n < len(forms) else PERIOD_START + (n - PERIOD_START) % period
              for n in range(nmax + 2)]
    dims = [len(bases[degree[n]]) - ranks[degree[n + 1]] - ranks[degree[n]]
            for n in range(nmax + 1)]
    return HHTable(dims=tuple(dims), tail_note="exact kernel/rank computation")
