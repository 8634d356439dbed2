"""Exact rank of sparse integer matrices over the rationals and prime fields.

A matrix is a sequence of rows, each a sequence of (column, value) pairs
with distinct columns and integer values; absent entries are zero.  The
rows may be read twice, so a sequence, not an iterator.

The kernel is characteristic-free.  A matrix whose every row is empty,
one entry +-1 or +-2, or two entries +-1 is the incidence matrix of a
signed graph on its columns: a two-entry row is an edge, positive when
the values are opposite and negative when they are equal, and a one-entry
row is a half-edge.  :func:`signed_form` reads its Smith form over the
integers off a union-find, one component at a time (Zaslavsky, "Signed
graphs", 1982): a component that is balanced (every cycle has an even
number of negative edges) and has no half-edge gives |V| - 1 ones, one
with a +-1 half-edge |V| ones, and any other |V| - 1 ones and one 2.  So
the rank is the number of nonzero divisors over Q and over GF(p) for odd
p, and the field enters in one subtraction: over GF(2) the 2s vanish.
Any other matrix goes to :func:`_eliminate`: Gaussian elimination that
never leaves the integers, a row reduced by a cross-multiplied pivot row,
then taken mod p in characteristic p, or divided by the gcd of its
entries in characteristic 0.  Rows are taken in order and each pivots on
its least column, so repeated runs eliminate identically.
"""

from functools import cache
from math import gcd, isqrt


def is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, isqrt(p) + 1))


@cache
def check_characteristic(char: int):
    """Accept 0 or a prime below 2**31, where trial division takes at most
    46341 steps; anything else is a ValueError.  An accepted value is
    remembered, so each is trial-divided once per process however many
    layers check it."""
    if char != 0 and not (char < 2**31 and is_prime(char)):
        raise ValueError("characteristic must be 0 or a prime below 2**31, got %r"
                         % char)


def _normalise(row: dict, char: int) -> dict:
    """Drop zero entries, then reduce mod char, or over Q divide by the gcd."""
    if char:
        return {col: value % char for col, value in row.items() if value % char}
    row = {col: value for col, value in row.items() if value}
    divisor = gcd(*row.values())
    if divisor > 1:
        row = {col: value // divisor for col, value in row.items()}
    return row


def rank(rows, char: int) -> int:
    """Rank of a sparse integer matrix over Q (char 0) or GF(char): from
    the signed-graph form when every row has that shape, else by
    elimination."""
    check_characteristic(char)
    form = signed_form(rows)
    if form is None:
        return _eliminate(rows, char)
    rank_q, twos = form
    return rank_q - twos if char == 2 else rank_q


def signed_form(rows) -> tuple[int, int] | None:
    """(rank over Q, number of elementary divisors 2) of a signed-graph
    incidence matrix, whose other nonzero divisors are all 1, or None as
    soon as a row has another shape.

    Both are counted row by row.  The kernel of a component is the line
    x_i = +-x_root, read along its edges, when the component is balanced
    and has no half-edge ("open"), and zero otherwise ("full"); a full
    component holds a 2 unless it has a +-1 half-edge.  So a row adds 1
    to the rank when it joins two components that are not both full, or
    makes an open component full: a half-edge, or an edge closing an
    unbalanced cycle.
    """
    link = {}  # column -> (parent column, 1 if their kernel values are opposite)
    kind = {}  # root of a full component -> 1 with a +-1 half-edge, else 2 (open: 3)
    found = 0

    def find(col):
        """The root of col's component, and 1 if their values are opposite."""
        flip = 0
        step = link.get(col)
        while step is not None:
            parent, odd = step
            above = link.get(parent)
            if above is None:
                return parent, flip ^ odd
            # path halving: col skips its parent
            grand, odd = above[0], odd ^ above[1]
            link[col] = grand, odd
            flip ^= odd
            col = grand
            step = link.get(col)
        return col, flip

    for entries in rows:
        if len(entries) == 2:
            (i, a), (j, b) = entries
            if a not in {1, -1} or b not in {1, -1}:
                return None
            # x_i = -(b / a) x_j in the kernel
            odd = a == b
            root_i, flip_i = find(i)
            root_j, flip_j = find(j)
            if root_i != root_j:
                link[root_i] = (root_j, flip_i ^ flip_j ^ odd)
                kind_i, kind_j = kind.pop(root_i, 3), kind.get(root_j, 3)
                if kind_i < kind_j:
                    kind[root_j] = kind_i
                found += kind_i == 3 or kind_j == 3
            elif flip_i ^ flip_j != odd and root_i not in kind:
                kind[root_i] = 2
                found += 1
        elif len(entries) == 1:
            (col, a), = entries
            weight = abs(a)
            if weight not in {1, 2}:
                return None
            root = find(col)[0]
            old = kind.get(root, 3)
            found += old == 3
            if weight < old:
                kind[root] = weight
        elif entries:
            return None
    return found, sum(k == 2 for k in kind.values())


def _eliminate(rows, char: int) -> int:
    pivots = {}  # least column -> reduced row holding it
    for entries in rows:
        row = _normalise(dict(entries), char)
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = row
                break
            scale, factor = pivot[col], row[col]
            combined = {c: scale * value for c, value in row.items()}
            for c, value in pivot.items():
                combined[c] = combined.get(c, 0) - factor * value
            row = _normalise(combined, char)
    return len(pivots)


def nullity(rows, n_cols: int, char: int) -> int:
    """Kernel dimension of the matrix as a map from an n_cols-dim space."""
    return n_cols - rank(rows, char)
