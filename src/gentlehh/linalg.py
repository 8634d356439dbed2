"""Exact rank of sparse integer matrices over the rationals and prime fields.

A matrix is a sequence of rows, each a sequence of (column, value) pairs
with distinct columns and integer values; absent entries are zero.  The
rows may be read twice, so a sequence, not an iterator.

Two paths, both exact.  A matrix whose every row has at most two nonzero
entries, two of equal or opposite value (mod p in characteristic p), is
the incidence matrix of a signed graph on its columns: a two-entry row is
an edge, positive when the values are opposite and negative when they are
equal, and a one-entry row is a half-edge.  Its rank is the number of
columns touched minus the number of components that are balanced (every
cycle has an even number of negative edges) and have no half-edge
(Zaslavsky, "Signed graphs", 1982), counted by :func:`_signed_rank` with a
union-find.  In characteristic 2 every edge is positive.  Any other matrix
goes to :func:`_eliminate`: Gaussian elimination that never leaves the
integers, a row reduced by a cross-multiplied pivot row, then taken mod p
in characteristic p, or divided by the gcd of its entries in
characteristic 0.  Rows are taken in order and each pivots on its least
column, so repeated runs eliminate identically.
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
    """Rank of a sparse integer matrix over Q (char 0) or GF(char): by the
    signed-graph count when every row has that shape, else by elimination."""
    check_characteristic(char)
    found = _signed_rank(rows, char)
    return _eliminate(rows, char) if found is None else found


def _signed_rank(rows, char: int) -> int | None:
    """The rank of a signed-graph incidence matrix, or None as soon as a
    row has more than two nonzero entries or two of different magnitude.

    The rank is counted row by row, as the drop in the kernel's dimension.
    The kernel of a component is the line x_i = +-x_root, read along its
    edges, when the component is balanced and has no half-edge, and zero
    otherwise (the component is "full").  So a row adds 1 when it joins
    two components that are not both full, or when it makes a component
    full: a half-edge, or an edge closing an unbalanced cycle.
    """
    link = {}  # column -> (parent column, 1 if their kernel values are opposite)
    full = set()  # roots of full components
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
        if len(entries) > 2:
            entries = [(col, value) for col, value in entries
                       if (value % char if char else value)]
            if len(entries) > 2:
                return None
        if len(entries) == 2:
            (i, a), (j, b) = entries
            if char:
                a, b = a % char, b % char
            if a and b:
                # x_i = -(b / a) x_j in the kernel
                if a + b == char:
                    odd = 0
                elif a == b:
                    odd = 1
                else:
                    return None
                root_i, flip_i = find(i)
                root_j, flip_j = find(j)
                if root_i != root_j:
                    if root_i in full:
                        if root_j in full:
                            continue
                        full.add(root_j)
                    link[root_i] = (root_j, flip_i ^ flip_j ^ odd)
                    found += 1
                elif flip_i ^ flip_j != odd and root_i not in full:
                    full.add(root_i)
                    found += 1
                continue
            if not (a or b):
                continue
            half = i if a else j
        elif entries:
            (half, a), = entries
            if not (a % char if char else a):
                continue
        else:
            continue
        root = find(half)[0]
        if root not in full:
            full.add(root)
            found += 1
    return found


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
