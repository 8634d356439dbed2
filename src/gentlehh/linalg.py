"""Exact rank of sparse integer matrices over the rationals and prime fields.

A matrix is a sequence of rows, each a sequence of (column, value) pairs
with distinct columns and integer values; absent entries are zero.
Elimination never leaves the integers: a row is reduced by a
cross-multiplied pivot row, then taken mod p in characteristic p, or
divided by the gcd of its entries in characteristic 0.  Rows are taken in order and each pivots on its least
column, so repeated runs eliminate identically.
"""

from functools import cache
from math import gcd


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


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
    """Rank of a sparse integer matrix over Q (char 0) or GF(char)."""
    check_characteristic(char)
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
