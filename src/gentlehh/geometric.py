"""Closed-form Hochschild dimensions straight from surface geometry.

No quiver is built here: the arrow count is recovered from the triangle
census (three arrows per internal triangle, one per single-boundary-side
triangle) and the corrections in degrees 0 and 1 come from the boundary
profiles.  From degree 2 on the table is |internal| on an eventually
periodic set of degrees and 0 elsewhere.
"""

from typing import NamedTuple

from .linalg import check_characteristic
from .pairs import HHTable
from .surface import (TriangulatedSurface, boundary_type_counts,
                      classify_boundaries, internal_triangles, sint_count)


class GeometricResult(NamedTuple):
    table: HHTable
    cup_nontrivial: bool
    bracket_nontrivial: bool


def hh_dims_geometric(surface: TriangulatedSurface, characteristic: int = 0,
                      nmax: int = 13) -> GeometricResult:
    """Evaluate the geometric dimension formula.

    HH^0 = 1 + #(1,0)-boundaries, HH^1 = 1 + #(1,1)-boundaries plus the
    arrow surplus, and for n >= 2 the dimension is the internal-triangle
    count at n = 0,1 mod 6 (mod 3 in characteristic 2) and zero otherwise.
    The flags report whether the multiplicative structures on the cohomology
    can be nonzero, which happens exactly when an internal triangle exists.
    """
    check_characteristic(characteristic)
    if nmax < 1:
        raise ValueError("nmax must be at least 1")
    b0, b1 = boundary_type_counts(classify_boundaries(surface))
    int_count = len(internal_triangles(surface))
    q0 = len(surface.arcs)
    q1 = 3 * int_count + sint_count(surface)

    modulus = 3 if characteristic == 2 else 6
    period = [int_count, int_count] + [0] * (modulus - 2)   # by n mod modulus
    dims = [1 + b0, 1 + b1 + q1 - q0]
    dims += [period[n % modulus] for n in range(2, nmax + 1)]
    table = HHTable(dims=tuple(dims),
                    tail_note="%d at n = 0,1 (mod %d) for n >= 2, else 0"
                              % (int_count, modulus))
    cup = int_count >= 1
    return GeometricResult(
        table=table,
        cup_nontrivial=cup,
        bracket_nontrivial=cup and characteristic == 0,
    )


def hh1_remark(surface: TriangulatedSurface) -> int:
    """First Hochschild dimension from raw surface counts only:
    1 + #(1,1)-boundaries + 3*|internal| + |single-boundary-side|
    - 6g - 3b - c + 6."""
    _, b1 = boundary_type_counts(classify_boundaries(surface))
    return (1 + b1
            + 3 * len(internal_triangles(surface)) + sint_count(surface)
            - 6 * surface.genus
            - 3 * len(surface.boundary_components)
            - len(surface.marked_points)
            + 6)
