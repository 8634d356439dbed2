import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gentlehh import (build_complex, build_quiver, build_surface,
                      fixture_by_name, hh_dims_oracle, internal_triangles,
                      verify_complex_property)
from gentlehh.fileformat import parse_triangulation
from gentlehh.linalg import nullity, rank
from gentlehh.report import compute_tables


def presentation_for(name):
    return build_quiver(fixture_by_name(name).surface())


def test_rank_over_rationals():
    assert rank([((0, 1), (1, 2)), ((0, 2), (1, 4))], 0) == 1
    assert rank([((0, 1), (1, 2)), ((0, 2), (1, 5))], 0) == 2
    assert rank([(), ()], 0) == 0
    assert rank([], 0) == 0
    assert rank([((0, 2),), ((1, 3),)], 0) == 2


def test_rank_depends_on_characteristic():
    # [[1, 1], [1, -1]] drops rank exactly over GF(2)
    m = [((0, 1), (1, 1)), ((0, 1), (1, -1))]
    assert rank(m, 0) == 2
    assert rank(m, 2) == 1
    assert rank(m, 3) == 2
    assert nullity(m, 2, 2) == 1


def test_rank_rejects_composite_characteristic():
    with pytest.raises(ValueError):
        rank([((0, 1),)], 6)


def reference_rank(dense, char):
    """Largest k with a k x k minor that is nonzero in the field, each
    determinant expanded over all permutations."""
    def det(rows, cols):
        total = 0
        for perm in permutations(range(len(rows))):
            inversions = sum(1 for i, j in combinations(range(len(perm)), 2)
                             if perm[i] > perm[j])
            term = -1 if inversions % 2 else 1
            for i, j in enumerate(perm):
                term *= dense[rows[i]][cols[j]]
            total += term
        return total % char if char else total

    n_rows, n_cols = len(dense), len(dense[0]) if dense else 0
    for k in range(min(n_rows, n_cols), 0, -1):
        if any(det(rows, cols)
               for rows in combinations(range(n_rows), k)
               for cols in combinations(range(n_cols), k)):
            return k
    return 0


def products(height, inner, width):
    """height x width integer matrices A.B with an inner dimension of
    1..5, so dependent rows and common factors are frequent."""
    def matrix(m, n):
        return st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                        min_size=m, max_size=m)
    return st.tuples(matrix(height, inner), matrix(inner, width)).map(
        lambda ab: [[sum(x * y for x, y in zip(row, col)) for col in zip(*ab[1])]
                    for row in ab[0]])


@settings(max_examples=300, deadline=None)
@given(st.tuples(st.integers(0, 5), st.integers(1, 5), st.integers(1, 5))
       .flatmap(lambda shape: products(*shape)),
       st.sampled_from((0, 2, 3, 5)))
def test_sparse_rank_matches_brute_force(dense, char):
    rows = [tuple((j, x) for j, x in enumerate(row) if x) for row in dense]
    assert rank(rows, char) == reference_rank(dense, char)


def test_oracle_characteristic_validation():
    complex_ = build_complex(presentation_for("fig8"), 3)
    for char in (0, 2, 13):
        hh_dims_oracle(complex_, char)
    with pytest.raises(ValueError):
        hh_dims_oracle(complex_, 9)


def test_square_disc_complex_is_tiny():
    p = presentation_for("square-disc")
    complex_ = build_complex(p, 5)
    assert len(complex_.bases[0]) == 1  # just (e, e)
    assert all(len(complex_.bases[n]) == 0 for n in range(1, 6))
    assert list(hh_dims_oracle(complex_, 0).dims) == [1, 0, 0, 0, 0, 0]


def test_fig8_complex_property_both_fields():
    p = presentation_for("fig8")
    # one integer complex serves every field
    verify_complex_property(build_complex(p, 13))  # D_{n+1} . D_n = 0 exactly


def test_fig8_degree3_basis_contains_the_cycle_pairs():
    p = presentation_for("fig8")
    complex_ = build_complex(p, 3)
    cyclic = [(rho, g) for rho, g in complex_.bases[3] if not g.arrows]
    assert len(cyclic) == 9
    assert len(complex_.bases[3]) >= 9


def test_fig8_oracle_tables():
    p = presentation_for("fig8")
    complex_ = build_complex(p, 13)
    t0 = hh_dims_oracle(complex_, 0)
    assert list(t0.dims) == [2, 7, 0, 0, 0, 0, 3, 3, 0, 0, 0, 0, 3, 3]
    t2 = hh_dims_oracle(complex_, 2)
    assert list(t2.dims) == [2, 7, 0, 3, 3, 0, 3, 3, 0, 3, 3, 0, 3, 3]


def test_annulus_oracle_anchor():
    p = presentation_for("annulus(1,1)")
    table = hh_dims_oracle(build_complex(p, 6), 0)
    assert table.dims[0] == 1
    assert table.dims[1] == 3
    assert all(d == 0 for d in table.dims[2:])


def test_torus_pair_identical_oracle_tables():
    p1 = presentation_for("torus-T1")
    p2 = presentation_for("torus-T2")
    c1, c2 = build_complex(p1, 13), build_complex(p2, 13)
    for char in (0, 2):
        t1 = hh_dims_oracle(c1, char)
        t2 = hh_dims_oracle(c2, char)
        assert t1.dims == t2.dims


def test_deterministic_assembly():
    p = presentation_for("fig8")
    c1 = build_complex(p, 6)
    c2 = build_complex(p, 6)
    assert c1.bases == c2.bases
    assert c1.differentials == c2.differentials


def test_infinite_dimensional_presentation_propagates():
    from gentlehh import (Arrow, GentlePresentation,
                          InfiniteDimensionalError, Quiver)
    quiver = Quiver(vertices=("u", "v"),
                    arrows=(Arrow(0, 0, 1), Arrow(1, 1, 0)))
    with pytest.raises(InfiniteDimensionalError):
        build_complex(GentlePresentation(quiver), 3)


def center_dimension(p):
    """Dimension of the centre of the algebra, from first principles.

    A central element is supported on parallel cycles (commuting with the
    idempotents), and commuting with every arrow imposes linear conditions
    on the coefficients; the centre is the kernel of that system over Q.
    """
    from gentlehh import Path

    basis = p.basis
    basis_index = {gamma: i for i, gamma in enumerate(basis)}
    cycles = [gamma for gamma in basis if p.path_target(gamma) == gamma.source]

    def times_arrow(gamma, arrow, on_left):
        if on_left:
            if gamma.arrows and (arrow.idx, gamma.arrows[0]) in p.relations:
                return None
            return Path(arrow.source, (arrow.idx,) + gamma.arrows)
        if gamma.arrows and (gamma.arrows[-1], arrow.idx) in p.relations:
            return None
        return Path(gamma.source, gamma.arrows + (arrow.idx,))

    rows = []
    for arrow in p.quiver.arrows:
        by_product = {}
        for j, gamma in enumerate(cycles):
            if gamma.source == arrow.target:  # the alpha . z term
                prod = times_arrow(gamma, arrow, on_left=True)
                if prod is not None:
                    coeffs = by_product.setdefault(basis_index[prod], {})
                    coeffs[j] = coeffs.get(j, 0) - 1
            if gamma.source == arrow.source:  # the z . alpha term
                prod = times_arrow(gamma, arrow, on_left=False)
                if prod is not None:
                    coeffs = by_product.setdefault(basis_index[prod], {})
                    coeffs[j] = coeffs.get(j, 0) + 1
        for coeffs in by_product.values():
            rows.append(tuple(sorted(coeffs.items())))
    return nullity(rows, len(cycles), 0)


def test_hh0_is_the_centre_dimension():
    for name, expected in (("square-disc", 1), ("annulus(1,1)", 1),
                           ("fig8", 2), ("torus-T1", 1), ("torus-T2", 1)):
        p = presentation_for(name)
        assert center_dimension(p) == expected
        oracle = hh_dims_oracle(build_complex(p, 2), 0)
        assert oracle.dims[0] == expected


@pytest.mark.parametrize("name", ("fig8", "torus-T1"))
def test_perturbed_differential_fails_the_complex_check(name):
    complex_ = build_complex(presentation_for(name), 6)
    # the first D_n entry that some row of D_{n+1} multiplies into
    n, k = next((n, k) for n in range(1, complex_.top_degree)
                for k, row in enumerate(complex_.differentials[n])
                if row and any(col == k for entries in complex_.differentials[n + 1]
                               for col, _ in entries))
    (col, value), *rest = complex_.differentials[n][k]
    complex_.differentials[n][k] = ((col, 2 * value), *rest)
    with pytest.raises(AssertionError, match="D_%d . D_%d" % (n + 1, n)):
        verify_complex_property(complex_)


def random_polygon(n, seed):
    """A seeded random triangulation of the convex n-gon: the triangle over
    each base takes a uniformly random apex, then both sides recurse."""
    rng = random.Random(seed)

    def side(u, w):
        if w == u + 1 or (u == n - 1 and w == 0):
            return {"label": "s%d" % u, "kind": "boundary",
                    "from": "p%d" % u, "to": "p%d" % w}
        return {"label": "d%d_%d" % (min(u, w), max(u, w)), "kind": "arc",
                "from": "p%d" % u, "to": "p%d" % w}

    triangles, stack = [], [(0, n - 1)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo >= 2:
            apex = rng.randrange(lo + 1, hi)
            triangles.append([side(lo, apex), side(apex, hi), side(hi, lo)])
            stack += [(lo, apex), (apex, hi)]
    return build_surface(parse_triangulation(
        {"name": "%d-gon-s%d" % (n, seed), "triangles": triangles}))


@pytest.mark.parametrize("char", (3, 5))
def test_four_way_agreement_at_odd_primes(char):
    surfaces = [fixture_by_name(name).surface()
                for name in ("square-disc", "annulus(1,1)", "fig8",
                             "torus-T1", "torus-T2")]
    surfaces.append(random_polygon(60, 11))
    assert len(internal_triangles(surfaces[-1])) > 0
    for surface in surfaces:
        tables = compute_tables(surface, char, 13)
        assert len(tables) == 4
        assert len({table.dims for table in tables.values()}) == 1, surface.name
