import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gentlehh import (build_complex, build_quiver, build_surface,
                      fixture_by_name, hh_dims_oracle, internal_triangles,
                      verify_complex_property)
from gentlehh import linalg
from gentlehh.fileformat import parse_triangulation
from gentlehh.linalg import nullity, rank
from gentlehh.report import compute_tables


def presentation_for(name):
    return build_quiver(fixture_by_name(name).surface)


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


def minor(dense, rows, cols):
    """The integer determinant of a square submatrix, expanded over all
    permutations."""
    total = 0
    for perm in permutations(range(len(rows))):
        inversions = sum(1 for i, j in combinations(range(len(perm)), 2)
                         if perm[i] > perm[j])
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= dense[rows[i]][cols[j]]
        total += term
    return total


def minors(dense, k):
    """Every k x k minor of the matrix."""
    n_rows, n_cols = len(dense), len(dense[0]) if dense else 0
    return (minor(dense, rows, cols) for rows in combinations(range(n_rows), k)
            for cols in combinations(range(n_cols), k))


def reference_rank(dense, char):
    """Largest k with a k x k minor that is nonzero in the field."""
    n_rows, n_cols = len(dense), len(dense[0]) if dense else 0
    for k in range(min(n_rows, n_cols), 0, -1):
        if any(m % char if char else m for m in minors(dense, k)):
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


def dense_of(rows, n_cols):
    dense = [[0] * n_cols for _ in rows]
    for r, entries in enumerate(rows):
        for col, value in entries:
            dense[r][col] = value
    return dense


@st.composite
def signed_graph_rows(draw, extra=(), oracle=False):
    """Rows of a signed-graph incidence matrix on 2 to 4 columns: edges
    of equal or opposite values, a cycle of them with random signs (so
    balanced and unbalanced cycles both occur), half-edges of value +-1
    and 2, empty rows and explicit zero entries, in random order; ``extra``
    adds row strategies of other shapes.  With ``oracle`` only the shapes
    a differential of the oracle has: edges of values +-1 and half-edges of
    values +-1 and +-2."""
    n_cols = draw(st.integers(2, 4))
    col = st.integers(0, n_cols - 1)
    value = st.sampled_from((1, -1) if oracle else (1, -1, 2, -2, 3))
    half = (1, -1, 2, -2) if oracle else (1, -1, 2, 0)
    zero = (False,) if oracle else (False,) * 5 + (True,)

    def edge(ends, a, same, zero):
        (i, j), b = ends, 0 if zero else (a if same else -a)
        return ((i, a), (j, b))

    two_cols = st.lists(col, min_size=2, max_size=2, unique=True)
    row = st.one_of(
        st.just(()),
        st.tuples(st.tuples(col, st.sampled_from(half))),
        st.builds(edge, two_cols, value, st.booleans(), st.sampled_from(zero)),
        *extra)
    rows = draw(st.lists(row, max_size=5))
    cycle = draw(st.lists(col, min_size=2, max_size=n_cols, unique=True))
    for i, j in zip(cycle, cycle[1:] + cycle[:1]):
        rows.append(edge((i, j), draw(value), draw(st.booleans()), False))
    return draw(st.permutations(rows)), n_cols


def oracle_shaped(entries):
    """Empty, one entry +-1 or +-2, or two entries +-1: the rows
    :func:`linalg.signed_form` takes."""
    values = [abs(value) for _, value in entries]
    return values in ([], [1], [2], [1, 1])


@settings(max_examples=400, deadline=None)
@given(signed_graph_rows(), st.sampled_from((0, 2, 3, 5)))
def test_signed_graph_rank_matches_brute_force(drawn, char):
    rows, n_cols = drawn
    assert (linalg.signed_form(rows) is not None) == all(map(oracle_shaped, rows))
    assert rank(rows, char) == reference_rank(dense_of(rows, n_cols), char)


@settings(max_examples=300, deadline=None)
@given(signed_graph_rows(extra=(
           # two entries of different magnitude, and three entries
           st.lists(st.integers(0, 3), min_size=2, max_size=2, unique=True)
           .map(lambda cols: ((cols[0], 1), (cols[1], 2))),
           st.lists(st.integers(0, 3), min_size=3, max_size=3, unique=True)
           .map(lambda cols: tuple((c, (-1) ** c) for c in cols)))),
       st.sampled_from((0, 2, 3, 5)))
def test_rank_with_rows_outside_a_signed_graph_matches_brute_force(drawn, char):
    rows, _ = drawn
    n_cols = 1 + max((col for entries in rows for col, _ in entries), default=0)
    assert rank(rows, char) == reference_rank(dense_of(rows, n_cols), char)


def test_rows_with_three_entries_are_eliminated(monkeypatch):
    eliminated = []
    original = linalg._eliminate

    def counting(rows, char):
        eliminated.append(char)
        return original(rows, char)

    monkeypatch.setattr(linalg, "_eliminate", counting)
    triangle = [((0, 1), (1, -1)), ((1, 1), (2, -1)), ((0, 1), (2, -1))]
    for char in (0, 2, 3):
        assert rank(triangle, char) == 2
    assert eliminated == []
    # the form is characteristic-free, so any row outside the oracle's
    # shapes is eliminated at every characteristic: three nonzero entries
    # (even where the -2 vanishes mod 2), 1 and 2 in one row (even where
    # 2 = -1 mod 3), an edge of values 2, and an explicit zero entry
    stacked = triangle + [((0, 1), (1, 1), (2, -2))]
    assert [rank(stacked, char) for char in (0, 2, 3)] == [2, 2, 2]
    assert [rank([((0, 1), (1, 2))] * 2, char) for char in (0, 2, 3)] == [1, 1, 1]
    assert [rank([((0, 2), (1, 2))], char) for char in (0, 2, 3)] == [1, 0, 1]
    assert [rank([((0, 1), (1, 0))], char) for char in (0, 2, 3)] == [1, 1, 1]
    assert eliminated == [0, 2, 3] * 4


def test_oracle_characteristic_validation():
    complex_ = build_complex(presentation_for("fig8"), 3)
    for char in (0, 2, 13):
        hh_dims_oracle(complex_, char, 3)
    with pytest.raises(ValueError):
        hh_dims_oracle(complex_, 9, 3)


def test_oracle_rejects_an_nmax_the_complex_cannot_serve():
    # without a period the complex serves nmax up to its top degree - 1,
    # each from its first degrees; with one it serves every nmax.  Every
    # surface has a period, so the short complex is the chain quiver's.
    from test_periodicity import chain_presentation  # it imports this module
    short = build_complex(chain_presentation(4), 3)
    assert short.period == 0 and len(short.bases) == 5
    assert hh_dims_oracle(short, 0, 2).dims == hh_dims_oracle(short, 0, 3).dims[:3]
    for nmax in (0, 4):
        with pytest.raises(ValueError, match="nmax"):
            hh_dims_oracle(short, 0, nmax)
    periodic = build_complex(presentation_for("fig8"), 3)
    assert periodic.period and len(hh_dims_oracle(periodic, 2, 1).dims) == 2
    with pytest.raises(ValueError, match="nmax"):
        hh_dims_oracle(periodic, 2, 0)


def test_square_disc_complex_is_tiny():
    p = presentation_for("square-disc")
    complex_ = build_complex(p, 5)
    assert len(complex_.bases[0]) == 1  # just (e, e)
    assert all(len(complex_.bases[n]) == 0 for n in range(1, 6))
    assert list(hh_dims_oracle(complex_, 0, 5).dims) == [1, 0, 0, 0, 0, 0]


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
    t0 = hh_dims_oracle(complex_, 0, 13)
    assert list(t0.dims) == [2, 7, 0, 0, 0, 0, 3, 3, 0, 0, 0, 0, 3, 3]
    t2 = hh_dims_oracle(complex_, 2, 13)
    assert list(t2.dims) == [2, 7, 0, 3, 3, 0, 3, 3, 0, 3, 3, 0, 3, 3]


def test_annulus_oracle_anchor():
    p = presentation_for("annulus(1,1)")
    table = hh_dims_oracle(build_complex(p, 6), 0, 6)
    assert table.dims[0] == 1
    assert table.dims[1] == 3
    assert all(d == 0 for d in table.dims[2:])


def test_torus_pair_identical_oracle_tables():
    p1 = presentation_for("torus-T1")
    p2 = presentation_for("torus-T2")
    c1, c2 = build_complex(p1, 13), build_complex(p2, 13)
    for char in (0, 2):
        t1 = hh_dims_oracle(c1, char, 13)
        t2 = hh_dims_oracle(c2, char, 13)
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
        oracle = hh_dims_oracle(build_complex(p, 2), 0, 2)
        assert oracle.dims[0] == expected


def replaced(levels, i, value):
    """A copy of the tuple ``levels`` with position i holding ``value``."""
    return levels[:i] + (value,) + levels[i + 1:]


@pytest.mark.parametrize("name", ("fig8", "torus-T1"))
def test_perturbed_differential_fails_the_complex_check(name):
    complex_ = build_complex(presentation_for(name), 6)
    # the first D_n entry that some row of D_{n+1} multiplies into
    n, k = next((n, k) for n in range(1, len(complex_.differentials) - 1)
                for k, row in enumerate(complex_.differentials[n])
                if row and any(col == k for entries in complex_.differentials[n + 1]
                               for col, _ in entries))
    (col, value), *rest = complex_.differentials[n][k]
    perturbed = complex_._replace(differentials=replaced(
        complex_.differentials, n,
        replaced(complex_.differentials[n], k, ((col, 2 * value), *rest))))
    with pytest.raises(AssertionError, match="D_%d . D_%d" % (n + 1, n)):
        verify_complex_property(perturbed)
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
    surfaces = [fixture_by_name(name).surface
                for name in ("square-disc", "annulus(1,1)", "fig8",
                             "torus-T1", "torus-T2")]
    surfaces.append(random_polygon(60, 11))
    assert len(internal_triangles(surfaces[-1])) > 0
    for surface in surfaces:
        tables = compute_tables(surface, char, 13)
        assert len(tables) == 4
        assert len({table.dims for table in tables.values()}) == 1, surface.name


def test_gf2_rank_of_rows_spanning_several_words():
    # columns j -> 97 j + 3 run past 64 and past 1024; under j -> 1024 j + 5
    # every column is 5 mod 64 and mod 1024, so a rank that indexed columns
    # by a word-sized or wrapped position would merge them.  Entries include
    # negative and even ones.
    rng = random.Random(12)
    entries = set()
    for spread in (lambda j: 97 * j + 3, lambda j: 1024 * j + 5):
        for _ in range(30):
            inner, height = rng.randint(1, 3), rng.randint(1, 4)
            a = [[rng.randint(-3, 3) for _ in range(inner)] for _ in range(height)]
            b = [[rng.randint(-3, 3) for _ in range(12)] for _ in range(inner)]
            dense = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
            rows = [tuple((spread(j), x) for j, x in enumerate(row) if x) for row in dense]
            entries.update(x for row in dense for x in row)
            assert rank(rows, 2) == reference_rank(dense, 2)
    assert any(x < 0 and x % 2 for x in entries) and any(x and x % 2 == 0 for x in entries)
