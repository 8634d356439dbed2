"""Integral Hochschild cohomology: every D_n is diagonal over Z with
divisors 1 and 2 only, so one form per differential serves every field.

A dense Smith-form reference checks :func:`linalg.signed_form` on the
oracle's row shapes.  On the corpora the 2s sit in D_n for n = 4 (mod 6)
only, Int of them (Int = internal triangles), and the universal
coefficient theorem gives dim_F2 HH^n = dim_Q HH^n + t_n + t_{n+1}, t_n the
2s of D_n, and dim_Fp HH^n = dim_Q HH^n for every odd p.
"""

from math import gcd

from hypothesis import given, settings
from test_cochain import dense_of, minors, signed_graph_rows

from gentlehh import (build_complex, build_quiver, build_surface, builtin_fixtures,
                      generate_polygon_triangulations, hh_dims_oracle, hh_dims_rr,
                      internal_triangles, linalg)
from gentlehh.cochain import PERIOD_START
from gentlehh.report import compute_tables

LARGEST_PRIME = 2**31 - 1  # the largest characteristic accepted


def elementary_divisors(dense):
    """The nonzero Smith-form divisors of an integer matrix, from its
    determinantal divisors: the gcd d_k of the k x k minors is the product
    of the first k divisors."""
    divisors, previous = [], 1
    for k in range(1, min(len(dense), len(dense[0]) if dense else 0) + 1):
        d_k = gcd(*minors(dense, k))
        if not d_k:
            break
        divisors.append(d_k // previous)
        previous = d_k
    return divisors


@settings(max_examples=500, deadline=None)
@given(signed_graph_rows(oracle=True))
def test_signed_form_is_the_smith_form(drawn):
    rows, n_cols = drawn
    divisors = elementary_divisors(dense_of(rows, n_cols))
    assert set(divisors) <= {1, 2}
    assert linalg.signed_form(rows) == (len(divisors), divisors.count(2))


def test_unit_torsion_and_linked_full_components():
    # x0 + x1 is balanced; a 2-half-edge makes it hold a 2, an unbalanced
    # pair on x2, x3 holds another, and an edge joining them leaves one 2;
    # a unit half-edge then clears it
    pair = [((0, 1), (1, -1)), ((0, 2),), ((2, 1), (3, 1)), ((2, 1), (3, -1))]
    assert linalg.signed_form(pair[:1]) == (1, 0)
    assert linalg.signed_form(pair) == (4, 2)
    joined = pair + [((1, 1), (2, 1))]
    assert linalg.signed_form(joined) == (4, 1)
    assert linalg.signed_form(joined + [((3, -1),)]) == (4, 0)
    for rows in (pair, joined):
        divisors = elementary_divisors(dense_of(rows, 4))
        assert linalg.signed_form(rows) == (len(divisors), divisors.count(2))


def fixtures_and_polygons(top):
    found = [(f.name, f.surface) for f in builtin_fixtures()]
    return found + [(d.name, build_surface(d)) for n in range(4, top + 1)
                    for d in generate_polygon_triangulations(n)]


def test_torsion_is_int_in_degrees_4_mod_6_and_gives_the_char_2_tables():
    surfaces = fixtures_and_polygons(9)
    assert len(surfaces) == 5 + 624
    for name, surface in surfaces:
        p = build_quiver(surface)
        complex_ = build_complex(p, 13)
        forms, period = complex_.forms, complex_.period
        twos = [forms[n if n < len(forms) else PERIOD_START + (n - PERIOD_START) % period][1]
                for n in range(15)]
        int_count = len(internal_triangles(surface))
        assert twos == [int_count if n % 6 == 4 else 0 for n in range(15)], name
        rational = hh_dims_oracle(complex_, 0, 13).dims
        universal = tuple(rational[n] + twos[n] + twos[n + 1] for n in range(14))
        for table in (hh_dims_oracle(complex_, 2, 13), hh_dims_rr(p, 2, 13)):
            assert table.dims == universal, name
        for table in (hh_dims_oracle(complex_, 5, 13), hh_dims_rr(p, 5, 13)):
            assert table.dims == rational, name


def test_the_largest_accepted_prime_gives_the_rational_tables():
    for name, surface in fixtures_and_polygons(8):
        rational = compute_tables(surface, 0, 13)
        large = compute_tables(surface, LARGEST_PRIME, 13)
        assert len(large) == 4
        assert {m: t.dims for m, t in large.items()} == \
            {m: t.dims for m, t in rational.items()}, name
