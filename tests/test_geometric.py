import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gentlehh import (build_quiver, build_surface, builtin_fixtures,
                      fixture_by_name, generate_polygon_triangulations,
                      hh1_remark, hh_dims_geometric, internal_triangles)


def surface_for(name):
    return fixture_by_name(name).surface


def test_fig8_char0():
    result = hh_dims_geometric(surface_for("fig8"), 0, 13)
    assert list(result.table.dims) == [2, 7, 0, 0, 0, 0, 3, 3, 0, 0, 0, 0, 3, 3]
    assert result.cup_nontrivial
    assert result.bracket_nontrivial


def test_fig8_char2_tail_mod3():
    result = hh_dims_geometric(surface_for("fig8"), 2, 13)
    assert list(result.table.dims) == [2, 7, 0, 3, 3, 0, 3, 3, 0, 3, 3, 0, 3, 3]
    assert result.cup_nontrivial
    assert not result.bracket_nontrivial  # bracket flag needs characteristic 0


def test_square_disc_flags_off():
    for char in (0, 2):
        result = hh_dims_geometric(surface_for("square-disc"), char, 8)
        assert list(result.table.dims) == [1] + [0] * 8
        assert not result.cup_nontrivial
        assert not result.bracket_nontrivial


def test_torus_t1():
    # 18 arrows on 12 vertices with no type-0/1 boundary: HH^1 = 7, tail 4
    result = hh_dims_geometric(surface_for("torus-T1"), 0, 13)
    assert list(result.table.dims) == [1, 7, 0, 0, 0, 0, 4, 4, 0, 0, 0, 0, 4, 4]


def test_tail_periodicity_structure():
    s = surface_for("fig8")
    for char, period in ((0, 6), (2, 3)):
        dims = hh_dims_geometric(s, char, 2 + 3 * period).table.dims
        for n in range(2, len(dims) - period):
            assert dims[n] == dims[n + period]


def test_hh1_remark_values():
    assert hh1_remark(surface_for("fig8")) == 7
    assert hh1_remark(surface_for("square-disc")) == 0
    assert hh1_remark(surface_for("annulus(1,1)")) == 3
    assert hh1_remark(surface_for("torus-T1")) == 7
    assert hh1_remark(surface_for("torus-T2")) == 7


def test_hh1_remark_equals_quiver_expression():
    instances = [fixture_by_name(n).surface
                 for n in ("square-disc", "annulus(1,1)", "fig8",
                           "torus-T1", "torus-T2")]
    instances += [build_surface(t) for t in generate_polygon_triangulations(6)]
    for s in instances:
        p = build_quiver(s)
        from gentlehh import classify_boundaries
        b1 = sum(1 for pr in classify_boundaries(s) if pr.type_tag == "type1")
        assert hh1_remark(s) == 1 + b1 + len(p.quiver.arrows) - len(p.quiver.vertices)


def test_nmax_validation():
    with pytest.raises(ValueError):
        hh_dims_geometric(surface_for("fig8"), 0, 0)
    with pytest.raises(ValueError):
        hh_dims_geometric(surface_for("fig8"), 6, 13)


# the fixtures and the 8-gons: 0 to 4 internal triangles
SURFACES = ([f.surface for f in builtin_fixtures()]
            + [build_surface(t) for t in generate_polygon_triangulations(8)])


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SURFACES), st.sampled_from((0, 2, 3, 5)), st.integers(1, 60))
def test_geometric_tail_equals_the_per_degree_rule(surface, char, nmax):
    int_count = len(internal_triangles(surface))
    modulus = 3 if char == 2 else 6
    dims = hh_dims_geometric(surface, char, nmax).table.dims
    assert len(dims) == nmax + 1
    assert dims[2:] == tuple(int_count if n % modulus in (0, 1) else 0
                             for n in range(2, nmax + 1))
