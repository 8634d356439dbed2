import pytest
from catalogue import instances, presentation_for, two_cycle_presentation
from references import reference_ap_paths, reference_loop_pairs, reference_pairs, reference_rr_sets

from gentlehh import (Arrow, GentlePresentation, ParallelPairFamily, Path, Quiver, ap_paths,
                      build_complex, coinvariant_dim, hh_dims_oracle, hh_dims_rr, rotate,
                      rr_sets)
from gentlehh.linalg import rank


def test_ap0_and_ap1():
    p = presentation_for("fig8")
    assert len(ap_paths(p, 0)) == 7
    assert len(ap_paths(p, 1)) == 11


def test_fig8_ap_counts():
    p = presentation_for("fig8")
    # three relation chains per internal triangle, any length
    assert len(ap_paths(p, 2)) == 9
    assert len(ap_paths(p, 5)) == 9
    assert len(ap_paths(p, 13)) == 9


def test_ap_chains_are_relation_chains():
    p = presentation_for("fig8")
    for rho in ap_paths(p, 4):
        for i in range(3):
            assert (rho.arrows[i], rho.arrows[i + 1]) in p.relations


def test_fig8_degree0_family():
    p = presentation_for("fig8")
    fam = rr_sets(p, 0)
    assert len(fam.set_a) == 1
    (e_r, gamma), = fam.set_a
    # the annihilated cycle lives at the loop arc enclosing the (1,0) boundary
    assert p.quiver.vertices[e_r.source] == "t7"
    assert len(gamma.arrows) == 4


def test_fig8_degree1_family():
    p = presentation_for("fig8")
    fam = rr_sets(p, 1)
    assert len(fam.zero_zero) == 2
    sources = {p.quiver.arrow_name(rho.arrows[0]) for rho, _ in fam.zero_zero}
    assert sources == {"t3->t2", "t3->t4"}
    assert p.loop_pairs == ()


def test_fig8_higher_degrees_empty_families():
    p = presentation_for("fig8")
    for n in (2, 3, 4, 7):
        fam = rr_sets(p, n)
        assert fam.zero_zero == ()
        assert fam.empty_incomplete == ()


def test_complete_incomplete_partition_and_mod3():
    p = presentation_for("fig8")
    for n in range(2, 14):
        fam = rr_sets(p, n)
        cyclic = [(rho, g) for rho, g in p.parallel_pairs(n) if not g.arrows]
        closed = [(rho, g) for rho, g in cyclic
                  if (rho.arrows[-1], rho.arrows[0]) in p.relations]
        assert list(fam.complete) == closed
        if n % 3 == 0:
            assert len(fam.complete) == len(cyclic) == 9
            assert fam.gentle_orbits == 3
        else:
            assert cyclic == []


def test_rotation_orbits_have_order_three():
    p = presentation_for("fig8")
    fam = rr_sets(p, 6)
    assert len(fam.complete) == 9
    for rho, _ in fam.complete:
        assert rotate(p, rho) != rho
        # order 3, which divides the degree
        assert rotate(p, rotate(p, rotate(p, rho))) == rho


def test_rotate_round_trip():
    p = presentation_for("fig8")
    for rho, _ in rr_sets(p, 3).complete:
        assert rotate(p, rotate(p, rotate(p, rho))) == rho


def test_coinvariant_dims():
    p = presentation_for("fig8")
    assert coinvariant_dim(p, 3, 0) == 3
    assert coinvariant_dim(p, 4, 0) == 0
    assert coinvariant_dim(p, 4, 2) == 0
    assert coinvariant_dim(p, 6, 2) == 3
    assert coinvariant_dim(p, 12, 3) == 3
    with pytest.raises(ValueError):
        coinvariant_dim(p, 0, 0)


def test_hh_dims_rr_fig8_char0():
    p = presentation_for("fig8")
    table = hh_dims_rr(p, 0, 12)
    assert list(table.dims) == [2, 7, 0, 0, 0, 0, 3, 3, 0, 0, 0, 0, 3]


def test_hh_dims_rr_fig8_char2():
    p = presentation_for("fig8")
    table = hh_dims_rr(p, 2, 13)
    assert table.dims[3] == 3
    assert list(table.dims) == [2, 7, 0, 3, 3, 0, 3, 3, 0, 3, 3, 0, 3, 3]


def test_hh_dims_rr_square_disc():
    p = presentation_for("square-disc")
    for char in (0, 2, 5):
        table = hh_dims_rr(p, char, 9)
        assert list(table.dims) == [1] + [0] * 9


def test_hh_dims_rr_rejects_bad_characteristic():
    p = presentation_for("square-disc")
    with pytest.raises(ValueError):
        hh_dims_rr(p, 4, 5)


def test_odd_prime_matches_char0_on_fixtures():
    for name in ("fig8", "torus-T1"):
        p = presentation_for(name)
        assert hh_dims_rr(p, 7, 13).dims == hh_dims_rr(p, 0, 13).dims


def test_minimal_nmax():
    p = presentation_for("fig8")
    assert list(hh_dims_rr(p, 0, 1).dims) == [2, 7]
    with pytest.raises(ValueError):
        hh_dims_rr(p, 0, 0)


@pytest.mark.parametrize("vertices, ends, nmax, unreached, oracle", [
    (("u", "v", "w", "x"), ((0, 1), (2, 3)), 4, "w", (2, 0, 0, 0, 0)),
    (("a", "b"), (), 3, "b", (2, 0, 0, 0)),
    ((), (), 3, None, (0, 0, 0, 0)),  # the zero algebra
])
def test_rr_rejects_a_disconnected_quiver(vertices, ends, nmax, unreached, oracle):
    # rr's formulas assume a connected algebra; the oracle sums the components
    arrows = tuple(Arrow(i, s, t) for i, (s, t) in enumerate(ends))
    p = GentlePresentation(Quiver(vertices, arrows))
    fault = ("it has no vertices" if unreached is None
             else "vertex %s is not reachable" % unreached)
    with pytest.raises(ValueError, match="rr needs a connected quiver: " + fault):
        hh_dims_rr(p, 0, nmax)
    assert hh_dims_oracle(build_complex(p, nmax), 0, nmax).dims == oracle


def test_rr_counts_the_empty_incomplete_pair_of_the_two_cycle():
    p = two_cycle_presentation()
    assert p.violations == () and not p.periodic
    (pair,) = rr_sets(p, 2).empty_incomplete
    assert pair == (Path(0, (0, 1)), Path(0, ()))
    complex_ = build_complex(two_cycle_presentation(), 12)
    for char in (0, 2, 3, 5):
        for nmax in range(1, 13):
            expected = ((2, 1, 1) + (0,) * 10)[:nmax + 1]
            assert hh_dims_rr(p, char, nmax).dims == expected, (char, nmax)
            assert hh_dims_oracle(complex_, char, nmax).dims == expected, (char, nmax)


BRUTE_FORCE_GROUPS = ("fixtures", "polygons 4..8", "60-gon", "extra relations")
TOP = 15


@pytest.mark.parametrize("group", BRUTE_FORCE_GROUPS)
def test_cached_zero_paths_match_the_scratch_rebuild(group):
    for name, make in instances(group):
        ascending, top_first = make(), make()
        assert ascending is not top_first
        assert ap_paths(top_first, TOP) == tuple(reference_ap_paths(ascending, TOP)), name
        for n in range(TOP + 1):
            expected = tuple(reference_ap_paths(ascending, n))
            assert ap_paths(ascending, n) == expected, (name, n)
            assert ap_paths(top_first, n) == expected, (name, n)
            # the cached level itself, which no caller can change
            returned = ap_paths(ascending, n)
            assert returned is ascending.zero_paths(n), (name, n)
            with pytest.raises(AttributeError):
                returned.append(Path(0, ()))
            assert ap_paths(ascending, n) == expected, (name, n)
        with pytest.raises(ValueError):
            ap_paths(ascending, -1)


@pytest.mark.parametrize("group", BRUTE_FORCE_GROUPS)
def test_rr_families_match_the_brute_force_scan(group):
    for name, make in instances(group):
        p = make()
        assert p.loop_pairs == reference_loop_pairs(p), name
        for n in range(TOP + 1):
            assert p.parallel_pairs(n) == reference_pairs(p, n), (name, n)
            family, reference = rr_sets(p, n), reference_rr_sets(p, n)
            for field in ParallelPairFamily._fields:
                assert getattr(family, field) == getattr(reference, field), \
                    (name, n, field)
            assert family == reference
            if group == "extra relations" and n % 3 == 0 and n:
                assert len(family.complete) == 3


# References for the orbit counts: the coinvariant dimension as the
# cokernel rank of (1 - rotation) over the field, and the order of a pair
# as the least k with rotate^k(rho) == rho.

def reference_coinvariant_dim(p, family, char):
    members = [rho for rho, _ in family.complete]
    index = {rho: i for i, rho in enumerate(members)}
    rows = []
    for j, rho in enumerate(members):
        image = index[rotate(p, rho)]
        rows.append(((j, 1), (image, -1)) if image != j else ())
    return len(members) - rank(rows, char)


@pytest.mark.parametrize("group", BRUTE_FORCE_GROUPS)
def test_orbit_counts_match_the_rank_and_the_rotation_order(group):
    for name, make in instances(group):
        p = make()
        for n in range(1, TOP + 1):
            family = rr_sets(p, n)
            for char in (0, 2, 3):
                assert coinvariant_dim(p, n, char, family) == \
                    reference_coinvariant_dim(p, family, char), (name, n, char)
