import pytest
from test_cochain import random_polygon

from gentlehh import (Arrow, GentlePresentation, ParallelPairFamily, Path,
                      Quiver, ap_paths, build_complex, build_quiver, build_surface,
                      builtin_fixtures, coinvariant_dim, fixture_by_name,
                      generate_polygon_triangulations, hh_dims_oracle,
                      hh_dims_rr, pair_order, rotate, rr_sets)
from gentlehh.linalg import rank


def presentation_for(name):
    return build_quiver(fixture_by_name(name).surface)


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
    assert fam.loop_pairs == ()


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
        cyclic = [(rho, g) for rho, g in fam.pairs if not g.arrows]
        assert len(fam.complete) + len(fam.incomplete) == len(cyclic)
        if n % 3 == 0:
            assert len(fam.gentle_complete) == len(fam.complete0) == len(cyclic) == 9
        else:
            assert cyclic == []


def test_rotation_orbits_have_order_three():
    p = presentation_for("fig8")
    fam = rr_sets(p, 6)
    assert len(fam.gentle_complete) == 9
    for pair in fam.gentle_complete:
        assert pair_order(p, pair) == 3
        assert 6 % pair_order(p, pair) == 0  # order divides the degree


def test_rotate_round_trip():
    p = presentation_for("fig8")
    for rho, _ in rr_sets(p, 3).gentle_complete:
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
])
def test_rr_rejects_a_disconnected_quiver(vertices, ends, nmax, unreached, oracle):
    # rr's formulas assume a connected algebra; the oracle sums the components
    arrows = tuple(Arrow(i, s, t) for i, (s, t) in enumerate(ends))
    p = GentlePresentation(Quiver(vertices, arrows))
    with pytest.raises(ValueError, match="vertex %s is not reachable" % unreached):
        hh_dims_rr(p, 0, nmax)
    assert hh_dims_oracle(build_complex(p, nmax), 0, nmax).dims == oracle


# Brute-force references: AP_n rebuilt from scratch for every degree, the
# pair scan over AP_n x basis, the complete0 test over every arrow, and the
# orbit count as the number of distinct rotation orbits.

def reference_ap_paths(p, n):
    if n == 0:
        return [Path(v, ()) for v in range(len(p.quiver.vertices))]
    chains = [Path(a.source, (a.idx,)) for a in p.quiver.arrows]
    for _ in range(n - 1):
        chains = [Path(c.source, c.arrows + (b.idx,)) for c in chains
                  for b in p.quiver.arrows if (c.arrows[-1], b.idx) in p.relations]
    return sorted(chains, key=lambda c: (len(c.arrows), c.source, c.arrows))


def reference_rr_sets(p, n):
    arrows, relations = p.quiver.arrows, p.relations
    ap = reference_ap_paths(p, n)
    pairs = tuple((rho, gamma) for rho in ap for gamma in p.basis
                  if rho.source == gamma.source
                  and p.path_target(rho) == p.path_target(gamma))

    def into(v):
        return [a.idx for a in arrows if a.target == v]

    def out_of(v):
        return [a.idx for a in arrows if a.source == v]

    def fully_annihilated(gamma):
        if not gamma.arrows:
            return not into(gamma.source) and not out_of(gamma.source)
        first, last = gamma.arrows[0], gamma.arrows[-1]
        return (all((b, first) in relations for b in into(arrows[first].source))
                and all((last, b) in relations for b in out_of(arrows[last].target)))

    def is_complete0(rho):
        first, last = rho.arrows[0], rho.arrows[-1]
        return not any((g.idx != last and (g.idx, first) in relations)
                       or (g.idx != first and (last, g.idx) in relations)
                       for g in arrows)

    fields = dict(ap=tuple(ap), pairs=pairs, set_a=(), zero_zero=(),
                  complete=(), incomplete=(), complete0=(), gentle_complete=(),
                  empty_incomplete=(),
                  loop_pairs=tuple((Path(a.source, (a.idx,)), Path(a.source, ()))
                                   for a in arrows if a.source == a.target),
                  gentle_orbits=0)
    if n == 0:
        fields["set_a"] = tuple((rho, g) for rho, g in pairs
                                if g.arrows and fully_annihilated(g))
        return ParallelPairFamily(**fields)
    fields["zero_zero"] = tuple(
        (rho, g) for rho, g in pairs
        if (not g.arrows or (g.arrows[0] != rho.arrows[0]
                             and g.arrows[-1] != rho.arrows[-1]))
        and fully_annihilated(g))
    cyclic = [(rho, g) for rho, g in pairs if not g.arrows]
    fields["complete"] = tuple((rho, g) for rho, g in cyclic
                               if (rho.arrows[-1], rho.arrows[0]) in relations)
    fields["incomplete"] = tuple((rho, g) for rho, g in cyclic
                                 if (rho.arrows[-1], rho.arrows[0]) not in relations)
    fields["complete0"] = tuple((rho, g) for rho, g in fields["complete"]
                                if is_complete0(rho))
    complete0 = {rho for rho, _ in fields["complete0"]}

    def orbit(rho):
        out = [rho]
        for _ in range(n - 1):
            out.append(rotate(p, out[-1]))
        return out

    fields["gentle_complete"] = tuple(
        (rho, g) for rho, g in fields["complete"]
        if all(r in complete0 for r in orbit(rho)))
    fields["gentle_orbits"] = len({frozenset(orbit(rho))
                                   for rho, _ in fields["gentle_complete"]})
    midpoints = {arrows[a].target for a, _ in relations}
    fields["empty_incomplete"] = tuple((rho, g) for rho, g in fields["incomplete"]
                                       if rho.source not in midpoints)
    return ParallelPairFamily(**fields)


def extra_relation_presentation(side, k):
    """Not gentle: the 3-cycle 0 -> 1 -> 2 -> 0 of arrows 0, 1, 2 (arrow i
    leaves vertex i) under its three relations, plus arrows 3 -> k and
    k -> 4 and one more relation at vertex k, into or out of the cycle.  It
    is the only way to reach the complete0 predicate, which holds for every
    complete pair of a gentle presentation.  At k = 0 the chain that fails
    it is the first complete pair in basis order, at k = 1 it is not."""
    arrows = (Arrow(0, 0, 1), Arrow(1, 1, 2), Arrow(2, 2, 0), Arrow(3, 3, k),
              Arrow(4, k, 4))
    extra = (3, k) if side == "in" else ((k - 1) % 3, 4)
    return GentlePresentation(Quiver(tuple("v%d" % i for i in range(5)), arrows),
                              [(0, 1, 2)], {(0, 1), (1, 2), (2, 0), extra})


def brute_force_instances(group):
    """(name, factory of a fresh presentation) for one group of instances."""
    if group == "fixtures":
        surfaces = [(f.name, f.surface) for f in builtin_fixtures()]
    elif group == "polygons 4..8":
        surfaces = [(d.name, build_surface(d)) for n in range(4, 9)
                    for d in generate_polygon_triangulations(n)]
    elif group == "60-gon":
        surfaces = [("60-gon", random_polygon(60, 11))]
    else:
        return [("%s at v%d" % (side, k),
                 lambda side=side, k=k: extra_relation_presentation(side, k))
                for side in ("in", "out") for k in (0, 1)]
    # an equal copy of the surface, so build_quiver cannot hand back the
    # presentation of the previous call
    return [(name, lambda s=s: build_quiver(s._replace())) for name, s in surfaces]


BRUTE_FORCE_GROUPS = ("fixtures", "polygons 4..8", "60-gon", "extra relations")
TOP = 15


@pytest.mark.parametrize("group", BRUTE_FORCE_GROUPS)
def test_cached_zero_paths_match_the_scratch_rebuild(group):
    for name, make in brute_force_instances(group):
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
    for name, make in brute_force_instances(group):
        p = make()
        for n in range(TOP + 1):
            family, reference = rr_sets(p, n), reference_rr_sets(p, n)
            for field in ParallelPairFamily._fields:
                assert getattr(family, field) == getattr(reference, field), \
                    (name, n, field)
            assert family == reference
            if group == "extra relations" and n % 3 == 0 and n:
                assert (len(family.complete), len(family.complete0)) == (3, 2)


# References for the orbit counts: the coinvariant dimension as the
# cokernel rank of (1 - rotation) over the field, and the order of a pair
# as the least k with rotate^k(rho) == rho.

def reference_coinvariant_dim(p, family, char):
    members = [rho for rho, _ in family.gentle_complete]
    index = {rho: i for i, rho in enumerate(members)}
    rows = []
    for j, rho in enumerate(members):
        image = index[rotate(p, rho)]
        rows.append(((j, 1), (image, -1)) if image != j else ())
    return len(members) - rank(rows, char)


def reference_pair_order(p, rho):
    current, k = rotate(p, rho), 1
    while current != rho:
        current, k = rotate(p, current), k + 1
    return k


@pytest.mark.parametrize("group", BRUTE_FORCE_GROUPS)
def test_orbit_counts_match_the_rank_and_the_rotation_order(group):
    for name, make in brute_force_instances(group):
        p = make()
        for n in range(1, TOP + 1):
            family = rr_sets(p, n)
            for char in (0, 2, 3):
                assert coinvariant_dim(p, n, char, family) == \
                    reference_coinvariant_dim(p, family, char), (name, n, char)
            for pair in family.complete:
                assert pair_order(p, pair) == reference_pair_order(p, pair[0]), \
                    (name, n, pair)
