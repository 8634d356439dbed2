"""One verified period against the degree-by-degree reference.

build_complex and hh_dims_rr build one period of degrees and reuse it when
a presentation's zero paths repeat.  The references here are the
unverified full builds: every degree of the complex assembled and ranked
up to nmax + 1, and the rr formula over rr_sets of every degree.
"""

import random

import pytest
from test_cochain import random_polygon, replaced
from test_pairs import extra_relation_presentation, two_cycle_presentation

from gentlehh import (Arrow, GentlePresentation, InfiniteDimensionalError, Path,
                      Quiver, build_complex, build_quiver, build_surface,
                      builtin_fixtures, check_gentle, coinvariant_dim,
                      fixture_by_name, generate_polygon_triangulations,
                      hh_dims_geometric, hh_dims_oracle, hh_dims_rr, rr_sets,
                      verify_period)
from gentlehh import cochain as cochain_module
from gentlehh import linalg
from gentlehh import pairs as pairs_module
from gentlehh.cochain import BUILT_TOP
from gentlehh.linalg import nullity, rank
from gentlehh.pairs import RR_BUILT_TOP, parity_weights

CHARS = (0, 2, 3, 5)


def reference_complex(p, nmax):
    """Bases and D_1..D_{nmax+1}, every degree assembled."""
    arrows = p.quiver.arrows
    bases, differentials = [], [None]
    for n in range(nmax + 2):
        bases.append([(rho, gamma) for rho in p.zero_paths(n)
                      for gamma in p.parallel.get((rho.source, p.path_target(rho)), ())])
        if n == 0:
            continue
        columns = {pair: i for i, pair in enumerate(bases[n - 1])}
        sign = -1 if n % 2 else 1
        rows = []
        for rho, delta in bases[n]:
            entries = {}
            if delta.arrows and delta.arrows[0] == rho.arrows[0]:
                tail = Path(arrows[rho.arrows[0]].target, rho.arrows[1:])
                entries[columns[(tail, Path(tail.source, delta.arrows[1:]))]] = 1
            if delta.arrows and delta.arrows[-1] == rho.arrows[-1]:
                head = Path(rho.source, rho.arrows[:-1])
                col = columns[(head, Path(delta.source, delta.arrows[:-1]))]
                entries[col] = entries.get(col, 0) + sign
            rows.append(tuple(sorted((c, v) for c, v in entries.items() if v)))
        differentials.append(rows)
    return bases, differentials


def reference_oracle(bases, differentials, char):
    ranks = [0, len(bases[0]) - nullity(differentials[1], len(bases[0]), char)]
    ranks += [rank(differentials[n], char) for n in range(2, len(differentials))]
    return tuple(len(bases[n]) - ranks[n + 1] - ranks[n] for n in range(len(bases) - 1))


def reference_rr(p, char, nmax):
    families = [rr_sets(p, n) for n in range(nmax + 1)]
    coinv = [0] + [coinvariant_dim(p, n, char, families[n]) for n in range(1, nmax + 1)]
    dims = [1 + len(families[0].set_a),
            1 + len(families[1].zero_zero) + len(p.quiver.arrows) - len(p.quiver.vertices)
            + (len(p.loop_pairs) if char == 2 else 0)]
    for n in range(2, nmax + 1):
        a, b = parity_weights(char, n)
        dims.append(len(families[n].zero_zero) + len(families[n].empty_incomplete)
                    + a * coinv[n] + b * coinv[n - 1])
    return tuple(dims)


def chain_presentation(length):
    """Not from a surface: the path 0 -> 1 -> ... -> length with every
    composable pair a relation, so the zero paths stop at degree length
    and never repeat."""
    arrows = tuple(Arrow(i, i, i + 1) for i in range(length))
    return GentlePresentation(Quiver(tuple("v%d" % i for i in range(length + 1)), arrows),
                              {(i, i + 1) for i in range(length - 1)})


def four_vertex_presentation(ends, relation):
    """The arrows ``ends`` on v0..v3 under the one ``relation``, whose
    zero path of degree 2 ends the zero paths: finite, connected and
    without a period."""
    return GentlePresentation(Quiver(("v0", "v1", "v2", "v3"),
                                     tuple(Arrow(i, s, t) for i, (s, t) in enumerate(ends))),
                              {relation})


# the first condition each presentation of the "not periodic" group breaks
NOT_GENTLE = {"in at v0": "G3", "in at v1": "G3", "out at v0": "G3", "out at v1": "G3",
              "three arrows out of v0": "G1", "two free arrows after v0->v1": "G4"}


def instances(group):
    """(name, presentation factory, nmax) for one group."""
    if group == "fixtures":
        surfaces = [(f.name, f.surface) for f in builtin_fixtures()]
    elif group == "polygons 4..8":
        surfaces = [(d.name, build_surface(d)) for n in range(4, 9)
                    for d in generate_polygon_triangulations(n)]
    elif group == "60-gon":
        surfaces = [("60-gon", random_polygon(60, 11))]
    elif group.startswith("torus-T1"):
        nmax = int(group.split()[-1])
        surface = fixture_by_name("torus-T1").surface
        return [("torus-T1", lambda: build_quiver(surface._replace()), nmax)]
    else:
        made = [("chain 4", lambda: chain_presentation(4)),
                ("two-cycle", two_cycle_presentation)]
        made += [("%s at v%d" % (side, k), lambda side=side, k=k: extra_relation_presentation(side, k))
                 for side in ("in", "out") for k in (0, 1)]
        made += [("three arrows out of v0",
                  lambda: four_vertex_presentation(((0, 1), (0, 2), (0, 3), (1, 0)), (3, 0))),
                 ("two free arrows after v0->v1",
                  lambda: four_vertex_presentation(((0, 1), (1, 2), (1, 3), (2, 0)), (1, 3)))]
        return [(name, make, 30) for name, make in made]
    # an equal copy of the surface, so build_quiver cannot hand back the
    # presentation of the previous call
    return [(name, lambda s=s: build_quiver(s._replace()), 20) for name, s in surfaces]


GROUPS = ("fixtures", "polygons 4..8", "60-gon", "torus-T1 nmax 60",
          "torus-T1 nmax 240", "not periodic")


@pytest.mark.parametrize("group", GROUPS)
def test_periodic_tables_equal_the_full_build(group):
    for name, make, nmax in instances(group):
        p, reference = make(), make()
        assert p is not reference
        assert p.periodic == (group != "not periodic"), name
        complex_ = build_complex(p, nmax)
        full = reference_complex(reference, nmax)
        # rr refuses a presentation that is not gentle; the oracle serves it
        violations = check_gentle(reference)
        condition = violations[0].condition if violations else None
        assert condition == NOT_GENTLE.get(name), name
        for char in CHARS:
            assert hh_dims_oracle(complex_, char, nmax).dims == reference_oracle(*full, char), \
                (name, char)
            if condition:
                with pytest.raises(ValueError,
                                   match="rr needs a gentle presentation: %s: " % condition):
                    hh_dims_rr(p, char, nmax)
                continue
            assert hh_dims_rr(p, char, nmax).dims == reference_rr(reference, char, nmax), \
                (name, char)
        # a presentation keeps a build only when it is the verified period
        assert (p.complex is None) == (not p.periodic), name
        assert (p.rr_counts is None) == (bool(condition) or not p.periodic), name


@pytest.mark.parametrize("group", GROUPS[:3])
def test_zero_paths_and_differentials_repeat_on_surfaces(group):
    for name, make, nmax in instances(group):
        p = make()
        for n in range(2, nmax - 2):
            assert p.zero_paths(n + 3) == tuple(p.shift(rho) for rho in p.zero_paths(n)), \
                (name, n)
        _, differentials = reference_complex(p, nmax)
        for n in range(3, nmax - 4):
            assert differentials[n + 6] == differentials[n], (name, n)


def test_built_degrees_do_not_grow_with_nmax():
    surfaces = ([f.surface for f in builtin_fixtures()]
                + [build_surface(d) for d in generate_polygon_triangulations(7)]
                + [random_polygon(60, 11)])
    for surface in surfaces:
        p = build_quiver(surface)
        sizes = set()
        for nmax in (13, 60, 240):
            complex_ = build_complex(p, nmax)
            assert complex_ is build_complex(p, 13)
            assert len(complex_.bases) == len(complex_.differentials) <= 10
            sizes.add(len(complex_.bases))
        assert sizes == {BUILT_TOP + 1}, surface.name


def test_every_surface_builds_its_period_at_nmax_1():
    # build_complex and hh_dims_rr build the one period whatever nmax is
    # asked, so no surface should reach the degree-by-degree build
    surfaces = ([(f.name, f.surface) for f in builtin_fixtures()]
                + [(d.name, build_surface(d)) for n in range(4, 10)
                   for d in generate_polygon_triangulations(n)]
                + [(s.name, s) for s in (random_polygon(60, 11), random_polygon(150, 1),
                                         random_polygon(200, 1))])
    assert len(surfaces) == 5 + 624 + 3
    for name, surface in surfaces:
        p = build_quiver(surface)
        assert p.periodic, name
        complex_ = build_complex(p, 1)
        assert complex_.period == 6, name
        for char in CHARS:
            assert (hh_dims_oracle(complex_, char, 1).dims
                    == hh_dims_geometric(surface, char, 13).table.dims[:2]), (name, char)


def test_rr_enumerates_one_period(monkeypatch):
    degrees = []
    original = pairs_module.rr_sets

    def counting(presentation, n):
        degrees.append(n)
        return original(presentation, n)

    monkeypatch.setattr(pairs_module, "rr_sets", counting)
    hh_dims_rr(build_quiver(fixture_by_name("torus-T1").surface), 0, 240)
    assert degrees == list(range(RR_BUILT_TOP + 1))


@pytest.mark.parametrize("char, ranked", [(0, []), (2, []), (3, [])])
def test_oracle_ranks_each_differential_of_one_period_once(monkeypatch, char, ranked):
    # build_complex reduces each of D_1..D_8 to its form once, for every
    # characteristic, and the oracle ranks nothing: D_6..D_8 are formed
    # for characteristic 2 too, which reads the one period of 6
    p = build_quiver(fixture_by_name("torus-T1").surface._replace())
    formed = []
    original = cochain_module.signed_form
    monkeypatch.setattr(cochain_module, "signed_form",
                        lambda rows: formed.append(rows) or original(rows))
    complex_ = build_complex(p, 13)
    assert [next(n for n, d in enumerate(complex_.differentials) if d is rows)
            for rows in formed] == [1, 2, 3, 4, 5, 6, 7, 8]
    expected = reference_oracle(*reference_complex(p, 13), char)

    calls = []
    for module, names in ((cochain_module, ("rank", "nullity", "signed_form")),
                          (linalg, ("rank", "nullity", "signed_form", "_eliminate"))):
        for name in names:
            monkeypatch.setattr(module, name, lambda *args, name=name: calls.append(name))
    table = hh_dims_oracle(complex_, char, 13)
    assert calls == ranked
    assert table.dims == expected


def test_rr_tail_note_names_the_period_only_when_it_is_used():
    torus = build_quiver(fixture_by_name("torus-T1").surface)
    for char, nmax in ((0, 13), (2, 60)):
        assert hh_dims_rr(torus, char, nmax).tail_note == \
            "degrees 0..5 enumerated, then period 3"
    assert hh_dims_rr(torus, 0, RR_BUILT_TOP).tail_note == "computed degree by degree"
    assert hh_dims_rr(chain_presentation(4), 0, 30).tail_note == \
        "computed degree by degree"


def test_presentation_without_a_period_builds_every_degree():
    complex_ = build_complex(chain_presentation(4), 30)
    assert complex_.period == 0
    assert len(complex_.bases) == len(complex_.differentials) == 32


def torus_complex():
    p = build_quiver(fixture_by_name("torus-T1").surface)
    return p, build_complex(p, 240)


@pytest.mark.parametrize("degree", range(3, BUILT_TOP + 1))
def test_a_perturbed_row_in_the_built_period_raises(degree):
    p, complex_ = torus_complex()
    verify_period(p, complex_)
    rows = complex_.differentials[degree]
    k = next(k for k, row in enumerate(rows) if row)
    (col, value), *rest = rows[k]
    perturbed = complex_._replace(differentials=replaced(
        complex_.differentials, degree, replaced(rows, k, ((col, 2 * value), *rest))))
    with pytest.raises(AssertionError, match="D_"):
        verify_period(p, perturbed)
    verify_period(p, complex_)


def test_a_wrong_shift_raises(monkeypatch):
    p, complex_ = torus_complex()
    bases = complex_.bases[5]
    swapped = (bases[-1],) + bases[1:-1] + (bases[0],)
    with pytest.raises(AssertionError, match="bases"):
        verify_period(p, complex_._replace(bases=replaced(complex_.bases, 5, swapped)))

    p = build_quiver(fixture_by_name("torus-T1").surface)
    assert p.periodic
    two_thirds_of_a_turn = lambda rho: Path(rho.source, rho.arrows[:2] + rho.arrows)  # noqa: E731
    monkeypatch.setattr(p, "shift", two_thirds_of_a_turn)
    with pytest.raises(AssertionError, match="bases"):
        build_complex(p, 240)


def test_rr_counts_that_break_the_period_raise(monkeypatch):
    original = pairs_module.rr_sets

    def off_by_one_at_the_check(presentation, n):
        family = original(presentation, n)
        return family._replace(gentle_orbits=family.gentle_orbits + (n == RR_BUILT_TOP))

    monkeypatch.setattr(pairs_module, "rr_sets", off_by_one_at_the_check)
    with pytest.raises(AssertionError, match="rr counts"):
        hh_dims_rr(build_quiver(fixture_by_name("torus-T1").surface), 0, 60)


def random_loop_quiver(rng):
    """Vertices, arrows and relations of a quiver on at most 6 vertices with
    one or two loops, each loop a under the relation (a, a), and each other
    composable pair a relation with probability 1/2."""
    k = rng.randint(1, 6)
    ends = [(v, v) for v in rng.sample(range(k), rng.randint(1, min(k, 2)))]
    ends += [(rng.randrange(k), rng.randrange(k)) for _ in range(rng.randint(k - 1, k + 2))]
    arrows = tuple(Arrow(i, s, t) for i, (s, t) in enumerate(ends))
    relations = {(a.idx, b.idx) for a in arrows for b in arrows
                 if a.target == b.source and (a == b or rng.random() < 0.5)}
    return tuple("v%d" % v for v in range(k)), arrows, relations


def loop_quivers(count, seed):
    """``count`` draws of :func:`random_loop_quiver` whose presentation is
    connected, gentle and finite dimensional."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        vertices, arrows, relations = drawn = random_loop_quiver(rng)
        reached = {0}
        for _ in vertices:
            reached |= {w for a in arrows if {a.source, a.target} & reached
                        for w in (a.source, a.target)}
        p = GentlePresentation(Quiver(vertices, arrows), relations)
        if len(reached) < len(vertices) or check_gentle(p):
            continue
        try:
            p.basis
        except InfiniteDimensionalError:
            continue
        found.append(drawn)
    return found


def test_a_loop_under_its_own_relation_is_its_own_turn():
    # k[a]/(a^2): HH^n is 1 for n >= 1, and 2 in characteristic 2, where
    # the loop adds to HH^1
    p = GentlePresentation(Quiver(("v",), (Arrow(0, 0, 0),)), {(0, 0)})
    assert p.periodic
    assert p.shift(Path(0, (0, 0))) == Path(0, (0,) * 5) == p.zero_paths(5)[0]
    assert len(p.loop_pairs) == 1
    for char, tail in ((0, 1), (2, 2), (3, 1)):
        assert hh_dims_rr(p, char, 14).dims == (2,) + (tail,) * 14
        assert hh_dims_oracle(build_complex(p, 14), char, 14).dims == (2,) + (tail,) * 14


def test_presentations_with_loops_agree_and_their_period_is_exact():
    periodic = 0
    for vertices, arrows, relations in loop_quivers(44, seed=0):
        p, full = (GentlePresentation(Quiver(vertices, arrows), relations)
                   for _ in range(2))
        full.periodic = False  # the degree-by-degree reference
        assert p.loop_pairs
        periodic += p.periodic
        for char in (0, 2, 3):
            rr = hh_dims_rr(p, char, 14).dims
            assert rr == hh_dims_oracle(build_complex(p, 14), char, 14).dims
            assert rr == hh_dims_rr(full, char, 14).dims
            assert rr == hh_dims_oracle(build_complex(full, 14), char, 14).dims
    assert periodic >= 30


def test_every_oracle_rank_is_a_signed_graph_count(monkeypatch):
    # each row of D_n has at most two terms, a_1 f(...) and +-f(...) a_n, so
    # the oracle never needs elimination; were a rank to fall back to it
    # silently, this would raise
    def no_elimination(rows, char):
        raise AssertionError("a differential was ranked by elimination")

    monkeypatch.setattr(linalg, "_eliminate", no_elimination)
    presentations = [build_quiver(f.surface) for f in builtin_fixtures()]
    presentations += [build_quiver(build_surface(d)) for n in range(4, 9)
                      for d in generate_polygon_triangulations(n)]
    presentations.append(build_quiver(random_polygon(60, 11)))
    for vertices, arrows, relations in loop_quivers(44, seed=0):
        p, full = (GentlePresentation(Quiver(vertices, arrows), relations)
                   for _ in range(2))
        full.periodic = False  # every degree built and ranked
        presentations += [p, full]
    assert len(presentations) == 5 + 195 + 1 + 88
    for p in presentations:
        complex_ = build_complex(p, 13)
        for char in CHARS:
            hh_dims_oracle(complex_, char, 13)
