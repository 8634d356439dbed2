"""One verified period against the degree-by-degree reference.

build_complex and hh_dims_rr build one period of degrees and reuse it when
a presentation's zero paths repeat.  The references are the unverified
full builds of references.py: every degree of the complex assembled and
ranked up to nmax + 1, and the rr formula over rr_sets of every degree.
"""

import pytest
from catalogue import (chain_presentation, corpus, fresh, instances, loop_quivers,
                       presentation_for, random_polygon, replaced, surface_for)
from references import reference_complex, reference_oracle, reference_rr

from gentlehh import (Arrow, GentlePresentation, Path, Quiver, build_complex, build_quiver,
                      check_gentle, hh_dims_geometric, hh_dims_oracle, hh_dims_rr,
                      verify_period)
from gentlehh import cochain as cochain_module
from gentlehh import linalg
from gentlehh import pairs as pairs_module
from gentlehh.cochain import BUILT_TOP
from gentlehh.pairs import RR_BUILT_TOP

CHARS = (0, 2, 3, 5)


# the first condition each presentation of the "not periodic" group breaks
NOT_GENTLE = {"in at v0": "G3", "in at v1": "G3", "out at v0": "G3", "out at v1": "G3",
              "three arrows out of v0": "G1", "two free arrows after v0->v1": "G4"}

# the instance groups of each group of the tests below, and its nmax
GROUPS = {"fixtures": (("fixtures",), 20), "polygons 4..8": (("polygons 4..8",), 20),
          "60-gon": (("60-gon",), 20), "torus-T1 nmax 60": (("torus-T1",), 60),
          "torus-T1 nmax 240": (("torus-T1",), 240),
          "not periodic": (("chain 4", "two-cycle", "extra relations", "four-vertex"), 30)}


@pytest.mark.parametrize("group", tuple(GROUPS))
def test_periodic_tables_equal_the_full_build(group):
    groups, nmax = GROUPS[group]
    for name, make in instances(*groups):
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


@pytest.mark.parametrize("group", tuple(GROUPS)[:3])
def test_zero_paths_and_differentials_repeat_on_surfaces(group):
    groups, nmax = GROUPS[group]
    for name, make in instances(*groups):
        p = make()
        for n in range(2, nmax - 2):
            assert p.zero_paths(n + 3) == tuple(p.shift(rho) for rho in p.zero_paths(n)), \
                (name, n)
        _, differentials = reference_complex(p, nmax)
        for n in range(3, nmax - 4):
            assert differentials[n + 6] == differentials[n], (name, n)


def test_built_degrees_do_not_grow_with_nmax():
    surfaces = corpus(range(7, 8)) + [random_polygon(60, 11)]
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
    surfaces = corpus(range(4, 10)) + [random_polygon(60, 11), random_polygon(150, 1),
                                       random_polygon(200, 1)]
    assert len(surfaces) == 5 + 624 + 3
    for surface in surfaces:
        name = surface.name
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
    hh_dims_rr(presentation_for("torus-T1"), 0, 240)
    assert degrees == list(range(RR_BUILT_TOP + 1))


@pytest.mark.parametrize("char, ranked", [(0, []), (2, []), (3, [])])
def test_oracle_ranks_each_differential_of_one_period_once(monkeypatch, char, ranked):
    # build_complex reduces each of D_1..D_8 to its form once, for every
    # characteristic, and the oracle ranks nothing: D_6..D_8 are formed
    # for characteristic 2 too, which reads the one period of 6
    p = fresh(surface_for("torus-T1"))
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
    torus = presentation_for("torus-T1")
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
    p = presentation_for("torus-T1")
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

    p = presentation_for("torus-T1")
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
        hh_dims_rr(presentation_for("torus-T1"), 0, 60)


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
    presentations = [build_quiver(s) for s in corpus(range(4, 9)) + [random_polygon(60, 11)]]
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
