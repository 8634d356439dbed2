"""One presentation, one complex and one set of rr counts per surface.

build_quiver hands back its last presentation for the same surface
object, and that presentation keeps one complex and one set of rr
counts, so crosscheck's char 0 and char 2 analyses of a surface share
everything that does not depend on the characteristic.  A presentation
keeps a build only when it is the verified period: every surface's zero
paths repeat, so both are one period, built on first use whatever nmax
is asked, and serve every nmax.  A presentation without a period (the
chain quiver here) keeps nothing, and each call builds the degrees its
nmax needs.
"""

import gc
import weakref

from test_periodicity import (chain_presentation, reference_complex, reference_oracle,
                              reference_rr)

from gentlehh import (build_complex, build_quiver, build_surface, cli, fixture_by_name,
                      generate_polygon_triangulations, hh_dims_oracle, hh_dims_rr,
                      rr_sets)
from gentlehh import cochain as cochain_module
from gentlehh import pairs as pairs_module
from gentlehh import quiver as quiver_module
from gentlehh import report as report_module


def counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_crosscheck_builds_each_surface_once(monkeypatch, capsys):
    bases = counting(monkeypatch, quiver_module, "enumerate_basis")
    checks = counting(monkeypatch, cochain_module, "verify_complex_property")
    quivers = counting(monkeypatch, report_module, "build_quiver")
    assert cli.main(["crosscheck", "fixtures", "--polygons", "4..6"]) == 0
    assert "26 instance(s), 0 disagreement(s)" in capsys.readouterr().out
    assert len(bases) == len(checks) == 26
    assert len(quivers) == 2 * 26


def test_the_presentation_is_shared_by_identity_only():
    surface = fixture_by_name("fig8").surface
    p = build_quiver(surface)
    assert build_quiver(surface) is p
    equal = surface._replace()
    assert equal == surface
    assert build_quiver(equal) is not p


def test_a_replaced_presentation_is_released():
    ref = weakref.ref(build_quiver(fixture_by_name("torus-T1").surface))
    build_quiver(fixture_by_name("annulus(1,1)").surface)
    gc.collect()
    assert ref() is None


def served_in_order(monkeypatch, order):
    # asks a fresh torus-T1 presentation at each nmax of order in turn and
    # checks that the first build serves all of them, built, checked and
    # formed once, with the rr period enumerated once
    surface = fixture_by_name("torus-T1").surface
    expected = {(nmax, char): (hh_dims_oracle(build_complex(fresh, nmax), char, nmax),
                               hh_dims_rr(fresh, char, nmax))
                for nmax in order for char in (0, 2, 3)
                for fresh in [build_quiver(surface._replace())]}
    checks = counting(monkeypatch, cochain_module, "verify_complex_property")
    periods = counting(monkeypatch, cochain_module, "verify_period")
    forms = counting(monkeypatch, cochain_module, "signed_form")
    families = counting(monkeypatch, pairs_module, "rr_sets")
    p = build_quiver(surface._replace())
    kept = build_complex(p, order[0])
    for nmax in order:
        assert build_complex(p, nmax) is kept is p.complex, nmax
        for char in (0, 2, 3):
            assert (hh_dims_oracle(kept, char, nmax),
                    hh_dims_rr(p, char, nmax)) == expected[nmax, char], (nmax, char)
    assert kept.period and len(kept.bases) == 10
    # every D_n is formed once and every D_{n+1} D_n checked once
    assert [next(n for n, d in enumerate(kept.differentials) if d is rows)
            for rows, in forms] == list(range(1, 9))
    assert len(checks) == len(periods) == 1
    assert [n for _, n in families] == list(range(6))


def test_one_build_serves_every_nmax_that_uses_the_period(monkeypatch):
    # torus-T1 repeats from degree 2 on, so the nmax asked first builds,
    # checks and forms the one period and enumerates the rr period, and
    # every smaller nmax reads them
    served_in_order(monkeypatch, (60, 13, 8, 5, 4))


def test_a_larger_nmax_extends_the_kept_build(monkeypatch):
    # asked at a growing nmax, torus-T1 builds its period at nmax 4, and
    # the period extends the kept build to nmax 5, 8, 13 and 60 without
    # building, checking or forming any degree again
    served_in_order(monkeypatch, (4, 5, 8, 13, 60))


def test_one_kept_complex_serves_every_smaller_nmax(monkeypatch):
    # torus-T1 repeats, so even nmax 1 builds the periodic complex and
    # enumerates the rr period, and each first build is the object every
    # later nmax and characteristic gets back
    p = build_quiver(fixture_by_name("torus-T1").surface._replace())
    families = counting(monkeypatch, pairs_module, "rr_sets")
    first = build_complex(p, 1)
    assert first.period and len(first.bases) == 10
    hh_dims_rr(p, 0, 1)
    counts = p.rr_counts
    for nmax in (1, 8, 13, 60):
        assert build_complex(p, nmax) is first is p.complex, nmax
        for char in (0, 2, 3):
            hh_dims_rr(p, char, nmax)
            assert p.rr_counts is counts, (nmax, char)
    assert type(counts) is tuple
    assert [n for _, n in families] == list(range(6))

    # without a period each call builds the degrees its nmax needs, on the
    # presentation's levels, and the presentation keeps neither build
    checks = counting(monkeypatch, cochain_module, "verify_complex_property")
    del families[:]
    p, reference = chain_presentation(4), chain_presentation(4)
    built = {}
    for nmax in (30, 10, 40):
        built[nmax] = build_complex(p, nmax)
        for char in (0, 2):
            assert (hh_dims_oracle(built[nmax], char, nmax).dims
                    == reference_oracle(*reference_complex(reference, nmax), char)), nmax
            assert hh_dims_rr(p, char, nmax).dims == reference_rr(reference, char, nmax)
        assert p.complex is None and p.rr_counts is None, nmax
    assert len(checks) == 3
    assert [len(b.bases) for b in built.values()] == [32, 12, 42]
    assert all(a is b for a, b in zip(built[30].bases, built[40].bases))
    assert [n for _, n in families] == [n for nmax in (30, 10, 40) for _ in (0, 2)
                                        for n in range(nmax + 1)]


def test_cached_objects_serve_every_characteristic():
    # torus-T1 has different tables at char 0 and 2; every analysis of the
    # one shared surface must match the analysis of a fresh copy
    surface = fixture_by_name("torus-T1").surface
    runs = [(nmax, char) for nmax in (4, 13, 60) for char in (0, 2, 3, 0, 2)]
    expected = {(nmax, char): report_module.analyze(surface._replace(), char, nmax).tables
                for nmax, char in runs}
    for nmax, char in runs:
        assert report_module.analyze(surface, char, nmax).tables == \
            expected[nmax, char], (nmax, char)
    p = build_quiver(surface)
    assert hh_dims_rr(p, 0, 13).dims != hh_dims_rr(p, 2, 13).dims
    assert (hh_dims_oracle(build_complex(p, 13), 0, 13).dims
            != hh_dims_oracle(build_complex(p, 13), 2, 13).dims)


def test_levels_are_shared_tuples():
    # every table the quiver, the presentation and the complex hand out is
    # a tuple built once: the rr families and the complex hold the
    # presentation's levels themselves, not copies.  The 7-gon has an
    # internal triangle, so no AP_n is the (shared) empty tuple.
    heptagon = next(s for s in map(build_surface, generate_polygon_triangulations(7))
                    if s.internal)
    for surface in (fixture_by_name("torus-T1").surface, heptagon):
        p = build_quiver(surface)
        complex_ = build_complex(p, 13)
        assert type(complex_.bases) is type(complex_.differentials) is tuple
        assert len(complex_.bases) == len(complex_.differentials) == 10
        for n in range(len(complex_.bases)):
            assert complex_.bases[n] is p.parallel_pairs(n), (surface.name, n)
            family = rr_sets(p, n)
            assert family.ap and family.ap is p.zero_paths(n), (surface.name, n)
            assert family.pairs is p.parallel_pairs(n), (surface.name, n)
        assert sum(map(bool, complex_.bases)) >= 7
        assert all(type(rows) is tuple for rows in complex_.differentials[1:])
        adjacency = list(p.quiver.outgoing.values()) + list(p.quiver.incoming.values())
        assert adjacency and all(type(arrows) is tuple for arrows in adjacency)
        assert p.parallel and all(type(paths) is tuple for paths in p.parallel.values())
