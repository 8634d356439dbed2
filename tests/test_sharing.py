"""One presentation, one complex and one set of rr counts per surface.

build_quiver hands back its last presentation for the same surface
object, and that presentation keeps one complex and one set of rr
counts, built for the largest nmax asked so far, so crosscheck's char 0
and char 2 analyses of a surface share everything that does not depend
on the characteristic, and a smaller nmax reads the kept build.
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


def test_one_build_serves_every_nmax_that_uses_the_period(monkeypatch):
    # torus-T1 repeats from degree 2 on, so the complex built for nmax 60
    # and its rr counts serve every smaller nmax too: asked largest first,
    # the presentation builds and checks each once
    surface = fixture_by_name("torus-T1").surface
    order = (60, 13, 8, 5, 4)
    expected = {(nmax, char): (hh_dims_oracle(build_complex(fresh, nmax), char, nmax),
                               hh_dims_rr(fresh, char, nmax))
                for nmax in order for char in (0, 2, 3)
                for fresh in [build_quiver(surface._replace())]}
    checks = counting(monkeypatch, cochain_module, "verify_complex_property")
    periods = counting(monkeypatch, cochain_module, "verify_period")
    families = counting(monkeypatch, pairs_module, "rr_sets")
    p = build_quiver(surface)
    kept = build_complex(p, 60)
    for nmax in order:
        assert build_complex(p, nmax) is kept is p.complex, nmax
        for char in (0, 2, 3):
            assert (hh_dims_oracle(kept, char, nmax),
                    hh_dims_rr(p, char, nmax)) == expected[nmax, char], (nmax, char)
    assert len(checks) == len(periods) == 1
    assert [n for _, n in families] == list(range(6))


def test_one_kept_complex_serves_every_smaller_nmax(monkeypatch):
    # nmax 8 already reaches degree BUILT_TOP, so it builds the periodic
    # complex that nmax 13 reads
    p = build_quiver(fixture_by_name("torus-T1").surface)
    assert build_complex(p, 8) is build_complex(p, 13)
    assert build_complex(p, 8).period
    # likewise nmax 5 reaches RR_BUILT_TOP and enumerates the rr period
    families = counting(monkeypatch, pairs_module, "rr_sets")
    for nmax in (5, 13):
        hh_dims_rr(p, 0, nmax)
    assert [n for _, n in families] == list(range(6))

    # without a period a larger nmax extends the kept build from its last
    # degree, and a smaller one reads the first degrees of the kept build
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
    assert build_complex(p, 35) is built[40] is p.complex
    assert len(checks) == 2
    assert built[10] is built[30] is not built[40]
    assert [len(b.bases) for b in built.values()] == [32, 32, 42]
    assert [n for _, n in families] == list(range(41))


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


def test_a_larger_nmax_extends_the_kept_build(monkeypatch):
    # torus-T1 asked at a growing nmax: nmax 5 extends the nmax-4 build by
    # one degree, nmax 8 reaches the period and extends it to BUILT_TOP,
    # and nmax 13 and 60 read it; the rr counts reach their period at 5
    surface = fixture_by_name("torus-T1").surface
    order = (4, 5, 8, 13, 60)
    expected = {(nmax, char): (hh_dims_oracle(build_complex(fresh, nmax), char, nmax),
                               hh_dims_rr(fresh, char, nmax))
                for nmax in order for char in (0, 2, 3)
                for fresh in [build_quiver(surface._replace())]}
    checks = counting(monkeypatch, cochain_module, "verify_complex_property")
    periods = counting(monkeypatch, cochain_module, "verify_period")
    forms = counting(monkeypatch, cochain_module, "signed_form")
    families = counting(monkeypatch, pairs_module, "rr_sets")
    p = build_quiver(surface._replace())
    kept = None
    for nmax in order:
        complex_ = build_complex(p, nmax)
        if kept is not None:
            # the degrees already built are the kept objects, not rebuilt
            for field in ("bases", "differentials", "forms"):
                old, new = getattr(kept, field), getattr(complex_, field)
                assert all(a is b for a, b in zip(old, new)), (nmax, field)
        kept = complex_
        for char in (0, 2, 3):
            assert (hh_dims_oracle(complex_, char, nmax),
                    hh_dims_rr(p, char, nmax)) == expected[nmax, char], (nmax, char)
    assert kept.period and len(kept.bases) == 10
    # every D_n is formed once and every D_{n+1} D_n checked once
    assert [next(n for n, d in enumerate(kept.differentials) if d is rows)
            for rows, in forms] == list(range(1, 9))
    assert [args[1] for args in checks] == [1, 5, 6]
    assert len(periods) == 1
    assert [n for _, n in families] == list(range(6))
