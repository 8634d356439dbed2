"""One presentation, one complex and one set of rr counts per surface.

build_quiver hands back its last presentation for the same surface
object, and the complex and the rr counts are cached on that
presentation, so crosscheck's char 0 and char 2 analyses of a surface
share everything that does not depend on the characteristic.
"""

import gc
import weakref

from gentlehh import (build_complex, build_quiver, cli, fixture_by_name,
                      hh_dims_oracle, hh_dims_rr)
from gentlehh import cochain as cochain_module
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


def test_one_complex_per_nmax():
    p = build_quiver(fixture_by_name("torus-T1").surface)
    complex_ = build_complex(p, 13)
    assert build_complex(p, 13) is complex_
    assert build_complex(p, 60) is not complex_
    assert build_complex(p, 60) is build_complex(p, 60)


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
    assert (hh_dims_oracle(build_complex(p, 13), 0).dims
            != hh_dims_oracle(build_complex(p, 13), 2).dims)
