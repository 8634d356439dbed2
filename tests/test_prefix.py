"""A table at nmax k is the first k + 1 entries of the table at nmax 20.

A presentation keeps its complex and its rr counts only when they are
the verified period, built at the first nmax asked, and every nmax
reads them; without a period it keeps nothing, and each call builds the
degrees its nmax needs.  So one presentation is asked at nmax 1..20 in
ascending order and then in descending order, every answer must be the
prefix of a fresh presentation's nmax-20 table, and the presentation
must hold its first build throughout, or none.  The closed formulas
keep nothing, and are checked the same way.
"""

import pytest
from test_pairs import two_cycle_presentation
from test_periodicity import chain_presentation, loop_quivers

from gentlehh import (GentlePresentation, Quiver, ag_invariant, build_complex,
                      build_quiver, build_surface, builtin_fixtures,
                      generate_polygon_triangulations, hh_dims_geometric,
                      hh_dims_ladkani, hh_dims_oracle, hh_dims_rr)

TOP = 20
CHARS = (0, 2, 3)
ORDER = tuple(range(1, TOP + 1)) + tuple(range(TOP, 0, -1))


def quiver_tables(p, char, nmax):
    return {"rr": hh_dims_rr(p, char, nmax).dims,
            "oracle": hh_dims_oracle(build_complex(p, nmax), char, nmax).dims}


def surface_tables(surface, p, char, nmax):
    tables = quiver_tables(p, char, nmax)
    tables["geometric"] = hh_dims_geometric(surface, char, nmax).table.dims
    tables["ladkani"] = hh_dims_ladkani(ag_invariant(surface), len(p.quiver.vertices),
                                        len(p.quiver.arrows), char, nmax).dims
    return tables


def assert_prefixes(name, tables, shared, fresh):
    """``tables(p, char, nmax)`` on the ``shared`` presentation at every
    nmax of ORDER against the nmax-TOP tables of the ``fresh`` one."""
    full = {char: tables(fresh, char, TOP) for char in CHARS}
    kept = None
    for nmax in ORDER:
        for char in CHARS:
            expected = {method: dims[:nmax + 1] for method, dims in full[char].items()}
            assert tables(shared, char, nmax) == expected, (name, nmax, char)
            if kept is None:
                kept = shared.complex, shared.rr_counts
            assert shared.complex is kept[0] and shared.rr_counts is kept[1], (name, nmax)
    assert (kept[0] is None) == (kept[1] is None) == (not shared.periodic), name


def surfaces():
    found = [(f.name, f.surface) for f in builtin_fixtures()]
    found += [(d.name, build_surface(d)) for n in range(4, 8)
              for d in generate_polygon_triangulations(n)]
    return found


def test_every_table_is_a_prefix_of_the_largest_on_surfaces():
    found = surfaces()
    assert len(found) == 5 + 2 + 5 + 14 + 42
    for name, surface in found:
        # an equal copy of the surface gets its own presentation
        fresh = build_quiver(surface._replace())
        shared = build_quiver(surface)
        assert shared is not fresh
        assert_prefixes(name, lambda p, char, nmax: surface_tables(surface, p, char, nmax),
                        shared, fresh)


@pytest.mark.parametrize("kind", ("chain", "two-cycle", "loops"))
def test_every_table_is_a_prefix_of_the_largest_on_quivers(kind):
    if kind == "chain":
        pairs = [("chain 4", chain_presentation(4), chain_presentation(4))]
    elif kind == "two-cycle":
        pairs = [("two-cycle", two_cycle_presentation(), two_cycle_presentation())]
    else:
        pairs = [("loop quiver %d" % i,
                  GentlePresentation(Quiver(vertices, arrows), (), relations),
                  GentlePresentation(Quiver(vertices, arrows), (), relations))
                 for i, (vertices, arrows, relations) in enumerate(loop_quivers(10, seed=0))]
    for name, shared, fresh in pairs:
        assert_prefixes(name, quiver_tables, shared, fresh)
