import pytest
from catalogue import corpus, surface_for
from hypothesis import given, settings
from hypothesis import strategies as st

from gentlehh import (AGInvariant, ag_invariant, build_quiver, compare_ag, hh_dims_geometric,
                      hh_dims_ladkani, psi)
from gentlehh.pairs import parity_weights


def test_fig8_invariant():
    inv = ag_invariant(surface_for("fig8"))
    assert inv.as_dict() == {(0, 3): 3, (1, 0): 1, (1, 1): 2}


def test_torus_invariants():
    inv1 = ag_invariant(surface_for("torus-T1"))
    inv2 = ag_invariant(surface_for("torus-T2"))
    assert inv1.as_dict() == {(0, 3): 4, (3, 3): 2}
    assert inv2.as_dict() == {(0, 3): 4, (2, 2): 1, (4, 4): 1}
    assert inv2.multiplicity(3, 3) == 0


def test_annulus_invariant():
    assert ag_invariant(surface_for("annulus(1,1)")).as_dict() == {(1, 1): 2}


def test_psi_divisor_sum():
    inv = ag_invariant(surface_for("fig8"))
    assert psi(inv, 6) == 3   # the divisor 3 contributes
    assert psi(inv, 3) == 3
    assert psi(inv, 4) == 0
    assert psi(inv, 1) == 0
    with pytest.raises(ValueError):
        psi(inv, 0)


def test_ladkani_matches_geometric_on_fixtures():
    for s in corpus(()):
        p = build_quiver(s)
        inv = ag_invariant(s)
        for char in (0, 2):
            lad = hh_dims_ladkani(inv, len(p.quiver.vertices),
                                  len(p.quiver.arrows), char, 13)
            geo = hh_dims_geometric(s, char, 13).table
            assert lad.dims == geo.dims


def test_ladkani_annulus_hh1():
    s = surface_for("annulus(1,1)")
    inv = ag_invariant(s)
    table = hh_dims_ladkani(inv, 2, 2, 0, 5)
    assert table.dims[1] == 1 + 2 - 2 + inv.multiplicity(1, 1) == 3


def test_compare_torus_pair():
    outcome = compare_ag(ag_invariant(surface_for("torus-T1")),
                         ag_invariant(surface_for("torus-T2")))
    assert not outcome.equal
    assert outcome.witness == ((3, 3), 2, 0)
    assert outcome.verdict == "not derived equivalent"


def test_compare_reflexive():
    for name in ("torus-T1", "fig8"):
        inv = ag_invariant(surface_for(name))
        outcome = compare_ag(inv, inv)
        assert outcome.equal
        assert outcome.witness is None
        assert outcome.verdict == "no obstruction found"


def test_compare_fig8_vs_torus():
    outcome = compare_ag(ag_invariant(surface_for("fig8")),
                         ag_invariant(surface_for("torus-T1")))
    assert not outcome.equal
    assert outcome.verdict == "not derived equivalent"


def test_invariant_identities_on_fixtures():
    from gentlehh import classify_boundaries, internal_triangles
    for s in corpus(()):
        inv = ag_invariant(s)
        profiles = classify_boundaries(s)
        b0 = sum(1 for p in profiles if p.type_tag == "type0")
        b1 = sum(1 for p in profiles if p.type_tag == "type1")
        assert inv.multiplicity(1, 0) == b0
        assert inv.multiplicity(1, 1) == b1
        assert inv.multiplicity(0, 3) == len(internal_triangles(s))
        assert inv.multiplicity(1, 2) == 0
        for m in (1, 2, 4, 5, 6):
            assert inv.multiplicity(0, m) == 0
        boundary_pairs = sum(mult for (n, _), mult in inv.support if n != 0)
        assert boundary_pairs == len(s.boundary_components)


def test_no_pairs_one_n_with_n_at_least_two_on_corpus():
    # a component whose single arc-incident point sees m >= 2 fully incident
    # segments cannot exist; checked exhaustively on discs and fixtures
    for s in corpus(range(4, 8)):
        inv = ag_invariant(s)
        assert all(not (pair[0] == 1 and pair[1] >= 2)
                   for pair, _ in inv.support)


def test_serialized_lines_sorted():
    inv = AGInvariant.from_counts({(1, 1): 2, (0, 3): 3, (1, 0): 1})
    assert inv.lines() == ["(0, 3): 3", "(1, 0): 1", "(1, 1): 2"]


def test_multiplicity_and_psi_match_the_support_scan():
    import random
    rng = random.Random(3)
    for _ in range(200):
        counts = {(rng.randrange(3), rng.randrange(8)): rng.randrange(4)
                  for _ in range(rng.randrange(6))}
        inv = AGInvariant.from_counts(counts)

        def scanned(n, m):
            return sum(mult for pair, mult in inv.support if pair == (n, m))

        for n in range(3):
            for m in range(8):
                assert inv.multiplicity(n, m) == scanned(n, m)
        for n in range(1, 25):
            assert psi(inv, n) == sum(scanned(0, d) for d in range(1, n + 1) if n % d == 0)


# Support pairs (n, m) with small n, so (0, d) and (1, m) both occur, and
# pairs past nmax and (0, 0) too.
invariants = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 70)),
                             st.integers(0, 4), max_size=8).map(AGInvariant.from_counts)


@settings(max_examples=300, deadline=None)
@given(invariants, st.integers(1, 40), st.integers(0, 60),
       st.sampled_from((0, 2, 3, 5)), st.integers(1, 60))
def test_ladkani_tail_equals_the_per_degree_definition(inv, q0, q1, char, nmax):
    expected = [1 + inv.multiplicity(1, 0),
                1 + q1 - q0 + inv.multiplicity(1, 1)
                + (inv.multiplicity(0, 1) if char == 2 else 0)]
    for n in range(2, nmax + 1):
        a, b = parity_weights(char, n)
        expected.append(inv.multiplicity(1, n) + a * psi(inv, n) + b * psi(inv, n - 1))
    assert hh_dims_ladkani(inv, q0, q1, char, nmax).dims == tuple(expected)
