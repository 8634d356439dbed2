import pytest

from gentlehh import (Arrow, GentlePresentation, InfiniteDimensionalError,
                      Path, Quiver, build_quiver, check_gentle,
                      enumerate_basis, fixture_by_name)


def presentation_for(name):
    return build_quiver(fixture_by_name(name).surface())


def arrow_names(p):
    return {p.quiver.arrow_name(a.idx) for a in p.quiver.arrows}


def test_square_disc_quiver():
    p = presentation_for("square-disc")
    assert len(p.quiver.vertices) == 1
    assert len(p.quiver.arrows) == 0
    assert len(p.relations) == 0
    assert p.dimension() == 1


def test_annulus_quiver_is_kronecker():
    p = presentation_for("annulus(1,1)")
    assert len(p.quiver.vertices) == 2
    assert [(a.source, a.target) for a in p.quiver.arrows] == [(1, 0), (1, 0)]
    assert p.relations == frozenset()
    assert [pth.arrows for pth in p.basis] == [(), (), (0,), (1,)]
    assert p.dimension() == 4


def test_fig8_quiver_matches_figure():
    p = presentation_for("fig8")
    assert len(p.quiver.vertices) == 7
    assert len(p.quiver.arrows) == 11
    assert len(p.potential_cycles) == 3
    assert len(p.relations) == 9
    assert arrow_names(p) == {
        "t1->t5", "t5->t7", "t7->t1",
        "t1->t6", "t6->t2", "t2->t1",
        "t6->t5", "t5->t4", "t4->t6",
        "t3->t4", "t3->t2",
    }


def test_fig8_relations_are_cycle_subpaths():
    p = presentation_for("fig8")
    for c0, c1, c2 in p.potential_cycles:
        assert (c0, c1) in p.relations
        assert (c1, c2) in p.relations
        assert (c2, c0) in p.relations
    # every relation lies in exactly one potential cycle
    from collections import Counter
    count = Counter()
    for c0, c1, c2 in p.potential_cycles:
        count.update([(c0, c1), (c1, c2), (c2, c0)])
    assert set(count) == set(p.relations)
    assert all(v == 1 for v in count.values())


def test_torus_quivers():
    for name in ("torus-T1", "torus-T2"):
        p = presentation_for(name)
        assert len(p.quiver.vertices) == 12
        assert len(p.quiver.arrows) == 18
        assert len(p.potential_cycles) == 4
        assert len(p.relations) == 12
        assert check_gentle(p) == []


def test_fixture_presentations_are_gentle():
    for name in ("square-disc", "annulus(1,1)", "fig8"):
        assert check_gentle(presentation_for(name)) == []


def test_fig8_dimension_by_independent_recount():
    p = presentation_for("fig8")
    # breadth-first recount, independent of enumerate_basis internals
    paths = {(v, ()) for v in range(7)}
    frontier = [(a.source, (a.idx,)) for a in p.quiver.arrows]
    while frontier:
        paths.update(frontier)
        frontier = [
            (src, arrows + (b.idx,))
            for src, arrows in frontier
            for b in p.quiver.outgoing(p.quiver.arrows[arrows[-1]].target)
            if (arrows[-1], b.idx) not in p.relations
        ]
    assert p.dimension() == len(paths) == 33


def test_basis_ordering_and_closure():
    p = presentation_for("fig8")
    basis = p.basis
    keys = [b.sort_key() for b in basis]
    assert keys == sorted(keys)
    members = set(basis)
    for gamma in basis:
        tail = p.path_target(gamma)
        for b in p.quiver.outgoing(tail):
            extended = Path(gamma.source, gamma.arrows + (b.idx,))
            has_relation_suffix = bool(
                gamma.arrows and (gamma.arrows[-1], b.idx) in p.relations)
            assert (extended in members) != has_relation_suffix


def test_adjacency_is_the_arrow_scan_in_id_order():
    for name in ("annulus(1,1)", "fig8", "torus-T1"):
        quiver = presentation_for(name).quiver
        for v in range(len(quiver.vertices)):
            assert quiver.outgoing(v) == [a for a in quiver.arrows if a.source == v]
            assert quiver.incoming(v) == [a for a in quiver.arrows if a.target == v]


def test_g1_violation_reported_with_witnesses():
    quiver = Quiver(vertices=("u", "v", "w", "x"),
                    arrows=(Arrow(0, 0, 1), Arrow(1, 0, 2), Arrow(2, 0, 3)))
    violations = check_gentle(GentlePresentation(quiver))
    assert any(v.condition == "G1" and "3 outgoing" in v.message
               for v in violations)


def test_g3_and_g4_violations():
    # two relations starting at the same arrow violate G3
    quiver = Quiver(vertices=("u", "v", "w", "x"),
                    arrows=(Arrow(0, 0, 1), Arrow(1, 1, 2), Arrow(2, 1, 3)))
    p_rel = GentlePresentation(quiver, relations={(0, 1), (0, 2)})
    assert any(v.condition == "G3" for v in check_gentle(p_rel))
    # ... and with no relations the same shape violates G4
    p_free = GentlePresentation(quiver)
    assert any(v.condition == "G4" for v in check_gentle(p_free))


def test_relation_free_cycle_is_infinite_dimensional():
    quiver = Quiver(vertices=("u", "v"),
                    arrows=(Arrow(0, 0, 1), Arrow(1, 1, 0)))
    with pytest.raises(InfiniteDimensionalError):
        enumerate_basis(GentlePresentation(quiver))


def test_incomposable_relation_rejected():
    quiver = Quiver(vertices=("u", "v", "w"),
                    arrows=(Arrow(0, 0, 1), Arrow(1, 0, 2)))
    with pytest.raises(ValueError):
        GentlePresentation(quiver, relations={(0, 1)})
