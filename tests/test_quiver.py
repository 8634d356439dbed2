import random

import pytest
from catalogue import (VIOLATING, instances, presentation_for, random_small_presentation,
                       violating_presentation)

from gentlehh import (Arrow, GentlePresentation, InfiniteDimensionalError, Path, Quiver,
                      check_gentle, enumerate_basis)


def arrow_names(p):
    return {p.quiver.arrow_name(a.idx) for a in p.quiver.arrows}


def relation_cycles(p):
    """The relation 3-cycles (a, b, c), each listed from its least arrow,
    walked through the neighbour lists: b is the one relation successor of
    a, c the one of b, and a the one of c.  Asserts that the relations
    split into these cycles, each relation lying on exactly one."""
    cycles = set()
    for a, nb in enumerate(p.neighbours):
        for b in nb.rel_after:
            (c,) = p.neighbours[b].rel_after
            assert p.neighbours[c].rel_after == (a,) == p.neighbours[b].rel_before
            cycles.add(min((a, b, c), (b, c, a), (c, a, b)))
    subpaths = [pair for c0, c1, c2 in cycles for pair in ((c0, c1), (c1, c2), (c2, c0))]
    assert sorted(subpaths) == sorted(p.relations)
    return cycles


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
    assert len(relation_cycles(p)) == 3
    assert len(p.relations) == 9
    assert arrow_names(p) == {
        "t1->t5", "t5->t7", "t7->t1",
        "t1->t6", "t6->t2", "t2->t1",
        "t6->t5", "t5->t4", "t4->t6",
        "t3->t4", "t3->t2",
    }


def test_fig8_relations_are_cycle_subpaths():
    p = presentation_for("fig8")
    # every relation lies on exactly one relation 3-cycle, an oriented
    # 3-cycle of the quiver
    arrows = p.quiver.arrows
    for cycle in relation_cycles(p):
        for here, after in zip(cycle, cycle[1:] + cycle[:1]):
            assert arrows[here].target == arrows[after].source


def test_torus_quivers():
    for name in ("torus-T1", "torus-T2"):
        p = presentation_for(name)
        assert len(p.quiver.vertices) == 12
        assert len(p.quiver.arrows) == 18
        assert len(relation_cycles(p)) == 4
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
            for b in p.quiver.outgoing.get(p.quiver.arrows[arrows[-1]].target, ())
            if (arrows[-1], b.idx) not in p.relations
        ]
    assert p.dimension() == len(paths) == 33


def test_basis_ordering_and_closure():
    p = presentation_for("fig8")
    basis = p.basis
    keys = [(len(b.arrows), b.source, b.arrows) for b in basis]
    assert keys == sorted(keys)
    members = set(basis)
    for gamma in basis:
        tail = p.path_target(gamma)
        for b in p.quiver.outgoing.get(tail, ()):
            extended = Path(gamma.source, gamma.arrows + (b.idx,))
            has_relation_suffix = bool(
                gamma.arrows and (gamma.arrows[-1], b.idx) in p.relations)
            assert (extended in members) != has_relation_suffix


def test_adjacency_is_the_arrow_scan_in_id_order():
    for name in ("annulus(1,1)", "fig8", "torus-T1"):
        quiver = presentation_for(name).quiver
        for v in range(len(quiver.vertices)):
            assert quiver.outgoing.get(v, ()) == tuple(a for a in quiver.arrows
                                                       if a.source == v)
            assert quiver.incoming.get(v, ()) == tuple(a for a in quiver.arrows
                                                       if a.target == v)


def test_g1_violation_reported_with_witnesses():
    for name in ("three out of u", "three into x"):
        assert check_gentle(violating_presentation(name)) == VIOLATING[name][2]


def test_g3_and_g4_violations():
    for name in ("two relations after", "two free after",
                 "two relations before", "two free before"):
        assert check_gentle(violating_presentation(name)) == VIOLATING[name][2]


def reference_neighbours(p):
    """Per arrow, from a scan over all arrow pairs: the arrows before it in
    a relation with it, those before it without, then the same after it."""
    arrows, relations = p.quiver.arrows, p.relations
    return tuple(
        (tuple(b.idx for b in arrows if b.target == a.source and (b.idx, a.idx) in relations),
         tuple(b.idx for b in arrows if b.target == a.source and (b.idx, a.idx) not in relations),
         tuple(b.idx for b in arrows if b.source == a.target and (a.idx, b.idx) in relations),
         tuple(b.idx for b in arrows if b.source == a.target and (a.idx, b.idx) not in relations))
        for a in arrows)


def reference_turns(p):
    """Arrow a -> (a, b, c) for each relation 3-cycle, from a scan over all
    arrow triples, when each of a, b, c starts exactly one relation; a loop
    under its own relation is the cycle (a, a, a)."""
    arrows, relations = range(len(p.quiver.arrows)), p.relations

    def starts_one_relation(x):
        return sum((x, y) in relations for y in arrows) == 1

    return {a: (a, b, c) for a in arrows for b in arrows for c in arrows
            if {(a, b), (b, c), (c, a)} <= relations
            and all(starts_one_relation(x) for x in (a, b, c))}


@pytest.mark.parametrize("group", ("fixtures", "polygons 4..8", "60-gon", "extra relations",
                                   "hand-built violations", "loop quivers", "isolated vertex"))
def test_neighbour_table_matches_the_scan_over_all_arrow_pairs(group):
    made = instances(group)
    for name, make in made:
        p = make()
        assert p.neighbours == reference_neighbours(p), name
        assert p._turns == reference_turns(p), name
        assert p._isolated == {v for v in range(len(p.quiver.vertices))
                               if all(v not in (a.source, a.target)
                                      for a in p.quiver.arrows)}, name
        loops = [a for a in p.quiver.arrows if a.source == a.target]
        for a in loops:  # a loop is its own neighbour before and after
            nb = p.neighbours[a.idx]
            both = ((nb.rel_before, nb.rel_after) if (a.idx, a.idx) in p.relations
                    else (nb.free_before, nb.free_after))
            assert all(a.idx in side for side in both), name
    if group == "isolated vertex":
        assert p._isolated == {2} and p._turns == {1: (1, 1, 1)}
    if group in ("fixtures", "loop quivers"):
        assert any(make()._turns for _, make in made)


def test_relation_free_cycle_is_infinite_dimensional():
    quiver = Quiver(vertices=("u", "v"),
                    arrows=(Arrow(0, 0, 1), Arrow(1, 1, 0)))
    with pytest.raises(InfiniteDimensionalError):
        enumerate_basis(GentlePresentation(quiver))


def free_successors(p):
    """Per arrow, from a scan over all arrow pairs, the arrows following it
    without a relation."""
    return [[b.idx for b in p.quiver.arrows
             if b.source == a.target and (a.idx, b.idx) not in p.relations]
            for a in p.quiver.arrows]


def shortest_free_cycle(successors, start):
    """The length of the shortest relation-free cycle through ``start``, by
    breadth-first search, or None when there is none."""
    seen, frontier, length = set(), [start], 0
    while frontier:
        length += 1
        following = []
        for a in frontier:
            for b in successors[a]:
                if b == start:
                    return length
                if b not in seen:
                    seen.add(b)
                    following.append(b)
        frontier = following
    return None


def brute_force_basis(p, successors):
    """Every relation-free path, grown arrow by arrow from each arrow
    (finite, as the successor graph is acyclic), then sorted."""
    paths = [Path(v, ()) for v in range(len(p.quiver.vertices))]
    stack = [Path(a.source, (a.idx,)) for a in p.quiver.arrows]
    while stack:
        path = stack.pop()
        paths.append(path)
        stack.extend(Path(path.source, path.arrows + (b,))
                     for b in successors[path.arrows[-1]])
    return sorted(paths, key=lambda q: (len(q.arrows), q.source, q.arrows))


def test_finiteness_is_decided_by_the_relation_free_cycles():
    rng = random.Random(20261019)
    cycle_lengths, finite = set(), 0
    for _ in range(600):
        p = random_small_presentation(rng)
        successors = free_successors(p)
        on_cycle = {}
        for a in p.quiver.arrows:
            length = shortest_free_cycle(successors, a.idx)
            if length is not None:
                on_cycle[a.idx] = length
        if on_cycle:
            with pytest.raises(InfiniteDimensionalError) as err:
                enumerate_basis(p)
            named = str(err.value).rsplit(" ", 1)[-1]
            assert named in {p.quiver.arrow_name(a) for a in on_cycle}
            cycle_lengths.update(on_cycle.values())
        else:
            basis = enumerate_basis(p)
            assert max(len(path.arrows) for path in basis) <= len(p.quiver.arrows)
            assert basis == brute_force_basis(p, successors)
            finite += 1
    assert {1, 2, 3} <= cycle_lengths
    assert finite >= 100


def test_a_relation_free_cycle_raises_at_its_first_repeated_arrow(monkeypatch):
    # five loops at one vertex and no relations: every level k has 5^k paths,
    # and the level of length two already repeats an arrow
    import gentlehh.quiver as quiver_module
    built = []
    extend = quiver_module._extend

    def counting_extend(level, successors):
        result = extend(level, successors)
        built.append(len(result))
        return result

    monkeypatch.setattr(quiver_module, "_extend", counting_extend)
    p = GentlePresentation(Quiver(("v",), tuple(Arrow(i, 0, 0) for i in range(5))))
    with pytest.raises(InfiniteDimensionalError, match=r"through arrow v->v$"):
        enumerate_basis(p)
    assert sum(built) <= 25


def test_incomposable_relation_rejected():
    quiver = Quiver(vertices=("u", "v", "w"),
                    arrows=(Arrow(0, 0, 1), Arrow(1, 0, 2)))
    with pytest.raises(ValueError):
        GentlePresentation(quiver, relations={(0, 1)})


THREE_CYCLE = Quiver(("u", "v", "w"), (Arrow(0, 0, 1), Arrow(1, 1, 2), Arrow(2, 2, 0)))


@pytest.mark.parametrize("quiver, relations, message", [
    pytest.param(Quiver(("u", "v"), (Arrow(0, 0, 1), Arrow(1, 1, 5))), (),
                 r"arrow ends \[5\] are not vertex ids 0\.\.1", id="target"),
    pytest.param(Quiver(("u", "v"), (Arrow(0, -1, 1),)), (),
                 r"arrow ends \[-1\] are not vertex ids", id="source"),
    # a negative id would index from the end, and be dropped from the neighbour lists
    pytest.param(THREE_CYCLE, {(-1, 0)},
                 r"relations \[\(-1, 0\)\] are not composable pairs of arrow ids 0\.\.2",
                 id="negative"),
    pytest.param(THREE_CYCLE, {(2, 3)},
                 r"relations \[\(2, 3\)\] are not", id="too-large"),
    pytest.param(THREE_CYCLE, {(0, 1, 2)},
                 r"relations \[\(0, 1, 2\)\] are not", id="not-a-pair"),
    pytest.param(THREE_CYCLE, {(0, 2)},
                 r"relations \[\(0, 2\)\] are not", id="not-composable"),
    # a 3-cycle of arrow ids that are not the quiver's
    pytest.param(THREE_CYCLE, [(7, 8, 9)],
                 r"relations \[\(7, 8, 9\)\] are not", id="foreign-cycle"),
])
def test_ids_outside_the_quiver_rejected(quiver, relations, message):
    with pytest.raises(ValueError, match=message):
        GentlePresentation(quiver, relations)


def test_arrow_ids_out_of_position_rejected():
    # the neighbour lists, and so the unsorted path levels, are in id order
    # only when each arrow's id is its position
    quiver = Quiver(vertices=("u", "v", "w"),
                    arrows=(Arrow(1, 0, 1), Arrow(0, 1, 2)))
    with pytest.raises(ValueError, match="arrow ids"):
        GentlePresentation(quiver)

