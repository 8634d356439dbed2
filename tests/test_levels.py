"""Path levels, parallel pairs, rr families and complex rows, each built in
one pass per degree, against references that sort, scan or filter afresh.

The corpora: the fixtures, every triangulation of the 4- to 8-gons, the
seeded loop quivers of test_periodicity with the 2-cycle of test_pairs,
all gentle, and the random presentations of test_quiver, which break G3
and G4 and may be infinite dimensional.
"""

import random

import pytest
from test_pairs import reference_ap_paths, two_cycle_presentation
from test_periodicity import loop_quivers, reference_complex
from test_quiver import random_small_presentation

from gentlehh import (GentlePresentation, InfiniteDimensionalError,
                      ParallelPairFamily, Path, Quiver, build_complex,
                      build_quiver, build_surface, builtin_fixtures,
                      generate_polygon_triangulations, rr_sets)
from gentlehh import quiver as quiver_module
from gentlehh.pairs import _orbits

CORPORA = ("fixtures", "polygons 4..8", "loop quivers", "random presentations")


def corpus(group):
    """(name, fresh presentation, top degree) for one group."""
    if group == "fixtures":
        return [(f.name, build_quiver(f.surface._replace()), 12) for f in builtin_fixtures()]
    if group == "polygons 4..8":
        return [(d.name, build_quiver(build_surface(d)), 12)
                for n in range(4, 9) for d in generate_polygon_triangulations(n)]
    if group == "loop quivers":
        return [("loop quiver %d" % i, GentlePresentation(Quiver(v, a), (), r), 12)
                for i, (v, a, r) in enumerate(loop_quivers(44, seed=0))] + [
                    ("two-cycle", two_cycle_presentation(), 12)]
    # without G3 a level of n arrows can hold 8 * 3^(n - 1) chains
    rng = random.Random(20261019)
    return [("random %d" % i, random_small_presentation(rng), 6) for i in range(300)]


def path_key(path):
    return (len(path.arrows), path.source, path.arrows)


def target(p, path):
    return p.quiver.arrows[path.arrows[-1]].target if path.arrows else path.source


def finite_basis(p):
    try:
        return p.basis
    except InfiniteDimensionalError:
        return None


@pytest.mark.parametrize("group", CORPORA)
def test_levels_come_out_in_path_order_without_sorting(group, monkeypatch):
    finite = 0
    for name, p, top in corpus(group):
        p.zero_paths(1)  # the arrows, sorted once by source

        def no_sorting(*args, **kwargs):
            raise AssertionError("a level was sorted")

        monkeypatch.setattr(quiver_module, "sorted", no_sorting, raising=False)
        for n in range(top + 1):
            level = p.zero_paths(n)
            assert list(level) == sorted(level, key=path_key), (name, n)
            assert level == tuple(reference_ap_paths(p, n)), (name, n)
        basis = finite_basis(p)
        monkeypatch.undo()
        if basis is None:
            continue
        finite += 1
        assert list(basis) == sorted(basis, key=path_key), name
        scan = {}
        for gamma in basis:
            scan.setdefault((gamma.source, target(p, gamma)), []).append(gamma)
        assert p.parallel == {ends: tuple(paths) for ends, paths in scan.items()}, name
        for n in range(top + 1):
            pairs = [(rho, gamma) for rho in p.zero_paths(n) for gamma in basis
                     if (rho.source, target(p, rho)) == (gamma.source, target(p, gamma))]
            assert list(p.parallel_pairs(n)) == pairs, (name, n)
    assert finite >= (100 if group == "random presentations" else 5)


def filtered_rr_sets(p, n):
    """The degree-n families as predicate filters over the degree-n pairs,
    one pass per family."""
    relations = p.relations
    pairs = p.parallel_pairs(n)
    fields = dict(ap=p.zero_paths(n), pairs=pairs, set_a=(), zero_zero=(),
                  complete=(), empty_incomplete=(),
                  loop_pairs=tuple((Path(a.source, (a.idx,)), Path(a.source, ()))
                                   for a in p.quiver.arrows if a.source == a.target),
                  gentle_orbits=0)
    if n == 0:
        fields["set_a"] = tuple((rho, g) for rho, g in pairs
                                if g.arrows and p.annihilated(g))
        return ParallelPairFamily(**fields)
    fields["zero_zero"] = tuple(
        (rho, g) for rho, g in pairs
        if (not g.arrows or g.arrows[0] != rho.arrows[0])
        and (not g.arrows or g.arrows[-1] != rho.arrows[-1])
        and p.annihilated(g))
    cyclic = [(rho, g) for rho, g in pairs if not g.arrows]
    complete = fields["complete"] = tuple(
        (rho, g) for rho, g in cyclic if (rho.arrows[-1], rho.arrows[0]) in relations)
    incomplete = tuple(
        (rho, g) for rho, g in cyclic if (rho.arrows[-1], rho.arrows[0]) not in relations)
    fields["gentle_orbits"] = len(_orbits(p, (rho for rho, _ in complete)))
    fields["empty_incomplete"] = tuple(
        (rho, g) for rho, g in incomplete if rho.source not in p.relation_midpoints)
    return ParallelPairFamily(**fields)


# the families each corpus must reach, counted over its degrees
EXERCISED = {
    "fixtures": ("complete", "zero_zero"),
    "polygons 4..8": ("complete",),
    "loop quivers": ("loop_pairs", "complete", "zero_zero", "empty_incomplete"),
    "random presentations": ("loop_pairs", "complete", "zero_zero",
                             "empty_incomplete"),
}


@pytest.mark.parametrize("group", CORPORA)
def test_one_pass_rr_families_equal_the_predicate_filters(group):
    seen = dict.fromkeys(("loop_pairs", "complete", "zero_zero", "empty_incomplete"), 0)
    for name, p, top in corpus(group):
        if finite_basis(p) is None:
            continue
        for n in range(top + 1):
            family, reference = rr_sets(p, n), filtered_rr_sets(p, n)
            for field in ParallelPairFamily._fields:
                assert getattr(family, field) == getattr(reference, field), \
                    (name, n, field)
            seen["loop_pairs"] += bool(family.loop_pairs)
            seen["complete"] += bool(family.complete)
            seen["zero_zero"] += bool(family.zero_zero)
            seen["empty_incomplete"] += bool(family.empty_incomplete)
    assert all(seen[family] for family in EXERCISED[group]), seen


@pytest.mark.parametrize("group", CORPORA)
def test_complex_rows_equal_the_sorted_entry_dicts(group):
    merged = {0: 0, 2: 0}  # rows whose two terms meet in one column, by sum
    for name, p, top in corpus(group):
        if finite_basis(p) is None:
            continue
        complex_ = build_complex(p, top)
        # a periodic complex holds degrees 0..9 whatever top is
        bases, differentials = reference_complex(p, len(complex_.bases) - 2)
        for n in range(1, len(complex_.differentials)):
            assert complex_.bases[n] == tuple(bases[n]), (name, n)
            assert complex_.differentials[n] == tuple(differentials[n]), (name, n)
            for rho, delta in bases[n]:
                steps = delta.arrows
                if not (steps and steps[0] == rho.arrows[0] and steps[-1] == rho.arrows[-1]):
                    continue
                after = target(p, Path(rho.source, rho.arrows[:1]))
                tail = (Path(after, rho.arrows[1:]), Path(after, steps[1:]))
                head = (Path(rho.source, rho.arrows[:-1]), Path(rho.source, steps[:-1]))
                if tail == head:
                    merged[0 if n % 2 else 2] += 1
    if group in ("fixtures", "polygons 4..8"):
        assert merged == {0: 0, 2: 0}, merged  # only loops make them
    if group == "loop quivers":
        assert merged[0] and merged[2], merged
