"""Path levels, parallel pairs, rr families and complex rows, each built in
one pass per degree, against references that sort, scan or filter afresh.

The corpora: the fixtures, every triangulation of the 4- to 8-gons, the
seeded loop quivers with the 2-cycle, all gentle, and the random
presentations, which break G3 and G4 and may be infinite dimensional.
"""

import pytest
from catalogue import instances
from references import (reference_ap_paths, reference_complex, reference_loop_pairs,
                        reference_pairs, reference_rr_sets)

from gentlehh import InfiniteDimensionalError, ParallelPairFamily, Path, build_complex, rr_sets
from gentlehh import quiver as quiver_module

# the instance groups of each corpus, and its top degree: without G3 a
# level of n arrows can hold 8 * 3^(n - 1) chains
CORPORA = {"fixtures": (("fixtures",), 12), "polygons 4..8": (("polygons 4..8",), 12),
           "loop quivers": (("loop quivers", "two-cycle"), 12),
           "random presentations": (("random presentations",), 6)}


def corpus(group):
    """(name, fresh presentation, top degree) for one corpus."""
    groups, top = CORPORA[group]
    return [(name, make(), top) for name, make in instances(*groups)]


def path_key(path):
    return (len(path.arrows), path.source, path.arrows)


def finite_basis(p):
    try:
        return p.basis
    except InfiniteDimensionalError:
        return None


@pytest.mark.parametrize("group", tuple(CORPORA))
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
            scan.setdefault((gamma.source, p.path_target(gamma)), []).append(gamma)
        assert p.parallel == {ends: tuple(paths) for ends, paths in scan.items()}, name
        for n in range(top + 1):
            assert p.parallel_pairs(n) == reference_pairs(p, n), (name, n)
    assert finite >= (100 if group == "random presentations" else 5)


# the families each corpus must reach, counted over its degrees
EXERCISED = {
    "fixtures": ("complete", "zero_zero"),
    "polygons 4..8": ("complete",),
    "loop quivers": ("loop_pairs", "complete", "zero_zero", "empty_incomplete"),
    "random presentations": ("loop_pairs", "complete", "zero_zero",
                             "empty_incomplete"),
}


@pytest.mark.parametrize("group", tuple(CORPORA))
def test_one_pass_rr_families_equal_the_predicate_filters(group):
    seen = dict.fromkeys(("loop_pairs", "complete", "zero_zero", "empty_incomplete"), 0)
    for name, p, top in corpus(group):
        if finite_basis(p) is None:
            continue
        assert p.loop_pairs == reference_loop_pairs(p), name
        seen["loop_pairs"] += bool(p.loop_pairs)
        for n in range(top + 1):
            family, reference = rr_sets(p, n), reference_rr_sets(p, n)
            for field in ParallelPairFamily._fields:
                assert getattr(family, field) == getattr(reference, field), \
                    (name, n, field)
            seen["complete"] += bool(family.complete)
            seen["zero_zero"] += bool(family.zero_zero)
            seen["empty_incomplete"] += bool(family.empty_incomplete)
    assert all(seen[family] for family in EXERCISED[group]), seen


@pytest.mark.parametrize("group", tuple(CORPORA))
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
                after = p.path_target(Path(rho.source, rho.arrows[:1]))
                tail = (Path(after, rho.arrows[1:]), Path(after, steps[1:]))
                head = (Path(rho.source, rho.arrows[:-1]), Path(rho.source, steps[:-1]))
                if tail == head:
                    merged[0 if n % 2 else 2] += 1
    if group in ("fixtures", "polygons 4..8"):
        assert merged == {0: 0, 2: 0}, merged  # only loops make them
    if group == "loop quivers":
        assert merged[0] and merged[2], merged
