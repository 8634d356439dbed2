"""Two algebras with the same Hochschild cohomology that are provably not
derived equivalent.

Hochschild cohomology is a derived invariant, but it is not complete: the
two shipped torus triangulations produce algebras with identical dimension
tables in every degree and every characteristic, yet their finer derived
invariant differs, so no derived equivalence can exist.  Run:

    python3 demos/03_derived_equivalence_obstruction.py
"""

from gentlehh import (ag_invariant, build_quiver, compare_ag, fixture_by_name,
                      hh_dims_geometric)

t1 = fixture_by_name("torus-T1").surface
t2 = fixture_by_name("torus-T2").surface

for surface in (t1, t2):
    presentation = build_quiver(surface)
    print("%-9s genus %d, %d boundary circles, %d marked points, "
          "%d vertices, %d arrows"
          % (surface.name, surface.genus, len(surface.boundary_components),
             len(surface.marked_points), len(presentation.quiver.vertices),
             len(presentation.quiver.arrows)))

print()
for char in (0, 2):
    d1 = hh_dims_geometric(t1, char, 13).table.dims
    d2 = hh_dims_geometric(t2, char, 13).table.dims
    marker = "identical" if d1 == d2 else "DIFFERENT"
    print("char %d: %s  <- %s" % (char, list(d1), marker))
    assert d1 == d2

print()
inv1, inv2 = ag_invariant(t1), ag_invariant(t2)
print("invariant of torus-T1:", "; ".join(inv1.lines()))
print("invariant of torus-T2:", "; ".join(inv2.lines()))

outcome = compare_ag(inv1, inv2)
pair, m1, m2 = outcome.witness
print("\nlargest difference at (%d, %d): multiplicity %d vs %d"
      % (pair[0], pair[1], m1, m2))
print("verdict:", outcome.verdict)
