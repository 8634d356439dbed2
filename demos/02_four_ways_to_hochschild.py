"""Compute Hochschild cohomology dimensions of one surface four ways.

The four routes are genuinely independent:

  geometric  -- closed formula in boundary types and internal triangles
  rr         -- exact parallel-pair counting on the bound quiver
  oracle     -- assemble the integer cochain complex once, take exact
                kernels and ranks over each field
  ladkani    -- formula in the derived invariant and vertex/arrow counts

They must agree degree by degree; that agreement is the library's core
consistency check.  Run:

    python3 demos/02_four_ways_to_hochschild.py
"""

from gentlehh import (ag_invariant, build_complex, build_quiver,
                      fixture_by_name, hh_dims_geometric, hh_dims_ladkani,
                      hh_dims_oracle, hh_dims_rr)

surface = fixture_by_name("fig8").surface
presentation = build_quiver(surface)

print("surface: genus 0, three boundary circles, seven arcs")
print("quiver: %d vertices, %d arrows, %d relations"
      % (len(presentation.quiver.vertices), len(presentation.quiver.arrows),
         len(presentation.relations)))
print("algebra dimension:", presentation.dimension())
print()

NMAX = 13
# The cochain complex is assembled once over the integers, with sparse
# differentials; only its ranks depend on the characteristic.  Its zero
# paths repeat with one more turn around a triangle every three degrees,
# so one verified period is built and the later degrees reuse it.  The
# presentation keeps this one build, and the oracle reads HH^0..HH^NMAX
# off it for whatever NMAX it is given.
complex_ = build_complex(presentation, NMAX)
print("cochain complex: degrees 0..%d built for degrees 0..%d (period %d), "
      "%d cochains, %d nonzero differential entries"
      % (len(complex_.bases) - 1, NMAX + 1, complex_.period,
         sum(len(basis) for basis in complex_.bases),
         sum(len(row) for matrix in complex_.differentials[1:] for row in matrix)))
print()
for char in (0, 2):
    geometric = hh_dims_geometric(surface, char, NMAX)
    pair_counts = hh_dims_rr(presentation, char, NMAX)
    oracle = hh_dims_oracle(complex_, char, NMAX)
    ladkani = hh_dims_ladkani(ag_invariant(surface),
                              len(presentation.quiver.vertices),
                              len(presentation.quiver.arrows), char, NMAX)
    print("characteristic %d:" % char)
    print("  geometric", list(geometric.table.dims))
    print("  rr       ", list(pair_counts.dims))
    print("  oracle   ", list(oracle.dims))
    print("  ladkani  ", list(ladkani.dims))
    assert geometric.table.dims == pair_counts.dims == oracle.dims == ladkani.dims
    print("  all four agree; tail:", geometric.table.tail_note)
    print()

# With three internal triangles the cup product on the cohomology ring is
# nonzero, and over characteristic 0 so is the Lie bracket:
flags = hh_dims_geometric(surface, 0, NMAX)
print("cup product nontrivial:", flags.cup_nontrivial)
print("Lie bracket nontrivial:", flags.bracket_nontrivial)
