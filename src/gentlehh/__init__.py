"""Gentle Jacobian algebras of triangulated unpunctured marked surfaces:
Hochschild cohomology dimensions four independent ways, plus the derived
invariant that separates algebras the cohomology cannot."""

from .ag import (AGComparison, AGInvariant, ag_invariant, compare_ag,
                 hh_dims_ladkani, psi)
from .cochain import (CochainComplex, build_complex, hh_dims_oracle,
                      verify_complex_property, verify_period)
from .corpus import (Fixture, FixtureCorrupt, builtin_fixtures,
                     fixture_by_name, generate_polygon_triangulations)
from .fileformat import FormatError, load_file, loads
from .geometric import GeometricResult, hh1_remark, hh_dims_geometric
from .pairs import (HHTable, ParallelPairFamily, ap_paths, coinvariant_dim,
                    hh_dims_rr, pair_order, rotate, rr_sets)
from .quiver import (Arrow, GentlePresentation, GentlenessViolation,
                     InfiniteDimensionalError, Path, Quiver, build_quiver,
                     check_gentle, enumerate_basis)
from .surface import (BoundaryComponent, BoundaryProfile, CornerInconsistency,
                      DisconnectedSurface, NonIntegerGenus, NonManifoldGluing,
                      OrientationMismatch, Side, SurfaceError, Triangle,
                      TriangulatedSurface, TriangulationInput,
                      UnsupportedSurface, build_surface, classify_boundaries,
                      internal_triangles, sint_count)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
