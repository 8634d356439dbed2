import hashlib
import json

import pytest

from gentlehh import (FixtureCorrupt, build_surface, builtin_fixtures,
                      classify_boundaries, fixture_by_name,
                      generate_polygon_triangulations, hh_dims_geometric,
                      internal_triangles)
from gentlehh.corpus import load_fixture_document
from gentlehh.fileformat import as_document

CATALAN = {3: 1, 4: 2, 5: 5, 6: 14, 7: 42, 8: 132, 9: 429, 10: 1430}


def test_polygon_counts_match_catalan():
    for n, expected in CATALAN.items():
        assert len(generate_polygon_triangulations(n)) == expected


def test_polygon_triangulations_validate():
    for n in range(4, 11):
        for data in generate_polygon_triangulations(n):
            s = build_surface(data)
            assert s.genus == 0
            assert len(s.boundary_components) == 1
            assert len(s.marked_points) == n


def test_polygon_triangulations_are_distinct():
    for n in range(4, 9):
        seen = {frozenset(side.label for tri in data.triangles for side in tri.sides)
                for data in generate_polygon_triangulations(n)}
        assert len(seen) == CATALAN[n]


# sha256 of json.dumps of the documents of all n-gon triangulations, in
# generation order, as written when every triangulation built its own sides
POLYGON_DOCUMENTS_SHA256 = {
    4: "c63867412a7e6a27ccc38d34d7d751113159ee0ae9b20d15c20c3ed8026e6fdd",
    5: "3cbf6eb0563b5effa4b4dbb9a10bcb1f83052de1fd63ef62d1a1577f81dce3ff",
    6: "08c86e9f390345c51314c99092b09bf69c944ae0f221bfe24b30c40c7f51cd4c",
    7: "be4f5ffa7924bf98a567fac9f408eb0831ff19cf0661f5b7ec3eab5db7febdb8",
    8: "33a030fd674c18f3d06890c1ba0e7f3256149a912bb88b66de76837dfbc109be",
}


def test_polygon_documents_are_unchanged():
    for n, digest in POLYGON_DOCUMENTS_SHA256.items():
        docs = [as_document(data) for data in generate_polygon_triangulations(n)]
        assert hashlib.sha256(json.dumps(docs).encode()).hexdigest() == digest


def test_polygon_triangulations_share_each_triangle():
    for n in range(5, 9):
        by_corners, holders = {}, {}
        for data in generate_polygon_triangulations(n):
            for tri in data.triangles:
                corners = tuple(side.src for side in tri.sides)
                assert by_corners.setdefault(corners, tri) is tri
                holders[corners] = holders.get(corners, 0) + 1
        assert max(holders.values()) > 1


def test_discs_have_no_special_boundaries():
    # a disc with at least one diagonal always has >= 2 arc-incident points
    for n in range(4, 9):
        for data in generate_polygon_triangulations(n):
            profiles = classify_boundaries(build_surface(data))
            assert [p.type_tag for p in profiles] == ["other"]


def test_disc_tables_vanish_without_internal_triangles():
    for data in generate_polygon_triangulations(6):
        s = build_surface(data)
        dims = hh_dims_geometric(s, 0, 13).table.dims
        if not internal_triangles(s):
            assert all(d == 0 for d in dims[2:])
        else:
            # hexagon "snowflake" triangulations: one internal triangle
            assert dims[6] == 1


def test_polygon_too_small():
    with pytest.raises(ValueError):
        generate_polygon_triangulations(2)


def test_builtin_fixtures_load_and_validate():
    fixtures = {fx.name: fx for fx in builtin_fixtures()}
    assert set(fixtures) == {"square-disc", "annulus(1,1)", "fig8",
                             "torus-T1", "torus-T2"}
    fig8 = fixtures["fig8"]
    s = fig8.surface
    assert len(s.arcs) == 7
    assert len(s.triangles) == 6
    assert fig8.expected["arrows"] == 11
    assert fixtures["torus-T1"].surface.arcs == tuple(
        sorted(["t%d" % i for i in range(1, 13)], key=lambda x: (len(x), x)))
    annulus = fixtures["annulus(1,1)"]
    assert len(annulus.surface.arcs) == 2
    assert len(annulus.surface.triangles) == 2


def test_fixture_expected_counts_hold():
    from gentlehh import build_quiver, sint_count
    for fx in builtin_fixtures():
        s = fx.surface
        p = build_quiver(s)
        exp = fx.expected
        assert s.genus == exp["genus"]
        assert len(s.boundary_components) == exp["boundary_components"]
        assert len(s.marked_points) == exp["marked_points"]
        assert len(s.arcs) == exp["arcs"] == exp["vertices"]
        assert len(internal_triangles(s)) == exp["internal_triangles"]
        assert sint_count(s) == exp["single_boundary_side_triangles"]
        assert len(p.quiver.arrows) == exp["arrows"]
        assert len(p.relations) == exp["relations"]
        if "algebra_dimension" in exp:
            assert p.dimension() == exp["algebra_dimension"]


def test_fixture_expected_tables_hold():
    from gentlehh import ag_invariant
    for fx in builtin_fixtures():
        s = fx.surface
        exp = fx.expected
        assert list(hh_dims_geometric(s, 0, 13).table.dims) == exp["hh_char0"]
        assert list(hh_dims_geometric(s, 2, 13).table.dims) == exp["hh_char2"]
        support = [[n, m, mult] for (n, m), mult in ag_invariant(s).support]
        assert support == exp["ag_invariant"]


def test_corrupted_fixture_detected(tmp_path):
    doc = as_document(fixture_by_name("fig8").data)
    doc["triangles"][0][0]["to"] = "nowhere"
    with pytest.raises(FixtureCorrupt):
        load_fixture_document(doc, origin="doctored")


def test_fixture_round_trips_through_format(tmp_path):
    from gentlehh import fileformat
    for fx in builtin_fixtures():
        path = tmp_path / "copy.json"
        fileformat.dump_file(fx.data, path)
        again = fileformat.load_file(path)
        assert again == fx.data
        build_surface(again)
