import collections

import pytest

from gentlehh import (CornerInconsistency, DisconnectedSurface,
                      NonManifoldGluing, OrientationMismatch, Side, Triangle,
                      TriangulationInput, UnsupportedSurface, build_surface,
                      classify_boundaries, fixture_by_name,
                      internal_triangles, sint_count)


def arc(label, src, dst):
    return Side(label, "arc", src, dst)


def bnd(label, src, dst):
    return Side(label, "boundary", src, dst)


def tri(*sides):
    return Triangle(sides=tuple(sides))


SQUARE_DISC = TriangulationInput("square", (
    tri(bnd("e12", "1", "2"), bnd("e23", "2", "3"), arc("d", "3", "1")),
    tri(arc("d", "1", "3"), bnd("e34", "3", "4"), bnd("e41", "4", "1")),
))


def test_square_disc_topology():
    s = build_surface(SQUARE_DISC)
    assert s.genus == 0
    assert len(s.boundary_components) == 1
    assert s.euler_char == 1
    assert len(s.marked_points) == 4
    assert s.arcs == ("d",)
    assert internal_triangles(s) == set()
    assert sint_count(s) == 0


def test_square_disc_boundary_profile():
    s = build_surface(SQUARE_DISC)
    profiles = classify_boundaries(s)
    assert len(profiles) == 1
    assert (profiles[0].n_incident, profiles[0].m_segments) == (2, 0)
    assert profiles[0].type_tag == "other"


def test_fig8_topology():
    s = fixture_by_name("fig8").surface
    assert (s.genus, len(s.boundary_components), len(s.marked_points)) == (0, 3, 4)
    assert len(s.arcs) == 7
    assert len(s.boundary_segments) == 4
    assert len(s.triangles) == 6
    assert len(internal_triangles(s)) == 3
    assert sint_count(s) == 2


def test_fig8_internal_triangle_arcs():
    s = fixture_by_name("fig8").surface
    triples = {frozenset(side.label for side in s.triangles[i].sides)
               for i in internal_triangles(s)}
    assert triples == {frozenset({"t1", "t5", "t7"}),
                       frozenset({"t1", "t6", "t2"}),
                       frozenset({"t6", "t5", "t4"})}


def test_fig8_boundary_types():
    profiles = classify_boundaries(fixture_by_name("fig8").surface)
    tags = sorted(p.type_tag for p in profiles)
    assert tags == ["type0", "type1", "type1"]


def test_torus_fixtures_topology():
    for name in ("torus-T1", "torus-T2"):
        s = fixture_by_name(name).surface
        assert (s.genus, len(s.boundary_components), len(s.marked_points)) == (1, 2, 6)
        assert len(s.arcs) == 12
        assert len(internal_triangles(s)) == 4


def test_torus_t1_boundary_pairs():
    profiles = classify_boundaries(fixture_by_name("torus-T1").surface)
    assert sorted((p.n_incident, p.m_segments) for p in profiles) == [(3, 3), (3, 3)]
    assert all(p.type_tag == "other" for p in profiles)


def test_annulus_boundary_pairs():
    profiles = classify_boundaries(fixture_by_name("annulus(1,1)").surface)
    assert [(p.n_incident, p.m_segments) for p in profiles] == [(1, 1), (1, 1)]


def test_torus_t1_sint_forced_by_side_count():
    # 3F = 2*arcs + segments pins F = 10; with 4 internal triangles the
    # remaining 6 each carry exactly one boundary side.
    s = fixture_by_name("torus-T1").surface
    assert len(s.triangles) == 10
    assert sint_count(s) == 6


def test_counting_identities_on_fixtures():
    from gentlehh import builtin_fixtures
    for fx in builtin_fixtures():
        s = fx.surface
        V, E, F = (len(s.marked_points),
                   len(s.arcs) + len(s.boundary_segments),
                   len(s.triangles))
        assert s.euler_char == V - E + F
        assert s.euler_char == 2 - 2 * s.genus - len(s.boundary_components)
        assert 3 * F == 2 * len(s.arcs) + len(s.boundary_segments)
        assert len(s.arcs) == (6 * s.genus + 3 * len(s.boundary_components)
                               + len(s.marked_points) - 6)


def test_corner_inconsistency_rejected():
    bad = TriangulationInput("bad", (
        tri(bnd("e12", "1", "2"), bnd("e23", "3", "3"), arc("d", "3", "1")),
        tri(arc("d", "1", "3"), bnd("e34", "3", "4"), bnd("e41", "4", "1")),
    ))
    with pytest.raises(CornerInconsistency):
        build_surface(bad)


def test_arc_occurring_once_rejected():
    bad = TriangulationInput("bad", (
        tri(bnd("e12", "1", "2"), bnd("e23", "2", "3"), arc("d", "3", "1")),
    ))
    with pytest.raises(NonManifoldGluing):
        build_surface(bad)


def test_same_direction_gluing_rejected():
    bad = TriangulationInput("bad", (
        tri(bnd("e12", "1", "2"), bnd("e23", "2", "3"), arc("d", "3", "1")),
        tri(arc("d", "3", "1"), bnd("e34", "1", "4"), bnd("e41", "4", "3")),
    ))
    with pytest.raises(OrientationMismatch):
        build_surface(bad)


def test_bare_triangle_rejected():
    bad = TriangulationInput("bad", (
        tri(bnd("a", "1", "2"), bnd("b", "2", "3"), bnd("c", "3", "1")),
    ))
    with pytest.raises(UnsupportedSurface):
        build_surface(bad)


def test_self_folded_triangle_rejected():
    # folding one triangle onto itself makes the shared endpoint interior
    bad = TriangulationInput("bad", (
        tri(arc("a", "x", "y"), arc("a", "y", "x"), bnd("s", "x", "x")),
    ))
    with pytest.raises(UnsupportedSurface):
        build_surface(bad)


def test_disconnected_input_rejected():
    pieces = SQUARE_DISC.triangles + tuple(
        Triangle(sides=tuple(
            Side(s.label + "'", s.kind, s.src + "'", s.dst + "'")
            for s in t.sides))
        for t in SQUARE_DISC.triangles)
    with pytest.raises(DisconnectedSurface):
        build_surface(TriangulationInput("two-squares", pieces))


def test_label_shared_between_kinds_rejected():
    bad = TriangulationInput("bad", (
        tri(bnd("d", "1", "2"), bnd("e23", "2", "3"), arc("d", "3", "1")),
        tri(arc("d", "1", "3"), bnd("e34", "3", "4"), bnd("e41", "4", "1")),
    ))
    with pytest.raises(NonManifoldGluing):
        build_surface(bad)


def test_rebuild_from_serialized_form_is_identity():
    from gentlehh import fileformat
    for name in ("fig8", "torus-T1"):
        fx = fixture_by_name(name)
        s1 = fx.surface
        s2 = build_surface(fileformat.loads(fileformat.dumps(fx.data)))
        assert s1.arcs == s2.arcs
        assert s1.genus == s2.genus
        assert s1.boundary_components == s2.boundary_components
        assert internal_triangles(s1) == internal_triangles(s2)
        assert sint_count(s1) == sint_count(s2)


def test_census_is_computed_once_and_kept_immutable():
    from gentlehh import builtin_fixtures, generate_polygon_triangulations
    surfaces = [fx.surface for fx in builtin_fixtures()]
    surfaces += [build_surface(d) for n in range(4, 8)
                 for d in generate_polygon_triangulations(n)]
    for s in surfaces:
        kinds = [[side.kind for side in t.sides] for t in s.triangles]
        incident = {p for t in s.triangles for side in t.sides if side.kind == "arc"
                    for p in (side.src, side.dst)}
        profiles = []
        for comp in s.boundary_components:
            k = len(comp.points)
            profiles.append((
                sum(1 for p in comp.points if p in incident),
                sum(1 for i in range(k)
                    if comp.points[i] in incident and comp.points[(i + 1) % k] in incident)))
        assert internal_triangles(s) == {i for i, k in enumerate(kinds)
                                         if k.count("arc") == 3}
        assert sint_count(s) == sum(1 for k in kinds if k.count("boundary") == 1)
        assert [(p.component, p.n_incident, p.m_segments)
                for p in classify_boundaries(s)] == [
                    (i, n, m) for i, (n, m) in enumerate(profiles)]
        assert isinstance(internal_triangles(s), frozenset)
        assert isinstance(classify_boundaries(s), tuple)
        assert internal_triangles(s) is internal_triangles(s)
        assert classify_boundaries(s) is classify_boundaries(s)


def reference_boundary_data(s):
    """Boundary components, marked points and, per marked point, the
    boundary segment leaving it and whether an arc ends there, from the
    sides alone: segments chained through a src -> segment dict, each
    component started at its first unvisited segment in triangle order."""
    sides = [side for t in s.triangles for side in t.sides]
    leaving = {side.src: side for side in sides if side.kind == "boundary"}
    components, visited = [], set()
    for start in sides:
        if start.kind != "boundary" or start.label in visited:
            continue
        points, segments, side = [], [], start
        while side.label not in visited:
            visited.add(side.label)
            points.append(side.src)
            segments.append(side.label)
            side = leaving[side.dst]
        components.append((tuple(points), tuple(segments)))
    points = sorted({p for side in sides for p in (side.src, side.dst)},
                    key=lambda p: (len(p), p))
    ends = {p for side in sides if side.kind == "arc" for p in (side.src, side.dst)}
    return components, points, {p: (leaving[p], p in ends) for p in points}


def test_boundary_data_matches_a_scan_of_the_sides(monkeypatch):
    import random

    import gentlehh.surface as surface_module
    from test_cli import mutate
    from test_cochain import random_polygon

    from gentlehh import (SurfaceError, builtin_fixtures, fileformat,
                          generate_polygon_triangulations)

    fixtures = builtin_fixtures()  # loading validates them: not recorded below
    fans_read, leaving_read = [], []
    profiles = surface_module._boundary_profiles
    boundary_components = surface_module._boundary_components

    def recording_profiles(components, fans):
        fans_read.append(fans)
        return profiles(components, fans)

    def recording_components(sides, boundary, leaving):
        leaving_read.append({p: sides[c] for p, c in leaving.items()})
        return boundary_components(sides, boundary, leaving)

    monkeypatch.setattr(surface_module, "_boundary_profiles", recording_profiles)
    monkeypatch.setattr(surface_module, "_boundary_components", recording_components)
    surfaces = [build_surface(fx.data) for fx in fixtures]
    surfaces += [build_surface(d) for n in range(4, 9)
                 for d in generate_polygon_triangulations(n)]
    surfaces.append(random_polygon(60, 11))
    rng = random.Random(5)
    documents = [fileformat.as_document(fx.data) for fx in fixtures]
    mutants = 0
    for _ in range(1000):
        try:
            data = fileformat.parse_triangulation(mutate(rng.choice(documents), rng))
            surfaces.append(build_surface(data))
            mutants += 1
        except (fileformat.FormatError, SurfaceError):
            pass
    assert mutants >= 20 and len(fans_read) == len(leaving_read) == len(surfaces)
    for s, fans, leaving in zip(surfaces, fans_read, leaving_read):
        components, points, incidence = reference_boundary_data(s)
        assert [(c.points, c.segments) for c in s.boundary_components] == components
        assert list(s.marked_points) == points
        assert (leaving, fans) == ({p: segment for p, (segment, _) in incidence.items()},
                                   {p: ends for p, (_, ends) in incidence.items()})


def edited_triangulation(data, rng):
    """One to three seeded edits of a triangulation: rename a vertex, swap
    a side's kind, reverse an arc, drop or duplicate a triangle, relabel a
    side onto a label already in use, glue two boundary segments into one
    arc (their ends identified), or add a disjoint primed copy."""
    tris = [list(t.sides) for t in data.triangles]

    def rename(mapping):
        return [[s._replace(src=mapping.get(s.src, s.src), dst=mapping.get(s.dst, s.dst))
                 for s in t] for t in tris]

    for _ in range(rng.randint(1, 3)):
        places = [(t, k) for t, sides in enumerate(tris) for k in range(len(sides))]
        if not places:
            break
        t, k = rng.choice(places)
        side = tris[t][k]
        edit = rng.choice(("rename", "kind", "reverse", "drop", "duplicate",
                           "relabel", "glue", "glue", "copy"))
        if edit == "rename":
            points = sorted({p for _, sides in enumerate(tris) for s in sides
                             for p in (s.src, s.dst)})
            tris = rename({rng.choice(points): rng.choice(points + ["fresh"])})
        elif edit == "kind":
            tris[t][k] = side._replace(kind="arc" if side.kind == "boundary" else "boundary")
        elif edit == "reverse":
            arcs = [(u, j) for u, j in places if tris[u][j].kind == "arc"]
            if arcs:
                u, j = rng.choice(arcs)
                tris[u][j] = tris[u][j]._replace(src=tris[u][j].dst, dst=tris[u][j].src)
        elif edit == "drop":
            del tris[t]
        elif edit == "duplicate":
            tris.insert(rng.randrange(len(tris) + 1), list(tris[t]))
        elif edit == "relabel":
            tris[t][k] = side._replace(label=rng.choice(tris[rng.randrange(len(tris))]).label)
        elif edit == "glue":
            ends = [(u, j) for u, j in places if tris[u][j].kind == "boundary"]
            if len(ends) >= 2:
                (u, i), (w, j) = rng.sample(ends, 2)
                first, second = tris[u][i], tris[w][j]
                tris = rename({second.src: first.dst, second.dst: first.src})
                tris[u][i] = tris[u][i]._replace(kind="arc")
                tris[w][j] = tris[w][j]._replace(kind="arc", label=first.label)
        else:
            tris += [[s._replace(label=s.label + "'", src=s.src + "'", dst=s.dst + "'")
                      for s in sides] for sides in tris]
    return TriangulationInput(data.name, tuple(Triangle(tuple(t)) for t in tris))


def test_edited_triangulations_build_or_raise_a_surface_error():
    import random

    from gentlehh import SurfaceError, builtin_fixtures, generate_polygon_triangulations

    inputs = [fx.data for fx in builtin_fixtures()]
    inputs += [d for n in range(4, 9) for d in generate_polygon_triangulations(n)]
    rng = random.Random(16)
    outcomes = collections.Counter()
    for _ in range(3000):
        data = edited_triangulation(rng.choice(inputs), rng)
        # anything but a SurfaceError (an IndexError or KeyError from the
        # corner ids, a failed identity assert) propagates and fails the test
        try:
            s = build_surface(data)
        except SurfaceError as exc:
            outcomes[type(exc).__name__] += 1
            continue
        outcomes["surface"] += 1
        V, F = len(s.marked_points), len(s.triangles)
        E, b = len(s.arcs) + len(s.boundary_segments), len(s.boundary_components)
        assert V - E + F == s.euler_char == 2 - 2 * s.genus - b
        assert 3 * F == 2 * len(s.arcs) + len(s.boundary_segments)
        assert len(s.arcs) == 6 * s.genus + 3 * b + V - 6
        assert 3 * len(s.internal) + 2 * s.sint + (F - len(s.internal) - s.sint) \
            == 2 * len(s.arcs)
        assert sum(len(c.segments) for c in s.boundary_components) \
            == len(s.boundary_segments)
    # the fan and connectivity checks leave a connected oriented surface,
    # whose V - E + F always gives an integer genus
    assert outcomes["NonIntegerGenus"] == 0, outcomes
    assert min(outcomes[name] for name in (
        "surface", "CornerInconsistency", "NonManifoldGluing", "OrientationMismatch",
        "UnsupportedSurface", "DisconnectedSurface")) >= 10, outcomes
