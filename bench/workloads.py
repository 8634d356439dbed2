"""Benchmark inputs, workload command lists and reference tables.

The random polygon generator and every reference count here are the
benchmark's own: they read only the side kinds and labels of the input
triangles, never the library's quiver, pair or cochain code, so a wrong
table cannot pass by agreeing with itself.
"""

import json
import os
import random

NMAX = 13
DEEP_NMAX = 60
CHARS = (0, 2)
DRAWS = 400  # random draws per polygon size; the one with most internal triangles is kept

# Polygon sizes per workload.  large_disc: sizes where dense complex assembly
# and exact rank dominate a command.  deep_degree: a mid-size disc whose cost
# comes from the degree range, next to the non-disc torus fixture.  A pass
# stays short (about 7 and 5 s) so a 40 s run gets several samples of each
# command on a machine whose speed drifts by tens of percent.
LARGE_SIZES = (150, 200)
DEEP_SIZES = (70,)
DEEP_FIXTURE = "torus_t1.json"

WORKLOADS = ("disc_corpus", "large_disc", "deep_degree")

CORPUS_POLYGONS = (4, 9)
# Catalan(n - 2) triangulations of the n-gon, plus the five shipped fixtures.
CORPUS_INSTANCES = 5 + sum((2, 5, 14, 42, 132, 429))


def draw_polygon(n: int, rng: random.Random) -> list:
    """One random triangulation of the convex n-gon p0..p(n-1).

    Returns ccw triangles (a, b, c) with a < b < c.  The triangle over the
    base (lo, hi) takes a uniformly random apex, then both sides recurse.
    """
    triangles = []
    stack = [(0, n - 1)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo < 2:
            continue
        apex = rng.randrange(lo + 1, hi)
        triangles.append((lo, apex, hi))
        stack.append((lo, apex))
        stack.append((apex, hi))
    return triangles


def polygon_sides(n: int, triangles) -> list:
    """File-format side lists of a polygon triangulation: edge (u, u+1) and
    the closing edge (n-1, 0) are boundary segments, every other edge is
    the arc d<lo>_<hi>."""
    def side(u, w):
        if w == u + 1 or (u == n - 1 and w == 0):
            return {"label": "s%d" % u, "kind": "boundary",
                    "from": "p%d" % u, "to": "p%d" % w}
        return {"label": "d%d_%d" % (min(u, w), max(u, w)), "kind": "arc",
                "from": "p%d" % u, "to": "p%d" % w}
    return [[side(a, b), side(b, c), side(c, a)] for a, b, c in triangles]


def census(triangles) -> dict:
    """Arc, internal-triangle, arrow and basis-path counts of a gluing.

    ``triangles`` lists each triangle as three (kind, label) pairs in ccw
    order.  An arrow joins each ccw-consecutive pair of arc sides; the
    three arrows of an internal triangle compose pairwise to relations.
    The basis counts trivial paths plus every relation-free arrow chain,
    which is finite for the unpunctured surfaces the library accepts.
    """
    arcs = set()
    arrows = []       # (source arc, target arc)
    relations = set()
    internal = 0
    for sides in triangles:
        arcs.update(label for kind, label in sides if kind == "arc")
        made = {}
        for pos in range(3):
            (k1, l1), (k2, l2) = sides[pos], sides[(pos + 1) % 3]
            if k1 == "arc" and k2 == "arc":
                made[pos] = len(arrows)
                arrows.append((l1, l2))
        if len(made) == 3:
            internal += 1
            relations.update({(made[0], made[1]), (made[1], made[2]),
                              (made[2], made[0])})
    outgoing = {}
    for idx, (src, _) in enumerate(arrows):
        outgoing.setdefault(src, []).append(idx)
    chains = {}       # arrow -> relation-free chains starting with it

    def count(a):
        if a not in chains:
            chains[a] = 1 + sum(count(b) for b in outgoing.get(arrows[a][1], ())
                                if (a, b) not in relations)
        return chains[a]

    basis = len(arcs) + sum(count(a) for a in range(len(arrows)))
    return {"arcs": len(arcs), "internal": internal, "arrows": len(arrows),
            "basis": basis}


def pick_polygon(n: int, seed: int) -> dict:
    """The draw with the most internal triangles among DRAWS seeded draws
    (first one on ties), as a file-format document plus its census."""
    rng = random.Random(seed * 1_000_003 + n)
    best, best_internal = None, -1
    for _ in range(DRAWS):
        triangles = draw_polygon(n, rng)
        internal = sum(1 for a, b, c in triangles
                       if b != a + 1 and c != b + 1 and not (a == 0 and c == n - 1))
        if internal > best_internal:
            best, best_internal = triangles, internal
    doc = {"name": "bench-%dgon-s%d" % (n, seed),
           "triangles": polygon_sides(n, best)}
    counts = census([[(s["kind"], s["label"]) for s in tri] for tri in doc["triangles"]])
    return {"doc": doc, "n": n, "seed": seed, **counts}


def expected_tail(internal: int, char: int, lo: int, nmax: int) -> list:
    """HH^n for lo <= n <= nmax, n >= 2: the internal-triangle count at
    n = 0, 1 (mod 6), or (mod 3) in characteristic 2, and 0 elsewhere."""
    modulus = 3 if char == 2 else 6
    return [internal if n % modulus in (0, 1) else 0 for n in range(lo, nmax + 1)]


def load_fixtures(data_dir: str) -> dict:
    """Shipped fixture documents by instance name."""
    fixtures = {}
    for filename in sorted(os.listdir(data_dir)):
        if filename.endswith(".json"):
            with open(os.path.join(data_dir, filename), encoding="utf-8") as handle:
                doc = json.load(handle)
            fixtures[doc["name"]] = doc
    return fixtures


def reference_table(name, char, nmax, counts, fixtures, generated) -> list:
    """The table an instance must report.

    Fixtures: their recorded hh_char0/hh_char2, extended past degree 13 by
    the internal-triangle rule.  Polygons (discs with at least four
    vertices, so no boundary of type (1,0) or (1,1)): HH^0 = 1,
    HH^1 = 1 + arrows - arcs, then the internal-triangle rule, with the
    counts of a generated polygon taken from the generator itself.
    """
    if name in fixtures:
        expected = fixtures[name]["expected"]
        head = list(expected["hh_char%d" % char])[:nmax + 1]
        return head + expected_tail(expected["internal_triangles"], char,
                                    len(head), nmax)
    counts = generated.get(name, counts)
    return ([1, 1 + counts["arrows"] - counts["arcs"]]
            + expected_tail(counts["internal"], char, 2, nmax))


def build_plan(workload: str, seed: int, root: str, workdir: str) -> dict:
    """Commands of one pass over a workload, with what they must report.

    Generated inputs are written under ``workdir``; command paths are
    relative to ``root``, where the commands run.
    """
    data_dir = os.path.join("src", "gentlehh", "data")
    if workload == "disc_corpus":
        lo, hi = CORPUS_POLYGONS
        return {"commands": [["crosscheck", "fixtures", "--polygons",
                              "%d..%d" % (lo, hi), "--nmax", str(NMAX)]],
                "expected": [CORPUS_INSTANCES * len(CHARS)],
                "nmax": NMAX, "inputs": [], "generated": {}}
    if workload == "large_disc":
        sizes, files, nmax = LARGE_SIZES, [], NMAX
    elif workload == "deep_degree":
        sizes, files, nmax = DEEP_SIZES, [os.path.join(data_dir, DEEP_FIXTURE)], DEEP_NMAX
    else:
        raise ValueError("unknown workload %r" % workload)
    os.makedirs(os.path.join(root, workdir), exist_ok=True)
    inputs, generated = [], {}
    for n in sizes:
        picked = pick_polygon(n, seed)
        path = os.path.join(workdir, picked["doc"]["name"] + ".json")
        with open(os.path.join(root, path), "w", encoding="utf-8") as handle:
            json.dump(picked["doc"], handle)
        files.append(path)
        record = {k: v for k, v in picked.items() if k != "doc"}
        inputs.append(dict(record, name=picked["doc"]["name"], file=path))
        generated[picked["doc"]["name"]] = record
    commands = [["analyze", path, "--char", str(char), "--nmax", str(nmax),
                 "--format", "json"]
                for path in files for char in CHARS]
    return {"commands": commands, "expected": [1] * len(commands),
            "nmax": nmax, "inputs": inputs, "generated": generated}
