"""Brute-force references that more than one test module compares against.

Each shares as little with the library as it can: zero paths, parallel
pairs and rr families by scans over all arrows and paths; the complex and
the rr formula degree by degree, without a period; minors of dense integer
matrices, and the signed-graph rows whose ranks they check."""

from itertools import combinations, permutations

from hypothesis import strategies as st

from gentlehh import ParallelPairFamily, Path, coinvariant_dim, rotate, rr_sets
from gentlehh.linalg import nullity, rank
from gentlehh.pairs import parity_weights


# AP_n rebuilt from scratch for every degree, the pair scan over AP_n x
# basis, and the orbit count as the number of distinct rotation orbits.

def reference_ap_paths(p, n):
    if n == 0:
        return [Path(v, ()) for v in range(len(p.quiver.vertices))]
    chains = [Path(a.source, (a.idx,)) for a in p.quiver.arrows]
    for _ in range(n - 1):
        chains = [Path(c.source, c.arrows + (b.idx,)) for c in chains
                  for b in p.quiver.arrows if (c.arrows[-1], b.idx) in p.relations]
    return sorted(chains, key=lambda c: (len(c.arrows), c.source, c.arrows))


def reference_pairs(p, n):
    return tuple((rho, gamma) for rho in reference_ap_paths(p, n) for gamma in p.basis
                 if rho.source == gamma.source
                 and p.path_target(rho) == p.path_target(gamma))


def reference_loop_pairs(p):
    return tuple((Path(a.source, (a.idx,)), Path(a.source, ()))
                 for a in p.quiver.arrows if a.source == a.target)


def reference_rr_sets(p, n):
    arrows, relations = p.quiver.arrows, p.relations
    ap = reference_ap_paths(p, n)
    pairs = reference_pairs(p, n)

    def into(v):
        return [a.idx for a in arrows if a.target == v]

    def out_of(v):
        return [a.idx for a in arrows if a.source == v]

    def fully_annihilated(gamma):
        if not gamma.arrows:
            return not into(gamma.source) and not out_of(gamma.source)
        first, last = gamma.arrows[0], gamma.arrows[-1]
        return (all((b, first) in relations for b in into(arrows[first].source))
                and all((last, b) in relations for b in out_of(arrows[last].target)))

    fields = dict(ap=tuple(ap), set_a=(), zero_zero=(), complete=(),
                  empty_incomplete=(), gentle_orbits=0)
    if n == 0:
        fields["set_a"] = tuple((rho, g) for rho, g in pairs
                                if g.arrows and fully_annihilated(g))
        return ParallelPairFamily(**fields)
    fields["zero_zero"] = tuple(
        (rho, g) for rho, g in pairs
        if (not g.arrows or (g.arrows[0] != rho.arrows[0]
                             and g.arrows[-1] != rho.arrows[-1]))
        and fully_annihilated(g))
    cyclic = [(rho, g) for rho, g in pairs if not g.arrows]
    fields["complete"] = tuple((rho, g) for rho, g in cyclic
                               if (rho.arrows[-1], rho.arrows[0]) in relations)
    incomplete = [(rho, g) for rho, g in cyclic
                  if (rho.arrows[-1], rho.arrows[0]) not in relations]

    def orbit(rho):
        out = [rho]
        for _ in range(n - 1):
            out.append(rotate(p, out[-1]))
        return out

    fields["gentle_orbits"] = len({frozenset(orbit(rho))
                                   for rho, _ in fields["complete"]})
    midpoints = {arrows[a].target for a, _ in relations}
    fields["empty_incomplete"] = tuple((rho, g) for rho, g in incomplete
                                       if rho.source not in midpoints)
    return ParallelPairFamily(**fields)


def reference_complex(p, nmax):
    """Bases and D_1..D_{nmax+1}, every degree assembled."""
    arrows = p.quiver.arrows
    bases, differentials = [], [None]
    for n in range(nmax + 2):
        bases.append([(rho, gamma) for rho in p.zero_paths(n)
                      for gamma in p.parallel.get((rho.source, p.path_target(rho)), ())])
        if n == 0:
            continue
        columns = {pair: i for i, pair in enumerate(bases[n - 1])}
        sign = -1 if n % 2 else 1
        rows = []
        for rho, delta in bases[n]:
            entries = {}
            if delta.arrows and delta.arrows[0] == rho.arrows[0]:
                tail = Path(arrows[rho.arrows[0]].target, rho.arrows[1:])
                entries[columns[(tail, Path(tail.source, delta.arrows[1:]))]] = 1
            if delta.arrows and delta.arrows[-1] == rho.arrows[-1]:
                head = Path(rho.source, rho.arrows[:-1])
                col = columns[(head, Path(delta.source, delta.arrows[:-1]))]
                entries[col] = entries.get(col, 0) + sign
            rows.append(tuple(sorted((c, v) for c, v in entries.items() if v)))
        differentials.append(rows)
    return bases, differentials


def reference_oracle(bases, differentials, char):
    ranks = [0, len(bases[0]) - nullity(differentials[1], len(bases[0]), char)]
    ranks += [rank(differentials[n], char) for n in range(2, len(differentials))]
    return tuple(len(bases[n]) - ranks[n + 1] - ranks[n] for n in range(len(bases) - 1))


def reference_rr(p, char, nmax):
    families = [rr_sets(p, n) for n in range(nmax + 1)]
    coinv = [0] + [coinvariant_dim(p, n, char, families[n]) for n in range(1, nmax + 1)]
    dims = [1 + len(families[0].set_a),
            1 + len(families[1].zero_zero) + len(p.quiver.arrows) - len(p.quiver.vertices)
            + (len(p.loop_pairs) if char == 2 else 0)]
    for n in range(2, nmax + 1):
        a, b = parity_weights(char, n)
        dims.append(len(families[n].zero_zero) + len(families[n].empty_incomplete)
                    + a * coinv[n] + b * coinv[n - 1])
    return tuple(dims)


def minor(dense, rows, cols):
    """The integer determinant of a square submatrix, expanded over all
    permutations."""
    total = 0
    for perm in permutations(range(len(rows))):
        inversions = sum(1 for i, j in combinations(range(len(perm)), 2)
                         if perm[i] > perm[j])
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= dense[rows[i]][cols[j]]
        total += term
    return total


def minors(dense, k):
    """Every k x k minor of the matrix."""
    n_rows, n_cols = len(dense), len(dense[0]) if dense else 0
    return (minor(dense, rows, cols) for rows in combinations(range(n_rows), k)
            for cols in combinations(range(n_cols), k))


def dense_of(rows, n_cols):
    dense = [[0] * n_cols for _ in rows]
    for r, entries in enumerate(rows):
        for col, value in entries:
            dense[r][col] = value
    return dense


@st.composite
def signed_graph_rows(draw, extra=(), oracle=False):
    """Rows of a signed-graph incidence matrix on 2 to 4 columns: edges
    of equal or opposite values, a cycle of them with random signs (so
    balanced and unbalanced cycles both occur), half-edges of value +-1
    and 2, empty rows and explicit zero entries, in random order; ``extra``
    adds row strategies of other shapes.  With ``oracle`` only the shapes
    a differential of the oracle has: edges of values +-1 and half-edges of
    values +-1 and +-2."""
    n_cols = draw(st.integers(2, 4))
    col = st.integers(0, n_cols - 1)
    value = st.sampled_from((1, -1) if oracle else (1, -1, 2, -2, 3))
    half = (1, -1, 2, -2) if oracle else (1, -1, 2, 0)
    zero = (False,) if oracle else (False,) * 5 + (True,)

    def edge(ends, a, same, zero):
        (i, j), b = ends, 0 if zero else (a if same else -a)
        return ((i, a), (j, b))

    two_cols = st.lists(col, min_size=2, max_size=2, unique=True)
    row = st.one_of(
        st.just(()),
        st.tuples(st.tuples(col, st.sampled_from(half))),
        st.builds(edge, two_cols, value, st.booleans(), st.sampled_from(zero)),
        *extra)
    rows = draw(st.lists(row, max_size=5))
    cycle = draw(st.lists(col, min_size=2, max_size=n_cols, unique=True))
    for i, j in zip(cycle, cycle[1:] + cycle[:1]):
        rows.append(edge((i, j), draw(value), draw(st.booleans()), False))
    return draw(st.permutations(rows)), n_cols
