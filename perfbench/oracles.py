"""Independent checks for the benchmark's job outputs.

Nothing here imports ``hmi``: every expected value is computed by a
different route (set partitions, the Stein/Isserlis recursion, networkx,
brute-force subset tests, a separate quadrature) so that a job counts as
correct only when the library agrees with code it does not share.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations


# ---------------------------------------------------------------------------
# partitions and moments

def bell(n):
    """Bell numbers by the triangle recurrence."""
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]


def set_partitions(items):
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def multiset_partition_counts(k):
    """{canonical multiset partition of k: number of labelled set partitions
    that project onto it}; the count is the collapse number."""
    p = len(k)
    units = [i for i, v in enumerate(k) for _ in range(v)]
    counts = {}
    for part in set_partitions(range(len(units))):
        blocks = []
        for block in part:
            vec = [0] * p
            for u in block:
                vec[units[u]] += 1
            blocks.append(tuple(vec))
        key = tuple(sorted(blocks, reverse=True))
        counts[key] = counts.get(key, 0) + 1
    return counts


def sub_indices(k):
    """Every multi-index nu <= k, the zero index included."""
    out = [()]
    for v in k:
        out = [head + (x,) for head in out for x in range(v + 1)]
    return out


def gaussian_moment_table(mean, cov, k):
    """Exact raw moments E[x^nu] for all nu <= k of a Gaussian with the
    given rational mean and covariance (Stein recursion)."""
    @lru_cache(maxsize=None)
    def mom(idx):
        if not idx:
            return Fraction(1)
        a, rest = idx[0], idx[1:]
        total = mean[a] * mom(rest)
        for j in range(len(rest)):
            total += cov[a][rest[j]] * mom(rest[:j] + rest[j + 1:])
        return total

    table = {}
    for nu in sub_indices(k):
        if any(nu):
            idx = tuple(i for i, v in enumerate(nu) for _ in range(v))
            table[nu] = mom(idx)
    return table


def cumulant_by_set_partitions(moment, n):
    """Joint cumulant of n distinct coordinates from a moment lookup over
    subsets (tuples of coordinates); returns (value, sum of |terms|)."""
    total, scale = 0.0, 0.0
    for part in set_partitions(range(n)):
        term = (-1) ** (len(part) - 1) * math.factorial(len(part) - 1)
        for block in part:
            term *= moment(tuple(sorted(block)))
        total += term
        scale += abs(term)
    return total, scale


# ---------------------------------------------------------------------------
# complexes, ideals, graphs

def antichain_max(sets):
    sets = {frozenset(s) for s in sets}
    return {s for s in sets if not any(s < t for t in sets)}


def is_face(facets, s):
    return any(s <= f for f in facets)


def are_minimal_nonfaces(facets, gens):
    """Every generator is a non-face whose proper faces are all faces."""
    return all(not is_face(facets, g)
               and all(is_face(facets, g - {v}) for v in g) for g in gens)


def decomposable(p, facets, labels=None):
    """Chordal 1-skeleton (networkx) and facets equal to its maximal
    cliques (the flag-complex test)."""
    import networkx as nx
    g = nx.Graph()
    g.add_nodes_from(labels if labels is not None else range(1, p + 1))
    for f in facets:
        g.add_edges_from(combinations(sorted(f), 2))
    if not nx.is_chordal(g):
        return False
    return {frozenset(c) for c in nx.find_cliques(g)} == \
        {frozenset(f) for f in facets}


def chordal(vertices, edges):
    import networkx as nx
    g = nx.Graph()
    g.add_nodes_from(vertices)
    g.add_edges_from(edges)
    return nx.is_chordal(g)


def ferrer_like(gens):
    """Degree-2 generators forming a connected bipartite graph whose
    neighbourhoods on one side are nested (a difference graph)."""
    import networkx as nx
    if not gens or any(len(g) != 2 for g in gens):
        return False
    g = nx.Graph([tuple(s) for s in gens])
    if not nx.is_connected(g) or not nx.is_bipartite(g):
        return False
    side, _ = nx.bipartite.sets(g)
    nbhd = sorted((frozenset(g[v]) for v in side), key=len)
    return all(a <= b for a, b in zip(nbhd, nbhd[1:]))


# ---------------------------------------------------------------------------
# networks

def network_paths_and_cuts(nodes, edges, src, dst):
    """Minimal path and cut edge-sets by subset search over edge ids."""
    ids = [e for e, _, _ in edges]

    def connected(keep):
        adj = {n: [] for n in nodes}
        for e, u, v in edges:
            if e in keep:
                adj[u].append(v)
                adj[v].append(u)
        seen, stack = {src}, [src]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return dst in seen

    paths, cuts = [], []
    for size in range(1, len(ids) + 1):
        for sub in combinations(ids, size):
            s = frozenset(sub)
            if connected(s) and not any(q <= s for q in paths):
                paths.append(s)
            if not connected(set(ids) - s) and not any(c <= s for c in cuts):
                cuts.append(s)
    return set(paths), set(cuts)


# ---------------------------------------------------------------------------
# nerves

def faces_count(facets):
    """Number of nonempty faces of the complex generated by the facets."""
    faces = set()
    for f in facets:
        f = sorted(f)
        for size in range(1, len(f) + 1):
            faces.update(combinations(f, size))
    return len(faces)


def edge_set(facets):
    return {frozenset(e) for f in facets for e in combinations(sorted(f), 2)}


def distance_edges(points, r, tol):
    """Pairs whose radius-r balls meet: half-distance at most r."""
    out = set()
    for i, j in combinations(range(len(points)), 2):
        if math.dist(points[i], points[j]) / 2 <= r + tol:
            out.add(frozenset((i + 1, j + 1)))
    return out


def nested(steps):
    return all(is_face(b, f) for a, b in zip(steps, steps[1:]) for f in a)
