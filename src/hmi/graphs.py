"""Small-graph machinery shared by the simplicial/ideal/hierarchy modules:
maximal cliques, maximum cardinality search, chordality and chordless-cycle
witnesses.  Vertices carry integer labels; adjacency is kept as bit masks
over positions, so everything here assumes at most 64 vertices."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .errors import DomainError


@dataclass(frozen=True)
class Graph:
    p: int
    edges: tuple[tuple[int, int], ...]      # label pairs, u < v
    labels: tuple[int, ...] = field(default=())

    def __post_init__(self):
        if not self.labels:
            object.__setattr__(self, "labels", tuple(range(1, self.p + 1)))
        if len(self.labels) != self.p:
            raise DomainError("label count does not match vertex count")


def make_graph(p: int, edges: Iterable[Iterable[int]], labels=None) -> Graph:
    labels = tuple(labels) if labels else tuple(range(1, p + 1))
    known = set(labels)
    canon = set()
    for e in edges:
        u, v = sorted(e)
        if u == v or u not in known or v not in known:
            raise DomainError(f"bad edge {(u, v)}")
        canon.add((u, v))
    return Graph(p, tuple(sorted(canon)), labels)


def _index(graph: Graph) -> dict[int, int]:
    return {lbl: i for i, lbl in enumerate(graph.labels)}


def adjacency_masks(graph: Graph) -> list[int]:
    pos = _index(graph)
    adj = [0] * graph.p
    for u, v in graph.edges:
        i, j = pos[u], pos[v]
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return adj


def max_clique_masks(adj: list[int], p: int) -> list[int]:
    """Bron-Kerbosch with pivoting; returns facet masks (isolated vertices
    appear as singleton cliques)."""
    out = []

    def expand(r, cand, excl):
        if cand == 0 and excl == 0:
            out.append(r)
            return
        pivot_pool = cand | excl
        pivot = (pivot_pool & -pivot_pool).bit_length() - 1
        best = pivot
        best_cover = (cand & adj[pivot]).bit_count()
        probe = pivot_pool
        while probe:
            v = (probe & -probe).bit_length() - 1
            probe &= probe - 1
            cover = (cand & adj[v]).bit_count()
            if cover > best_cover:
                best, best_cover = v, cover
        ext = cand & ~adj[best]
        while ext:
            v = (ext & -ext).bit_length() - 1
            bit = 1 << v
            ext &= ext - 1
            expand(r | bit, cand & adj[v], excl & adj[v])
            cand &= ~bit
            excl |= bit

    if p:
        expand(0, (1 << p) - 1, 0)
    return sorted(out)


def mcs_order(graph: Graph) -> list[int]:
    """Maximum cardinality search visit order (labels); ties broken by the
    lowest label so the order is deterministic."""
    adj = adjacency_masks(graph)
    weight = [0] * graph.p
    visited = [False] * graph.p
    by_label = sorted(range(graph.p), key=lambda i: graph.labels[i])
    order = []
    for _ in range(graph.p):
        best = None
        for i in by_label:
            if visited[i] and best is not None:
                continue
            if not visited[i] and (best is None or weight[i] > weight[best]):
                best = i
        visited[best] = True
        order.append(graph.labels[best])
        nb = adj[best]
        while nb:
            j = (nb & -nb).bit_length() - 1
            nb &= nb - 1
            if not visited[j]:
                weight[j] += 1
        by_label = [i for i in by_label if not visited[i]]
    return order


def is_chordal(graph: Graph) -> bool:
    """Zero fill-in check on the MCS order (Tarjan-Yannakakis)."""
    adj = adjacency_masks(graph)
    pos_of = _index(graph)
    order = [pos_of[lbl] for lbl in mcs_order(graph)]
    rank = [0] * graph.p
    for r, i in enumerate(order):
        rank[i] = r
    for i in range(graph.p):
        earlier = 0
        nb = adj[i]
        while nb:
            j = (nb & -nb).bit_length() - 1
            nb &= nb - 1
            if rank[j] < rank[i]:
                earlier |= 1 << j
        if earlier == 0:
            continue
        parent = max((rank[j], j) for j in _bits(earlier))[1]
        rest = earlier & ~(1 << parent)
        if rest & ~adj[parent]:
            return False
    return True


def _bits(mask: int):
    while mask:
        v = (mask & -mask).bit_length() - 1
        mask &= mask - 1
        yield v


def find_chordless_cycle(graph: Graph) -> list[int] | None:
    """A chordless cycle of length >= 4 (as a label list), or None.

    For every vertex v and non-adjacent pair x, y of its neighbours, a
    shortest x-y path avoiding N[v] \\ {x, y} closes a chordless cycle
    through v (shortest paths are induced)."""
    adj = adjacency_masks(graph)
    for v in range(graph.p):
        nbrs = list(_bits(adj[v]))
        for a in range(len(nbrs)):
            for b in range(a + 1, len(nbrs)):
                x, y = nbrs[a], nbrs[b]
                if adj[x] >> y & 1:
                    continue
                blocked = (adj[v] | (1 << v)) & ~(1 << x) & ~(1 << y)
                path = _shortest_path(adj, graph.p, x, y, blocked)
                if path is not None:
                    cycle = path + [v]
                    return [graph.labels[i] for i in cycle]
    return None


def _shortest_path(adj, p, src, dst, blocked):
    prev = {src: None}
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            nb = adj[u] & ~blocked
            while nb:
                w = (nb & -nb).bit_length() - 1
                nb &= nb - 1
                if w not in prev:
                    prev[w] = u
                    if w == dst:
                        path = [w]
                        while prev[path[-1]] is not None:
                            path.append(prev[path[-1]])
                        return path[::-1]
                    nxt.append(w)
        frontier = nxt
    return None
