"""Mask-native graph core shared by the simplicial/ideal/hierarchy modules.

The one label codec: ``Labelled``, the base of complexes, ideals and graphs,
normalises their labels with ``normalize_labels`` (default 1..p), turns
label sets into bit masks over positions with ``encode_all`` and back with
``vertices_of``; bad labels raise ``DomainError``; label sets are listed
in ``_label_set_key`` order (size, then sorted labels).  A graph is
one adjacency mask per position, built by ``_adjacency`` from any family of
masks, so ``encode_all`` refuses more than ``MAX_VERTICES`` vertices.  The
one maximum cardinality search, ``_mcs``, runs on those masks and returns
the maximal cliques in visit order (Blair-Peyton 1993) from one pass, or
None when zero fill-in fails (Tarjan-Yannakakis 1984): the graph is not
chordal.  ``hierarchy.factorize`` reads the separators and the clique
tree off the cliques.

The one JSON codec for label families (complexes and ideals):
``Labelled._to_json`` writes ``p``, the sorted label sets of one mask field
and the labels unless they are 1..p, and ``_from_json`` reads that form
back through the family's builder."""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import DomainError, _int, _json_int

MAX_VERTICES = 64


def normalize_labels(p: int, labels=None) -> tuple:
    """The labels as a tuple: 1..p when none are given, else exactly p
    distinct, hashable and mutually comparable labels."""
    try:
        labels = tuple(labels) if labels is not None else ()
        labels = labels or tuple(range(1, p + 1))
        valid = len(set(labels)) == len(labels) == p
        sorted(labels)
    except TypeError:
        valid = False
    if not valid:
        raise DomainError(f"need {p} distinct, hashable and comparable "
                          f"labels")
    return labels


def encode_all(p: int, labels, vertex_sets: Iterable
               ) -> tuple[tuple, list[int]]:
    """The normalised labels and the mask of each given set of labels, on
    an integer vertex count p in 1..MAX_VERTICES."""
    p = _int(p, "vertex count must be an integer")
    if p < 1:
        raise DomainError("vertex count must be at least 1")
    if p > MAX_VERTICES:
        raise DomainError(f"at most {MAX_VERTICES} vertices supported")
    labels = normalize_labels(p, labels)
    position = {lbl: i for i, lbl in enumerate(labels)}
    return labels, [encode(position, vs) for vs in vertex_sets]


def encode(position: dict, vertices: Iterable) -> int:
    """Mask of an iterable of labels, given the label -> position map."""
    mask = 0
    try:
        for v in vertices:
            mask |= 1 << position[v]
    except KeyError as missing:
        raise DomainError(f"label {missing.args[0]!r} out of range") \
            from None
    except TypeError:
        raise DomainError(f"not a list of labels: {vertices!r}") from None
    return mask


def _label_set_key(labels):
    """The one order of label sets in output: by size, then by the sorted
    labels."""
    return len(labels), sorted(labels)


class Labelled:
    """Base of the frozen dataclasses with fields ``p`` and ``labels``: it
    normalises the labels and encodes/decodes vertex sets."""

    def __post_init__(self):
        object.__setattr__(self, "labels",
                           normalize_labels(self.p, self.labels))

    @cached_property
    def _position(self) -> dict:
        return {lbl: i for i, lbl in enumerate(self.labels)}

    def mask_of(self, vertices: Iterable) -> int:
        return encode(self._position, vertices)

    def vertices_of(self, mask: int) -> frozenset:
        labels = self.labels
        return frozenset(labels[i] for i in _bits(mask))

    def _to_json(self, key: str) -> dict:
        """The JSON form: ``p``, under ``key`` the sorted label sets of the
        masks in the field of that name, and the labels unless 1..p."""
        obj = {"p": self.p,
               key: [sorted(self.vertices_of(m)) for m in getattr(self, key)]}
        if self.labels != tuple(range(1, self.p + 1)):
            obj["labels"] = list(self.labels)
        return obj


def _from_json(obj, key: str, what: str, make):
    """``make(p, label sets, labels=...)`` on the JSON form that
    ``Labelled._to_json`` writes; a missing or non-integer ``p`` or a
    missing ``key`` list is refused with "<what> JSON needs ..."."""
    try:
        p = _json_int(obj["p"])
        sets = list(obj[key])
    except (KeyError, TypeError, ValueError):
        raise DomainError(f"{what} JSON needs integer 'p' and '{key}'") \
            from None
    return make(p, sets, labels=obj.get("labels"))


@dataclass(frozen=True)
class Graph(Labelled):
    p: int
    adj: tuple[int, ...]                    # neighbour mask per position
    labels: tuple = ()

    @property
    def edges(self) -> tuple[tuple, ...]:
        """Sorted label pairs u < v."""
        lab = self.labels
        return tuple(sorted((min(lab[i], lab[j]), max(lab[i], lab[j]))
                            for i, nbrs in enumerate(self.adj)
                            for j in _bits(nbrs >> (i + 1) << (i + 1))))


def _adjacency(p: int, masks: Iterable[int]) -> list[int]:
    """Neighbour mask per position of the graph in which each mask joins
    its vertices pairwise."""
    adj = [0] * p
    for mask in masks:
        for i in _bits(mask):
            adj[i] |= mask
    return [a & ~(1 << i) for i, a in enumerate(adj)]


def _levels(adj: list[int], start: int):
    """The breadth-first levels, as masks, of a search from the mask
    ``start``; together they cover its connected component."""
    seen = frontier = start
    while frontier:
        yield frontier
        reach = 0
        for v in _bits(frontier):
            reach |= adj[v]
        frontier = reach & ~seen
        seen |= frontier


def make_graph(p: int, edges: Iterable[Iterable], labels=None) -> Graph:
    labels, masks = encode_all(p, labels, edges)
    if any(mask.bit_count() != 2 for mask in masks):
        raise DomainError("an edge must join two distinct vertices")
    return Graph(p, tuple(_adjacency(p, masks)), labels)


def _mcs(p: int, adj: list[int], labels: tuple) -> list[int] | None:
    """Maximum cardinality search: visit next the unvisited vertex with the
    most visited neighbours, the lowest label on ties.  The maximal cliques
    in visit order, or None if the graph is not chordal.

    The unvisited vertices sit in one mask per weight over their label
    ranks, so the lowest bit of the top mask is the next vertex.  The graph
    is chordal iff it has zero fill-in (Tarjan-Yannakakis 1984): each
    vertex's earlier neighbours lie in the closed neighbourhood of its
    parent, the latest visited of them, read off ``adj`` as it stands.  If
    so, {v} plus its earlier neighbours is a maximal clique exactly when v
    is last or the next vertex has no more earlier neighbours than v
    (Blair-Peyton 1993), and every maximal clique arises so once."""
    by_rank = sorted(range(p), key=labels.__getitem__)
    bit = [0] * p
    for r, v in enumerate(by_rank):
        bit[v] = 1 << r
    buckets = [(1 << p) - 1] + [0] * p      # unvisited, by weight
    weight = [0] * p
    parent = [0] * p        # the latest visited neighbour
    cliques = []
    visited = top = 0
    clique, size = 0, -1
    for _ in range(p):
        while not buckets[top]:
            top -= 1
        low = buckets[top] & -buckets[top]
        buckets[top] ^= low
        v = by_rank[low.bit_length() - 1]
        earlier = adj[v] & visited
        x = parent[v]
        if earlier & ~(adj[x] | 1 << x):
            return None
        if weight[v] <= size:
            cliques.append(clique)
        clique, size = earlier | 1 << v, weight[v]
        visited |= 1 << v
        for w in _bits(adj[v] & ~visited):
            k = weight[w]
            buckets[k] ^= bit[w]
            buckets[k + 1] |= bit[w]
            weight[w] = k + 1
            parent[w] = v
        top += 1
    cliques.append(clique)
    return cliques


def _bits(mask: int):
    while mask:
        v = (mask & -mask).bit_length() - 1
        mask &= mask - 1
        yield v


def find_chordless_cycle(graph: Graph) -> list | None:
    """A chordless cycle of length >= 4 (as a label list), or None.

    For every vertex v and non-adjacent pair x < y of its neighbours, a
    shortest x-y path avoiding N[v] \\ {x, y} closes a chordless cycle
    through v (shortest paths are induced).  The pairs are walked on the
    masks: x over N(v), then y over the neighbours of v above x that x
    misses, each in increasing position."""
    adj = graph.adj
    for v in range(graph.p):
        for x in _bits(adj[v]):
            for y in _bits(adj[v] & ~adj[x] & -(2 << x)):
                blocked = (adj[v] | (1 << v)) & ~(1 << x) & ~(1 << y)
                path = _shortest_path(adj, x, y, blocked)
                if path is not None:
                    cycle = path + [v]
                    return [graph.labels[i] for i in cycle]
    return None


def _shortest_path(adj, src, dst, blocked):
    prev = {src: None}
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            for w in _bits(adj[u] & ~blocked):
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
