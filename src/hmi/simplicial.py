"""Abstract simplicial complexes over a finite vertex set.

A complex is stored by its facets (the antichain of maximal faces) as bit
masks over vertex positions; the complex itself is the downward closure of
the facets.  Vertices carry labels, by default 1..p, so that marginal
complexes can live on a sub-ring of variables without relabelling.  Labels
go to and from masks through the one codec of ``graphs`` (``Labelled``);
the 1-skeleton is a ``graphs.Graph`` of adjacency masks, on which
decomposability runs one maximum cardinality search.  Minimal non-faces,
Alexander duals, flag complexes, the Stanley-Reisner map in both directions
and the cut/path duality of networks all reduce to
``minimal_transversals``, one depth-first MMCS search (Murakami and Uno
2014) on bit masks.

Both the void complex (no faces at all, ``facets == ()``) and the empty
complex (only the empty face) are representable; ``minimal_nonfaces`` of the
void complex is ``[frozenset()]``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graphs import (Graph, Labelled, _adjacency, _bits, _from_json,
                     encode_all)


@dataclass(frozen=True)
class SimplicialComplex(Labelled):
    p: int
    facets: tuple[int, ...]                 # bit masks, sorted
    labels: tuple = ()

    def facet_sets(self) -> list[frozenset[int]]:
        return [self.vertices_of(m) for m in self.facets]

    def full_mask(self) -> int:
        return (1 << self.p) - 1


def _sort_key(mask: int):
    return (mask.bit_count(), mask)


def _complements(p: int, masks: Iterable[int]) -> tuple[int, ...]:
    """The complements of the masks within positions 0..p-1, in
    ``_sort_key`` order."""
    full = (1 << p) - 1
    return tuple(sorted((full & ~m for m in masks), key=_sort_key))


def _antichain(masks: Iterable[int], minimal=False) -> tuple[int, ...]:
    """The maximal masks, or the minimal ones with ``minimal``, in
    ``_sort_key`` order.  Masks are visited largest first (smallest first
    with ``minimal``) and kept unless they lie inside (contain) a kept
    one."""
    masks = sorted(set(masks), key=int.bit_count, reverse=not minimal)
    keep: list[int] = []
    for m in masks:
        if not (any(m & k == k for k in keep) if minimal
                else any(m & k == m for k in keep)):
            keep.append(m)
    return tuple(sorted(keep, key=_sort_key))


def minimal_transversals(edge_masks: Iterable[int], p: int) -> tuple[int, ...]:
    """Inclusion-minimal hitting sets of a family of masks over positions
    0..p-1, by Murakami and Uno's MMCS (Discrete Appl. Math. 170, 2014).
    The empty family has transversal {0}; an empty edge allows none.

    A depth-first search grows one chosen set and keeps, as masks over edge
    ids, the edges it leaves uncovered and each chosen vertex's critical
    edges (those no other chosen vertex hits).  The set is minimal exactly
    when no critical mask is empty, so a child that empties one is pruned.
    Each node branches on an uncovered edge with the fewest candidate
    vertices; the scan stops early at an edge with one candidate (it is
    forced) or none (a dead end).  The i-th branch may still add the edge's
    first i - 1 vertices, so every transversal is found exactly once.  Only
    one root-to-leaf path is held, at most p deep."""
    edges = sorted(set(edge_masks), key=int.bit_count)
    if not edges:
        return (0,)
    if not edges[0]:
        return ()
    occ = [0] * p                       # ids of the edges through a vertex
    for i, e in enumerate(edges):
        for v in _bits(e):
            occ[v] |= 1 << i
    out: list[int] = []

    def search(chosen, cand, uncov, crit):
        fewest, branch, rest = p + 1, 0, uncov
        while rest:                     # smaller edges have lower ids
            low = rest & -rest
            rest ^= low
            c = edges[low.bit_length() - 1] & cand
            n = c.bit_count()
            if n < fewest:
                fewest, branch = n, c
                if n <= 1:
                    break
        cand &= ~branch
        while branch:
            bit = branch & -branch
            branch ^= bit
            hit = occ[bit.bit_length() - 1]
            kept = []
            for c in crit:
                c &= ~hit
                if not c:
                    break               # a chosen vertex became redundant
                kept.append(c)
            else:
                left = uncov & ~hit
                if left:
                    kept.append(uncov & hit)
                    search(chosen | bit, cand, left, kept)
                else:
                    out.append(chosen | bit)
            cand |= bit

    search(0, (1 << p) - 1, (1 << len(edges)) - 1, [])
    return tuple(sorted(out, key=_sort_key))


def make_complex(p: int, faces: Iterable[Iterable[int]],
                 labels=None) -> SimplicialComplex:
    """Downward closure of the given faces; facets are the maximal inputs."""
    labels, masks = encode_all(p, labels, faces)
    return SimplicialComplex(p, _antichain(masks), labels)


def is_face(S: SimplicialComplex, J: Iterable[int]) -> bool:
    mask = S.mask_of(J)
    return any(mask & f == mask for f in S.facets)


def minimal_nonface_masks(S: SimplicialComplex) -> tuple[int, ...]:
    # K is a non-face iff K meets the complement of every facet, so the
    # minimal non-faces are the minimal transversals of those complements:
    # the empty set alone for the void complex (no complements), none for
    # the full simplex (an empty complement).
    full = S.full_mask()
    return minimal_transversals([full & ~f for f in S.facets], S.p)


def minimal_nonfaces(S: SimplicialComplex) -> list[frozenset[int]]:
    """The inclusion-minimal index sets that are not faces of S."""
    out = [S.vertices_of(m) for m in minimal_nonface_masks(S)]
    return sorted(out, key=lambda f: (len(f), sorted(f)))


def alexander_dual(S: SimplicialComplex) -> SimplicialComplex:
    """S* = {complement of J : J not a face of S}; its facets are the
    complements of the minimal non-faces.  An involution."""
    return SimplicialComplex(S.p, _complements(S.p, minimal_nonface_masks(S)),
                             S.labels)


def one_skeleton(S: SimplicialComplex) -> Graph:
    return Graph(S.p, tuple(_adjacency(S.p, S.facets)), S.labels)


def flag_complex(graph: Graph) -> SimplicialComplex:
    """Clique complex of a graph, as the complex of its Stanley-Reisner
    ideal, which the non-edges x_i x_j generate: the maximal cliques are
    the complements of the minimal vertex covers of the complement graph."""
    p, adj = graph.p, graph.adj
    non_edges = [1 << i | 1 << j for i in range(p) for j in range(i + 1, p)
                 if not adj[i] >> j & 1]
    return SimplicialComplex(p, _complements(p, minimal_transversals(
        non_edges, p)), graph.labels)


def complex_to_json(S: SimplicialComplex) -> dict:
    return S._to_json("facets")


def complex_from_json(obj: dict) -> SimplicialComplex:
    return _from_json(obj, "facets", "complex", make_complex)
