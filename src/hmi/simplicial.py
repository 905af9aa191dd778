"""Abstract simplicial complexes over a finite vertex set.

A complex is stored by its facets (the antichain of maximal faces) as bit
masks over vertex positions; the complex itself is the downward closure of
the facets.  Vertices carry labels, by default 1..p, so that marginal
complexes can live on a sub-ring of variables without relabelling.  Labels
go to and from masks through the one codec of ``graphs`` (``Labelled``);
the 1-skeleton is a ``graphs.Graph`` of adjacency masks; decomposability
runs one maximum cardinality search on those masks.  Minimal non-faces,
Alexander duals, flag complexes, the Stanley-Reisner map in both directions
and the cut/path duality of networks all reduce to
``minimal_transversals``, one depth-first MMCS search (Murakami and Uno
2014) on bit masks.  An empty edge is refused before the search, and
every search node keeps a candidate for every uncovered edge.  Each node
counts those candidates from the smaller side (a scan of the edges, or a
bit-sliced fold of the candidates' edge masks), adds every forced vertex at
once and branches on the first edge with the fewest candidates.

Both the void complex (no faces at all, ``facets == ()``) and the empty
complex (only the empty face) are representable; ``minimal_nonfaces`` of the
void complex is ``[frozenset()]``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graphs import (Graph, Labelled, _adjacency, _from_json, _label_set_key,
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


def _mask_order(masks: Iterable[int]) -> list[int]:
    """The masks in the one mask order, by size and then by value; the
    stable sort by size keeps the value order, so both keys are builtins."""
    return sorted(sorted(masks), key=int.bit_count)


def _complements(p: int, masks: Iterable[int]) -> tuple[int, ...]:
    """The complements of the masks within positions 0..p-1, in
    ``_mask_order``."""
    full = (1 << p) - 1
    return tuple(_mask_order(full & ~m for m in masks))


def _antichain(masks: Iterable[int], minimal=False) -> tuple[int, ...]:
    """The maximal masks, or the minimal ones with ``minimal``, in
    ``_mask_order``.  Masks are visited largest first (smallest first
    with ``minimal``) and kept unless they lie inside (contain) a kept
    one."""
    masks = sorted(set(masks), key=int.bit_count, reverse=not minimal)
    keep: list[int] = []
    for m in masks:
        if not (any(m & k == k for k in keep) if minimal
                else any(m & k == m for k in keep)):
            keep.append(m)
    return tuple(_mask_order(keep))


def minimal_transversals(edge_masks: Iterable[int], p: int) -> tuple[int, ...]:
    """Inclusion-minimal hitting sets of a family of masks over positions
    0..p-1, by Murakami and Uno's MMCS (Discrete Appl. Math. 170, 2014).
    The empty family has transversal {0}; an empty edge allows none.

    A depth-first search grows one chosen set and keeps, as masks over edge
    ids, the edges it leaves uncovered and each chosen vertex's critical
    edges (those no other chosen vertex hits).  The set is minimal exactly
    when no critical mask is empty, so a step that empties one is pruned.
    Edges are numbered in ``_mask_order``, so the search does not
    depend on the order they are given in.

    An empty edge is refused before the search.  Every node keeps a
    candidate vertex for every uncovered edge: the root has them all, and a
    branch on an edge with k fewest candidates leaves every edge it does
    not cover at least one.  Each node first reads how many candidates
    every uncovered edge has (1, 2 or more) from the smaller side: it scans
    the edges when they are no more than the candidates, and otherwise
    folds the candidates' edge masks into three bit-sliced masks (edges hit
    at least once, twice, three times).  Every vertex that is some edge's
    last candidate is forced, and all are added in one step with one
    critical-edge update; the edges they leave uncovered keep their counts,
    so none becomes forced.  A forced vertex keeps no critical mask: no
    other vertex of its forced edge can join below, so it never becomes
    redundant.  The node then branches on the first uncovered edge with the
    fewest candidates: the first with two, else the first with the fewest
    of three or more.  A counting scan records that edge as it goes, and
    it stays the right one unless the forced step covers it; only then, or
    after a fold, one more scan looks for it.  The i-th branch may still
    add the edge's first i - 1 vertices, so every transversal is found
    exactly once.  Only one root-to-leaf path is held, at most p deep."""
    edges = _mask_order(set(edge_masks))
    if not edges:
        return (0,)
    if not edges[0]:                    # an empty edge sorts first
        return ()
    occ = [0] * p                       # ids of the edges through a vertex
    for i, e in enumerate(edges):
        bit = 1 << i
        while e:
            low = e & -e
            occ[low.bit_length() - 1] |= bit
            e ^= low
    every = (1 << len(edges)) - 1
    miss = [every ^ o for o in occ]     # ids of the edges missing a vertex
    out: list[int] = []

    def search(chosen, cand, uncov, crit):
        # forced: the last candidates; two: the edges with two candidates;
        # first: the first edge with the fewest candidates, three or more,
        # if the scan found it
        if uncov.bit_count() <= cand.bit_count():
            forced = two = first = 0
            fewest, rest = p + 1, uncov
            while rest:
                low = rest & -rest
                rest ^= low
                c = edges[low.bit_length() - 1] & cand
                n = c.bit_count()
                if n == 2:
                    two |= low
                elif n == 1:
                    forced |= c
                elif n < fewest:
                    fewest, first = n, low
        else:
            first = 0
            once = twice = more = 0
            rest = cand
            while rest:
                low = rest & -rest
                rest ^= low
                o = occ[low.bit_length() - 1]
                more |= twice & o
                twice |= once & o
                once |= o
            two = uncov & twice & ~more
            forced = 0
            rest = uncov & ~twice
            while rest:
                low = rest & -rest
                rest ^= low
                forced |= edges[low.bit_length() - 1] & cand
        if forced:
            keep, rest = every, forced
            while rest:
                low = rest & -rest
                rest ^= low
                keep &= miss[low.bit_length() - 1]
            kept = []
            for c in crit:
                c &= keep
                if not c:
                    return              # a chosen vertex became redundant
                kept.append(c)
            chosen |= forced
            cand ^= forced
            uncov &= keep
            if not uncov:
                out.append(chosen)
                return
            crit = kept
            two &= uncov
            first &= uncov              # the forced step may cover it
        if two:
            first = two & -two
        elif not first:                 # each uncovered edge has three or more
            fewest, rest = p + 1, uncov
            while rest:
                low = rest & -rest
                rest ^= low
                n = (edges[low.bit_length() - 1] & cand).bit_count()
                if n < fewest:
                    fewest, first = n, low
                    if n == 3:          # none has fewer now
                        break
        branch = edges[first.bit_length() - 1] & cand
        cand ^= branch
        while branch:
            bit = branch & -branch
            branch ^= bit
            keep = miss[bit.bit_length() - 1]
            kept = []
            for c in crit:
                c &= keep
                if not c:
                    break               # a chosen vertex became redundant
                kept.append(c)
            else:
                left = uncov & keep
                if left:
                    kept.append(uncov ^ left)
                    search(chosen | bit, cand, left, kept)
                else:
                    out.append(chosen | bit)
            cand |= bit

    search(0, (1 << p) - 1, every, [])
    return tuple(_mask_order(out))


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
    return sorted(out, key=_label_set_key)


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
