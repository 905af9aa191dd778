"""Decomposability, clique/separator factorization, marginalization and the
translation of conditional-independence statements into zero-cumulant
generator sets."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import DomainError, NotDecomposableError, _int, _ints
from .graphs import (Graph, Labelled, _adjacency, _bits, _label_set_key,
                     _mcs, find_chordless_cycle)
from .ideal import SquareFreeIdeal, complex_of
from .simplicial import (SimplicialComplex, _antichain, _mask_order,
                         minimal_transversals)


@dataclass(frozen=True)
class Factorization:
    """Perfect clique sequence C_1..C_m with separators S_2..S_m where
    S_j = C_j /\\ (C_1 u ... u C_{j-1}); separators align with cliques[1:]."""
    cliques: tuple[frozenset[int], ...]
    separators: tuple[frozenset[int], ...]


@dataclass(frozen=True)
class CIStatement:
    """X_I independent of X_J given X_K; I, J, K partition {1..p}."""
    p: int
    i_set: frozenset[int]
    j_set: frozenset[int]
    k_set: frozenset[int]

    def __post_init__(self):
        message = ("a CI statement needs an integer p and sets of integer "
                   "indices")
        p = _int(self.p, message)
        parts = [frozenset(_ints(s, message))
                 for s in (self.i_set, self.j_set, self.k_set)]
        if not parts[0] or not parts[1]:
            raise DomainError("I and J must be non-empty")
        # decided from the parts alone, never by building {1..p}: p indices
        # in 1..p, none repeated across the parts
        union = set().union(*parts)
        if sum(len(s) for s in parts) != p or len(union) != p \
                or not all(1 <= v <= p for v in union):
            raise DomainError("I, J, K must partition {1..p}")


def _nonface_cliques(S: SimplicialComplex, cliques: list[int]) -> list[int]:
    """The maximal cliques of the chordal 1-skeleton with three or more
    vertices that are not faces of S.  Every facet is a clique, so a
    maximal clique inside a facet is that facet, and such a clique is a
    face exactly when it is a facet; a smaller maximal clique is a vertex
    in no face or an edge, which lies in a facet and so is one.  S equals
    the flag complex of its skeleton iff there is none: any clique-shaped
    minimal non-face lies in one of them."""
    facets = set(S.facets)
    return [c for c in cliques if c.bit_count() >= 3 and c not in facets]


def _nonflag_witness(S: SimplicialComplex,
                     cliques: list[int]) -> frozenset[int] | None:
    """The (len, sorted)-first minimal non-face that is a clique of the
    chordal 1-skeleton, if any.  It lies in a non-face maximal clique C,
    where the minimal non-faces are the minimal transversals of
    {C & ~f : f facet}; only those cliques are searched."""
    found = []
    for clique in _nonface_cliques(S, cliques):
        found += minimal_transversals([clique & ~f for f in S.facets], S.p)
    if not found:
        return None
    return min((S.vertices_of(m) for m in found), key=_label_set_key)


def _witness(S: SimplicialComplex):
    """The decomposability witness of S and the maximal cliques of its
    1-skeleton in the visit order of the one MCS pass that found it (None
    if the skeleton is not chordal)."""
    adj = _adjacency(S.p, S.facets)
    cliques = _mcs(S.p, adj, S.labels)
    if cliques is None:
        return find_chordless_cycle(Graph(S.p, tuple(adj), S.labels)), None
    return _nonflag_witness(S, cliques), cliques


def decomposability_witness(S: SimplicialComplex):
    """None when decomposable, otherwise a witness: a chordless cycle
    (list of vertices) or a non-flag minimal non-face (frozenset).

    A non-flag witness is the (len, sorted)-first minimal non-face that is
    a clique of the 1-skeleton.  It is searched for only inside the
    maximal cliques of the chordal skeleton that are not faces, so the
    minimal non-faces of S are never all computed."""
    return _witness(S)[0]


def is_decomposable(S: SimplicialComplex) -> bool:
    """True iff S is the clique complex of its 1-skeleton and the skeleton
    is chordal, decided from one maximum cardinality search alone: the
    skeleton has zero fill-in, and every maximal clique of three or more
    vertices is a facet.  No chordless cycle or non-flag face is built;
    ``decomposability_witness`` builds one."""
    cliques = _mcs(S.p, _adjacency(S.p, S.facets), S.labels)
    return cliques is not None and not _nonface_cliques(S, cliques)


def factorize(S: SimplicialComplex) -> Factorization:
    """Perfect ordering of the maximal cliques with separators, derived from
    a maximum cardinality search with lowest-label tie-break: the facets
    go in the order the search emits them as maximal cliques of the
    skeleton, which is the visit order of their last-visited vertices.
    The empty facet, the one facet of the empty complex, goes first.

    Each separator is taken by its definition, the part of its clique
    that the earlier cliques already cover, and the clique tree is read
    off the cliques (Blair-Peyton 1993, section 4): the separator's parent
    is the first clique of its latest visited vertex, which holds it by
    zero fill-in.  First-clique indices never decrease along the visit
    order, so that vertex has the largest of them in the separator.  The
    parent must hold the separator: the running intersection property,
    checked with one mask test per clique.  A clique the search emits that
    is no facet is a vertex in no face; it meets no other clique and gets
    no factor."""
    witness, found = _witness(S)
    if witness is not None:
        kind = "chordless cycle" if isinstance(witness, list) \
            else "non-flag face"
        raise NotDecomposableError(
            f"complex is not decomposable ({kind}: {sorted(witness)})",
            witness=witness)
    facets = set(S.facets)
    cliques = [0] if 0 in facets else []
    separators = []
    first = [0] * S.p       # per covered vertex, the first clique it joined
    covered = 0
    for j, c in enumerate(found):
        sep = c & covered
        for v in _bits(c & ~covered):
            first[v] = j
        covered |= c
        if c not in facets:
            continue
        if sep and sep & ~found[max(first[v] for v in _bits(sep))]:
            raise AssertionError("running intersection property violated")
        if cliques:
            separators.append(sep)
        cliques.append(c)
    return Factorization(tuple(map(S.vertices_of, cliques)),
                         tuple(map(S.vertices_of, separators)))


def _strip(X: Labelled, J: int, masks: Iterable[int]
           ) -> tuple[tuple, list[int]]:
    """The labels of X outside the mask J, and the masks renumbered onto
    those labels' positions."""
    keep = [i for i in range(X.p) if not J >> i & 1]
    return (tuple(X.labels[i] for i in keep),
            [sum(1 << new for new, old in enumerate(keep) if m >> old & 1)
             for m in masks])


def marginalize(S: SimplicialComplex, J: Iterable[int]) -> SimplicialComplex:
    """Delete the vertex set J, valid when J lies in exactly one maximal
    clique; the result lives on the remaining labels."""
    J = frozenset(J)
    if not J:
        return S
    mask = S.mask_of(J)
    containing = sum(mask & f == mask for f in S.facets)
    if not containing:
        raise DomainError(f"{sorted(J)} is not a face")
    if containing != 1:
        raise DomainError(
            f"{sorted(J)} is not a facet of a unique maximal clique")
    labels, facets = _strip(S, mask, S.facets)
    return SimplicialComplex(len(labels), _antichain(facets), labels)


def ideal_marginalize(I: SquareFreeIdeal, J: Iterable[int]) -> SquareFreeIdeal:
    """Drop the generators meeting J and pass to the ring without those
    variables; valid under the same precondition as ``marginalize``."""
    J = frozenset(J)
    marginalize(complex_of(I), J)   # enforces the unique-maximal-clique rule
    mask = I.mask_of(J)
    labels, gens = _strip(I, mask, [g for g in I.generators if not g & mask])
    return SquareFreeIdeal(len(labels), tuple(_mask_order(gens)), labels)


def ci_to_generators(stmt: CIStatement) -> list[tuple[int, ...]]:
    """Zero-cumulant orders {e_i + e_j : i in I, j in J} whose vanishing is
    equivalent to X_I independent of X_J given X_K; I and J are disjoint,
    so each is a 0/1 vector."""
    return sorted(tuple(int(v in (i, j)) for v in range(1, stmt.p + 1))
                  for i in stmt.i_set for j in stmt.j_set)


def format_factorization(fact: Factorization) -> str:
    """Printable form, e.g. ``f{123} f{234} f{345} / f{23} f{34}``; the
    digits run together only for integer labels up to 9, any other clique
    is comma-separated, e.g. ``f{a,b}``."""
    def fmt(c):
        verts = sorted(c)
        if verts and all(isinstance(v, int) and v <= 9 for v in verts):
            return "f{" + "".join(str(v) for v in verts) + "}"
        return "f{" + ",".join(str(v) for v in verts) + "}"
    num = " ".join(fmt(c) for c in fact.cliques)
    seps = [s for s in fact.separators if s]
    if not seps:
        return num
    return num + " / " + " ".join(fmt(s) for s in seps)
