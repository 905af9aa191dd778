"""Decomposability, clique/separator factorization, marginalization and the
translation of conditional-independence statements into zero-cumulant
generator sets."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import DomainError, NotDecomposableError, _int, _ints
from .graphs import (Labelled, _Search, _bits, _mcs, _zero_fill_in,
                     find_chordless_cycle)
from .ideal import SquareFreeIdeal, complex_of
from .simplicial import (SimplicialComplex, _antichain, _sort_key,
                         minimal_transversals, one_skeleton)


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
        universe = set(range(1, p + 1))
        if not parts[0] or not parts[1]:
            raise DomainError("I and J must be non-empty")
        if sum(len(s) for s in parts) != len(universe) \
                or set().union(*parts) != universe:
            raise DomainError("I, J, K must partition {1..p}")


def _nonflag_witness(S: SimplicialComplex,
                     search: _Search) -> frozenset[int] | None:
    """The (len, sorted)-first minimal non-face that is a clique of the
    chordal 1-skeleton, if any.  S equals the flag complex of its skeleton
    iff there is none.

    On a chordal graph every maximal clique is {v} plus the neighbours
    visited before v in the MCS order.  Any clique-shaped minimal non-face
    lies in one of them, C, which is then not a face; the minimal
    non-faces inside C are the minimal transversals of {C & ~f : f facet}.
    Only those cliques are searched."""
    candidates = [1 << v | earlier for v, earlier in enumerate(search.earlier)]
    found = []
    for clique in _antichain(candidates):
        if clique.bit_count() < 3 or any(clique & f == clique
                                         for f in S.facets):
            continue
        found += minimal_transversals([clique & ~f for f in S.facets], S.p)
    if not found:
        return None
    return min((S.vertices_of(m) for m in found),
               key=lambda f: (len(f), sorted(f)))


def _witness(S: SimplicialComplex):
    """The decomposability witness of S and the one MCS pass over its
    1-skeleton that found it."""
    skeleton = one_skeleton(S)
    search = _mcs(skeleton)
    if not _zero_fill_in(skeleton, search):
        return find_chordless_cycle(skeleton), search
    return _nonflag_witness(S, search), search


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
    is chordal."""
    return decomposability_witness(S) is None


def factorize(S: SimplicialComplex) -> Factorization:
    """Perfect ordering of the maximal cliques with separators, derived from
    a maximum cardinality search with lowest-label tie-break: the cliques
    go by the rank of their last-visited vertex."""
    witness, search = _witness(S)
    if witness is not None:
        kind = "chordless cycle" if isinstance(witness, list) \
            else "non-flag face"
        raise NotDecomposableError(
            f"complex is not decomposable ({kind}: {sorted(witness)})",
            witness=witness)
    rank = search.rank
    cliques = sorted(S.facets, key=lambda c: (
        max((rank[v] for v in _bits(c)), default=-1),
        sorted(S.vertices_of(c))))
    separators = []
    covered = 0
    for j, c in enumerate(cliques):
        if j:
            sep = c & covered
            if not any(sep & ~earlier == 0 for earlier in cliques[:j]):
                raise AssertionError(
                    "running intersection property violated")
            separators.append(sep)
        covered |= c
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
    return SquareFreeIdeal(len(labels), tuple(sorted(gens, key=_sort_key)),
                           labels)


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
