"""Decomposability, clique/separator factorization, marginalization and the
translation of conditional-independence statements into zero-cumulant
generator sets."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import DomainError, NotDecomposableError
from .graphs import (Graph, adjacency_masks, find_chordless_cycle,
                     is_chordal, mcs_order)
from .ideal import SquareFreeIdeal, complex_of
from .simplicial import (SimplicialComplex, _antichain, is_face,
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
        universe = set(range(1, self.p + 1))
        parts = [set(self.i_set), set(self.j_set), set(self.k_set)]
        if not self.i_set or not self.j_set:
            raise DomainError("I and J must be non-empty")
        if sum(len(s) for s in parts) != len(universe) \
                or set().union(*parts) != universe:
            raise DomainError("I, J, K must partition {1..p}")


def _nonflag_witness(S: SimplicialComplex,
                     skeleton: Graph) -> frozenset[int] | None:
    """The (len, sorted)-first minimal non-face that is a clique of the
    chordal 1-skeleton, if any.  S equals the flag complex of its skeleton
    iff there is none.

    On a chordal graph every maximal clique is {v} plus the neighbours
    visited before v in the MCS order.  Any clique-shaped minimal non-face
    lies in one of them, C, which is then not a face; the minimal
    non-faces inside C are the minimal transversals of {C & ~f : f facet}.
    Only those cliques are searched."""
    adj = adjacency_masks(skeleton)
    pos = {lbl: i for i, lbl in enumerate(skeleton.labels)}
    visited = 0
    candidates = []
    for lbl in mcs_order(skeleton):
        bit = 1 << pos[lbl]
        candidates.append(bit | adj[pos[lbl]] & visited)
        visited |= bit
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


def _witness(S: SimplicialComplex, skeleton: Graph):
    if not is_chordal(skeleton):
        return find_chordless_cycle(skeleton)
    return _nonflag_witness(S, skeleton)


def decomposability_witness(S: SimplicialComplex):
    """None when decomposable, otherwise a witness: a chordless cycle
    (list of vertices) or a non-flag minimal non-face (frozenset).

    A non-flag witness is the (len, sorted)-first minimal non-face that is
    a clique of the 1-skeleton.  It is searched for only inside the
    maximal cliques of the chordal skeleton that are not faces, so the
    minimal non-faces of S are never all computed."""
    return _witness(S, one_skeleton(S))


def is_decomposable(S: SimplicialComplex) -> bool:
    """True iff S is the clique complex of its 1-skeleton and the skeleton
    is chordal."""
    return decomposability_witness(S) is None


def factorize(S: SimplicialComplex) -> Factorization:
    """Perfect ordering of the maximal cliques with separators, derived from
    a maximum cardinality search with lowest-index tie-break."""
    skeleton = one_skeleton(S)
    witness = _witness(S, skeleton)
    if witness is not None:
        kind = "chordless cycle" if isinstance(witness, list) \
            else "non-flag face"
        raise NotDecomposableError(
            f"complex is not decomposable ({kind}: {sorted(witness)})",
            witness=witness)
    rank = {lbl: i for i, lbl in enumerate(mcs_order(skeleton))}
    cliques = sorted(S.facet_sets(),
                     key=lambda c: (max(rank[v] for v in c), sorted(c)))
    separators = []
    covered: set[int] = set()
    for j, c in enumerate(cliques):
        if j:
            sep = frozenset(c & covered)
            if not any(sep <= earlier for earlier in cliques[:j]):
                raise AssertionError(
                    "running intersection property violated")
            separators.append(sep)
        covered |= c
    return Factorization(tuple(cliques), tuple(separators))


def _compact(mask: int, positions: list[int]) -> int:
    """Renumber the bits of mask at the kept old positions to 0, 1, ..."""
    new = 0
    for new_i, old_i in enumerate(positions):
        if mask >> old_i & 1:
            new |= 1 << new_i
    return new


def marginalize(S: SimplicialComplex, J: Iterable[int]) -> SimplicialComplex:
    """Delete the vertex set J, valid when J lies in exactly one maximal
    clique; the result lives on the remaining labels."""
    J = frozenset(J)
    if not J:
        return S
    if not is_face(S, J):
        raise DomainError(f"{sorted(J)} is not a face")
    containing = [f for f in S.facet_sets() if J <= f]
    if len(containing) != 1:
        raise DomainError(
            f"{sorted(J)} is not a facet of a unique maximal clique")
    keep_labels = tuple(lbl for lbl in S.labels if lbl not in J)
    positions = [i for i, lbl in enumerate(S.labels) if lbl not in J]
    new_facets = [_compact(f, positions) for f in S.facets]
    return SimplicialComplex(len(keep_labels), _antichain(new_facets),
                             keep_labels)


def ideal_marginalize(I: SquareFreeIdeal, J: Iterable[int]) -> SquareFreeIdeal:
    """Drop the generators meeting J and pass to the ring without those
    variables; valid under the same precondition as ``marginalize``."""
    J = frozenset(J)
    S = complex_of(I)
    marginalize(S, J)        # enforces the unique-maximal-clique condition
    keep_labels = tuple(lbl for lbl in I.labels if lbl not in J)
    positions = [i for i, lbl in enumerate(I.labels) if lbl not in J]
    mask = S.mask_of(J)
    new_gens = [_compact(g, positions) for g in I.generators if not g & mask]
    return SquareFreeIdeal(len(keep_labels), tuple(sorted(
        new_gens, key=lambda m: (m.bit_count(), m))), keep_labels)


def ci_to_generators(stmt: CIStatement) -> list[tuple[int, ...]]:
    """Zero-cumulant orders {e_i + e_j : i in I, j in J} whose vanishing is
    equivalent to X_I independent of X_J given X_K."""
    out = []
    for i in sorted(stmt.i_set):
        for j in sorted(stmt.j_set):
            k = [0] * stmt.p
            k[i - 1] += 1
            k[j - 1] += 1
            out.append(tuple(k))
    return sorted(out)


def format_factorization(fact: Factorization) -> str:
    """Printable form, e.g. ``f{123} f{234} f{345} / f{23} f{34}``."""
    def fmt(c):
        verts = sorted(c)
        if verts and verts[-1] <= 9:
            return "f{" + "".join(str(v) for v in verts) + "}"
        return "f{" + ",".join(str(v) for v in verts) + "}"
    num = " ".join(fmt(c) for c in fact.cliques)
    seps = [s for s in fact.separators if s]
    if not seps:
        return num
    return num + " / " + " ".join(fmt(s) for s in seps)
