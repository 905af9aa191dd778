"""Square-free monomial ideals: the Stanley-Reisner correspondence in both
directions, membership, the 2-linear-resolution criterion and Ferrer ideal
recognition/decomposition."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import DomainError
from .graphs import Graph, Labelled, _bits, encode_all, is_chordal
from .simplicial import (SimplicialComplex, minimal_nonface_masks,
                         minimal_transversals, _antichain, _json_int,
                         _sort_key)


@dataclass(frozen=True)
class SquareFreeIdeal(Labelled):
    p: int
    generators: tuple[int, ...]             # support masks, an antichain
    labels: tuple = ()

    def generator_sets(self) -> list[frozenset[int]]:
        return [self.vertices_of(m) for m in self.generators]


@dataclass(frozen=True)
class FerrerShape:
    """Witness ordering for a Ferrer ideal: row i (0-based) pairs with the
    first lengths[i] column variables; lengths is weakly decreasing."""
    rows: tuple[int, ...]
    cols: tuple[int, ...]
    lengths: tuple[int, ...]


def make_ideal(p: int, generators: Iterable[Iterable[int]],
               labels=None) -> SquareFreeIdeal:
    labels, masks = encode_all(p, labels, generators)
    if 0 in masks:
        raise DomainError("generator with empty support")
    return SquareFreeIdeal(p, _antichain(masks, minimal=True), labels)


def stanley_reisner(S: SimplicialComplex) -> SquareFreeIdeal:
    """Generators are the minimal non-faces of S."""
    gens = minimal_nonface_masks(S)
    if any(m == 0 for m in gens):
        raise DomainError("void complex corresponds to the unit ideal")
    return SquareFreeIdeal(S.p, tuple(gens), S.labels)


def complex_of(I: SquareFreeIdeal) -> SimplicialComplex:
    """Inverse of the Stanley-Reisner map: faces are the supports divided by
    no generator.  The facets are the complements of the minimal
    transversals of the generator supports."""
    full = (1 << I.p) - 1
    if not I.generators:
        return SimplicialComplex(I.p, (full,), I.labels)
    facets = [full & ~t for t in minimal_transversals(I.generators, I.p)]
    return SimplicialComplex(I.p, tuple(sorted(facets, key=_sort_key)),
                             I.labels)


def contains(I: SquareFreeIdeal, m) -> bool:
    """Membership of a monomial.  ``m`` is either a set of variable labels
    (the support of a square-free monomial) or an exponent vector of length
    p; in the latter case the support is the set of nonzero positions."""
    if isinstance(m, (set, frozenset)):
        mask = I.mask_of(m)
    else:
        m = tuple(m)
        if len(m) != I.p:
            raise DomainError(f"exponent vector must have length {I.p}")
        mask = sum(1 << i for i, e in enumerate(m) if e)
    return any(g & mask == g for g in I.generators)


def has_2linear_resolution(I: SquareFreeIdeal) -> bool:
    """Froeberg criterion: generated in degree 2 and the graph of
    non-generator pairs (the 1-skeleton of complex_of(I)) is chordal."""
    if any(g.bit_count() != 2 for g in I.generators):
        return False
    full = (1 << I.p) - 1
    adj = [full & ~(1 << v) for v in range(I.p)]
    for g in I.generators:
        for v in _bits(g):
            adj[v] &= ~g
    return is_chordal(Graph(I.p, tuple(adj), I.labels))


def recognize_ferrer(I: SquareFreeIdeal) -> FerrerShape | None:
    """A Ferrer ideal has degree-2 generators forming a bipartite graph
    whose incidence table, with both sides sorted by degree descending, is
    an inverse staircase.  Variables in no generator are appended as empty
    columns.  Returns the witness shape, or None."""
    if not I.generators or any(g.bit_count() != 2 for g in I.generators):
        return None
    gens = [tuple(sorted(g)) for g in I.generator_sets()]
    used = sorted({v for g in gens for v in g})
    isolated = sorted(set(I.labels) - set(used))
    sides = _bipartition(gens, used)
    if sides is None:
        return None
    for rows_side, cols_side in (sides, sides[::-1]):
        shape = _staircase(gens, rows_side, cols_side, isolated)
        if shape is not None:
            return shape
    return None


def _bipartition(gens, used):
    """Two-colour the generator graph; None if odd cycle.  A staircase with
    every row and column used is connected, so reject disconnected supports
    up front."""
    adj = {v: set() for v in used}
    for a, b in gens:
        adj[a].add(b)
        adj[b].add(a)
    colour = {used[0]: 0}
    queue = [used[0]]
    while queue:
        v = queue.pop()
        for w in adj[v]:
            if w not in colour:
                colour[w] = colour[v] ^ 1
                queue.append(w)
            elif colour[w] == colour[v]:
                return None
    if len(colour) != len(used):
        return None
    side0 = sorted(v for v in used if colour[v] == 0)
    side1 = sorted(v for v in used if colour[v] == 1)
    return side0, side1


def _staircase(gens, rows_side, cols_side, isolated):
    pairs = {frozenset(g) for g in gens}
    row_deg = {r: sum(1 for c in cols_side if frozenset((r, c)) in pairs)
               for r in rows_side}
    col_deg = {c: sum(1 for r in rows_side if frozenset((r, c)) in pairs)
               for c in cols_side}
    rows = sorted(rows_side, key=lambda r: (-row_deg[r], r))
    cols = sorted(cols_side, key=lambda c: (-col_deg[c], c)) + isolated
    lengths = []
    for r in rows:
        lam = row_deg[r]
        if any(frozenset((r, c)) not in pairs for c in cols[:lam]):
            return None
        lengths.append(lam)
    if any(a < b for a, b in zip(lengths, lengths[1:])):
        return None
    return FerrerShape(tuple(rows), tuple(cols), tuple(lengths))


def ferrer_cliques(shape: FerrerShape
                   ) -> tuple[list[frozenset[int]], list[frozenset[int]]]:
    """Maximal cliques and separators of the complex of a Ferrer ideal.

    Applies the complementary-table rule (row variable, its unused columns,
    all rows below), prunes non-maximal sets, appends the pure-column clique
    when some column is unused by the first row, and reads separators off
    the resulting perfect sequence."""
    rows, cols, lengths = shape.rows, shape.cols, shape.lengths
    raw = []
    for i, r in enumerate(rows):
        clique = {r} | set(cols[lengths[i]:]) | set(rows[i + 1:])
        raw.append(frozenset(clique))
    raw.append(frozenset(cols))
    cliques = [c for c in raw
               if not any(c < other for other in raw)]
    seen = []
    for c in cliques:                       # stable de-dup, keep row order
        if c not in seen:
            seen.append(c)
    cliques = seen
    separators = []
    covered: set[int] = set()
    for j, c in enumerate(cliques):
        if j:
            separators.append(frozenset(c & covered))
        covered |= c
    return cliques, separators


def ideal_to_json(I: SquareFreeIdeal) -> dict:
    obj = {"p": I.p, "generators": [sorted(g) for g in I.generator_sets()]}
    if I.labels != tuple(range(1, I.p + 1)):
        obj["labels"] = list(I.labels)
    return obj


def ideal_from_json(obj: dict) -> SquareFreeIdeal:
    try:
        p = _json_int(obj["p"])
        gens = list(obj["generators"])
    except (KeyError, TypeError, ValueError):
        raise DomainError("ideal JSON needs integer 'p' and 'generators'") \
            from None
    return make_ideal(p, gens, labels=obj.get("labels"))


def format_generators(I: SquareFreeIdeal) -> str:
    """Printable generator list, e.g. ``x1*x4, x1*x5, x2*x5``."""
    parts = []
    for g in sorted(I.generator_sets(), key=lambda s: (len(s), sorted(s))):
        parts.append("*".join(f"x{v}" for v in sorted(g)))
    return ", ".join(parts)
