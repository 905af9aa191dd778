"""Square-free monomial ideals: the Stanley-Reisner correspondence in both
directions, membership, the 2-linear-resolution criterion and Ferrer ideal
recognition/decomposition.  The degree-2 classes run on the mask-native
graph core of ``graphs``: Froeberg's criterion on the complement of the
generator graph, Ferrer recognition on the generator graph itself."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import DomainError, _ints
from .graphs import (Graph, Labelled, _adjacency, _bits, _from_json,
                     _levels, encode_all, is_chordal)
from .partitions import _validate
from .simplicial import (SimplicialComplex, minimal_nonface_masks,
                         minimal_transversals, _antichain, _sort_key)


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
    first lengths[i] column variables; there is one length per row, weakly
    decreasing, each in 1..len(cols)."""
    rows: tuple[int, ...]
    cols: tuple[int, ...]
    lengths: tuple[int, ...]

    def __post_init__(self):
        message = ("a Ferrer shape needs one length per row, weakly "
                   "decreasing, each in 1..len(cols)")
        # the sizes are taken inside the reader, which refuses rows or cols
        # without a length too
        rows, cols = _ints((len(s) for s in (self.rows, self.cols)), message)
        chain = [cols, *_ints(self.lengths, message)]
        if len(chain) != rows + 1 or any(
                a < b or b < 1 for a, b in zip(chain, chain[1:])):
            raise DomainError(message)


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
    transversals of the generator supports, so the zero ideal gives the
    full simplex."""
    full = (1 << I.p) - 1
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
        m = _validate(m)
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
    adj = [full & ~(a | 1 << v)
           for v, a in enumerate(_adjacency(I.p, I.generators))]
    return is_chordal(Graph(I.p, tuple(adj), I.labels))


def recognize_ferrer(I: SquareFreeIdeal) -> FerrerShape | None:
    """A Ferrer ideal has degree-2 generators forming a connected bipartite
    graph whose row neighbourhoods, ordered by (-degree, label), form a
    chain under inclusion; the columns are ordered the same way, then the
    variables in no generator.  Returns the witness shape, or None.

    The rows are the colour class of the lowest-labelled used vertex.  The
    other class would do as well: the row neighbourhoods are nested exactly
    when the column neighbourhoods are."""
    if not I.generators or any(g.bit_count() != 2 for g in I.generators):
        return None
    adj = _adjacency(I.p, I.generators)
    labels = I.labels
    used = sum(1 << v for v, a in enumerate(adj) if a)
    start = 1 << min(_bits(used), key=labels.__getitem__)
    sides = [0, 0]                      # colour classes by level parity
    for depth, level in enumerate(_levels(adj, start)):
        sides[depth & 1] |= level
    # a staircase is connected, and an odd cycle puts an edge in one class
    if sides[0] | sides[1] != used or any(adj[v] & side for side in sides
                                          for v in _bits(side)):
        return None

    def by_degree(side):
        return sorted(_bits(side),
                      key=lambda v: (-adj[v].bit_count(), labels[v]))

    rows = by_degree(sides[0])
    if any(adj[b] & ~adj[a] for a, b in zip(rows, rows[1:])):
        return None
    cols = by_degree(((1 << I.p) - 1) & ~sides[0])   # isolated ones last
    return FerrerShape(tuple(labels[v] for v in rows),
                       tuple(labels[v] for v in cols),
                       tuple(adj[v].bit_count() for v in rows))


def ferrer_cliques(shape: FerrerShape
                   ) -> tuple[list[frozenset[int]], list[frozenset[int]]]:
    """Maximal cliques and separators of the complex of a Ferrer ideal.

    Row i's clique is its row variable, the columns it does not use and
    all rows below it.  It lies inside row i-1's exactly when
    lambda_i = lambda_{i-1}, so it is kept for i = 0 and wherever lambda
    drops; no two cliques are equal.  The clique of all columns is always
    maximal and comes last.  Separators are read off the resulting
    perfect sequence."""
    rows, cols, lengths = shape.rows, shape.cols, shape.lengths
    cliques = [frozenset((r, *cols[lengths[i]:], *rows[i + 1:]))
               for i, r in enumerate(rows)
               if i == 0 or lengths[i] != lengths[i - 1]]
    cliques.append(frozenset(cols))
    separators = []
    covered: set[int] = set()
    for j, c in enumerate(cliques):
        if j:
            separators.append(frozenset(c & covered))
        covered |= c
    return cliques, separators


def ideal_to_json(I: SquareFreeIdeal) -> dict:
    return I._to_json("generators")


def ideal_from_json(obj: dict) -> SquareFreeIdeal:
    return _from_json(obj, "generators", "ideal", make_ideal)


def format_generators(I: SquareFreeIdeal) -> str:
    """Printable generator list, e.g. ``x1*x4, x1*x5, x2*x5``."""
    parts = []
    for g in sorted(I.generator_sets(), key=lambda s: (len(s), sorted(s))):
        parts.append("*".join(f"x{v}" for v in sorted(g)))
    return ", ".join(parts)
