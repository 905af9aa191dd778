"""Multiset partitions of multi-indices, the cumulant combinatorics built
on them, and the one moment-cumulant transform every cumulant goes through.

A multi-index k in N^p stands for the multiset holding k_i copies of the
symbol i (1-based).  A partition is represented as a tuple of multi-indices,
one per block, with the blocks sorted in descending lexicographic order so
that every partition of a multiset has exactly one representation.
"""
from __future__ import annotations

import math
import operator
from collections import Counter
from fractions import Fraction
from itertools import product
from typing import Iterable, Mapping, Sequence

from .errors import DomainError

MultiIndex = tuple  # tuple[int, ...]
Partition = tuple   # tuple[MultiIndex, ...]

#: enumeration is super-exponential in the order; refuse beyond desk scale
MAX_ENUMERATION_ORDER = 12


def parse_multiindex(text: str) -> MultiIndex:
    """Parse the comma-separated text form, e.g. ``"1,0,2"``."""
    parts = [s.strip() for s in text.split(",")]
    try:
        k = tuple(int(s) for s in parts)
    except ValueError:
        raise DomainError(f"bad multi-index {text!r}") from None
    if any(v < 0 for v in k):
        raise DomainError(f"negative entry in multi-index {text!r}")
    return k


def format_multiindex(k: Sequence[int]) -> str:
    return ",".join(str(v) for v in k)


def manhattan_norm(k: Sequence[int]) -> int:
    return sum(k)


def plus_norm(k: Sequence[int]) -> int:
    """Manhattan norm plus one extra unit for every odd component."""
    return sum(k) + sum(1 for v in k if v % 2 == 1)


def unit_vector(p: int, i: int) -> MultiIndex:
    """e_i in N^p, i is 1-based."""
    if not 1 <= i <= p:
        raise DomainError(f"unit vector index {i} out of range 1..{p}")
    return tuple(1 if j == i - 1 else 0 for j in range(p))


def _validate(k) -> MultiIndex:
    k = tuple(k)
    try:
        k = tuple(operator.index(v) for v in k)
    except TypeError:
        raise DomainError(f"invalid multi-index {k!r}") from None
    if not k or any(v < 0 for v in k):
        raise DomainError(f"invalid multi-index {k!r}")
    return k


def enumerate_partitions(k: Sequence[int]) -> list[Partition]:
    """All partitions of the multiset with multiplicity ``k``, each exactly
    once.  Blocks within a partition are sorted descending; the returned list
    is sorted lexicographically."""
    k = _validate(k)
    if not any(k):
        raise DomainError("empty multiset")
    if sum(k) > MAX_ENUMERATION_ORDER:
        raise DomainError(
            f"multi-index order {sum(k)} exceeds enumeration bound "
            f"{MAX_ENUMERATION_ORDER}")
    return sorted(_partitions_rec(k, k))


def _partitions_rec(k, max_block):
    if not any(k):
        yield ()
        return
    # choose the next block among nonzero sub-multi-indices of k, in
    # descending lex order and never above the previous block: this lists
    # every multiset of blocks exactly once, blocks non-increasing.
    for block in product(*(range(v, -1, -1) for v in k)):
        if block > max_block or not any(block):
            continue
        rest = tuple(a - b for a, b in zip(k, block))
        for tail in _partitions_rec(rest, block):
            yield (block,) + tail


def _vector_factorial(v) -> int:
    out = 1
    for x in v:
        out *= math.factorial(x)
    return out


def collapse_number(pi: Iterable[Sequence[int]]) -> Fraction:
    """c(pi) = nu_M! / (prod_j nu_{M_j}! * nu_pi!) with componentwise
    factorials; always a positive integer-valued rational."""
    blocks = tuple(tuple(b) for b in pi)
    if not blocks or any(not any(b) for b in blocks):
        raise DomainError("partition must consist of nonzero blocks")
    total = tuple(sum(c) for c in zip(*blocks))
    den = 1
    for b in blocks:
        den *= _vector_factorial(b)
    for mult in Counter(blocks).values():
        den *= math.factorial(mult)
    return Fraction(_vector_factorial(total), den)


def chain_rule_terms(k: Sequence[int]) -> list[tuple[Fraction, int, list[MultiIndex]]]:
    """Symbolic expansion of D^k g(h(x)): one (coefficient, outer derivative
    order, inner derivative orders) triple per partition of k."""
    return [(collapse_number(pi), len(pi), list(pi))
            for pi in enumerate_partitions(k)]


def _cumulants(k, moment) -> dict:
    """Every joint cumulant kappa_nu, 0 != nu <= k, from the moments by the
    classical recursion over sub-multi-indices (Smith 1995, "A recursive
    formulation of the old problem of obtaining moments from cumulants and
    vice versa", Am. Stat. 49): with i the first nonzero component of nu
    and nu' = nu - e_i,

        kappa_nu = m_nu - sum_{lambda <= nu', lambda != nu'}
                   C(nu', lambda) kappa_{lambda + e_i} m_{nu' - lambda},

    C the product of componentwise binomials.  ``moment(nu)`` is called
    exactly once for each nonzero nu <= k, in ``product`` order, which puts
    every sub-index first; each of them is a block of some partition of k.
    Exact when the moments are Fractions."""
    k = _validate(k)
    if not any(k):
        raise DomainError("empty multiset")
    m, kappa = {}, {}
    for nu in product(*(range(v + 1) for v in k)):
        if not any(nu):
            continue
        m[nu] = moment(nu)
        i = next(j for j, v in enumerate(nu) if v)
        rest = nu[:i] + (nu[i] - 1,) + nu[i + 1:]
        total = m[nu]
        for lam in product(*(range(v + 1) for v in rest)):
            if lam == rest:
                continue
            coeff = 1
            for a, b in zip(rest, lam):
                coeff *= math.comb(a, b)
            up = lam[:i] + (lam[i] + 1,) + lam[i + 1:]
            total = total - coeff * kappa[up] \
                * m[tuple(a - b for a, b in zip(rest, lam))]
        kappa[nu] = total
    return kappa


def cumulant_from_moments(k: Sequence[int], moments: Mapping[MultiIndex, object]):
    """kappa_k from the moment table, which must hold m_nu for every nonzero
    nu <= k.  Exact when the moments are Fractions (ints count as
    Fractions); float moments give a float."""
    def lookup(nu):
        if nu not in moments:
            raise DomainError(
                f"missing moment for index {format_multiindex(nu)}")
        return Fraction(0) + moments[nu]

    k = _validate(k)
    return _cumulants(k, lookup)[k]


def moment_table_from_json(obj: Mapping[str, object]) -> dict[MultiIndex, object]:
    """Moment tables are JSON objects mapping index strings to rationals
    ("3/2"), decimal strings or numbers."""
    table = {}
    for key, raw in obj.items():
        k = parse_multiindex(key)
        if isinstance(raw, str):
            table[k] = Fraction(raw)
        elif isinstance(raw, int):
            table[k] = Fraction(raw)
        elif isinstance(raw, float):
            table[k] = raw
        else:
            raise DomainError(f"bad moment value {raw!r} for index {key}")
    return table
