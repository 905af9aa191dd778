"""Multiset partitions of multi-indices, the cumulant combinatorics built
on them, and the one moment-cumulant transform every cumulant goes through.

A multi-index k in N^p stands for the multiset holding k_i copies of the
symbol i (1-based).  A partition is represented as a tuple of multi-indices,
one per block, with the blocks sorted in descending lexicographic order so
that every partition of a multiset has exactly one representation.  They are
enumerated by Knuth's Algorithm M (TAOCP 4A, 7.2.1.5), which visits each
partition once in O(1) amortized steps.
"""
from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import accumulate, product
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
    # Algorithm M visits the partitions in decreasing lexicographic order
    out = list(_multiset_partitions(k))
    out.reverse()
    return out


def _multiset_partitions(k):
    """Knuth's Algorithm M (TAOCP 4A, 7.2.1.5, "multipartitions").

    Part l of the current partition is the stack frame f[l]..f[l+1]-1:
    entry j says that component c[j] has u[j] copies left to place in parts
    l, l+1, ... and v[j] of them in part l.  Each part is the largest the
    parts before it allow, so the parts come out in descending lex order.
    Block tuples are interned: equal blocks of different partitions are one
    object, and a part is rebuilt only once its frame has changed."""
    p, n = len(k), sum(k)
    m = sum(1 for x in k if x)
    c, u, v = [0] * (n * m + 1), [0] * (n * m + 1), [0] * (n * m + 1)
    f = [0] * (n + 2)
    # M1: the whole multiset in one part
    c[:m] = [i for i, x in enumerate(k) if x]
    u[:m] = v[:m] = [x for x in k if x]
    a, b, level, f[1] = 0, m, 0, m
    blocks = [()] * (n + 1)
    fresh = 0  # lowest part whose block changed since the last visit
    interned = {}
    while True:
        # M2: subtract v from u; M3: push the remainder as a new part
        while True:
            top, shrunk = b, False
            for j in range(a, b):
                rest = u[j] - v[j]
                if not rest:
                    shrunk = True
                    continue
                c[top], u[top] = c[j], rest
                if shrunk:
                    v[top] = rest
                else:
                    v[top] = rest if rest < v[j] else v[j]
                    shrunk = rest < v[j]
                top += 1
            if top == b:
                break
            a, b, level = b, top, level + 1
            f[level + 1] = b
        # M4: visit
        for l in range(fresh, level + 1):
            row = [0] * p
            for j in range(f[l], f[l + 1]):
                row[c[j]] = v[j]
            row = tuple(row)
            blocks[l] = interned.setdefault(row, row)
        yield tuple(blocks[:level + 1])
        # M5: decrease v, M6: backtracking to an earlier part when this
        # one cannot be decreased
        while True:
            j = b - 1
            while not v[j]:
                j -= 1
            if j != a or v[j] != 1:
                break
            if not level:
                return
            level -= 1
            b, a = a, f[level]
        v[j] -= 1
        for i in range(j + 1, b):
            v[i] = u[i]
        fresh = level


def _factorials(n: int) -> list[int]:
    return list(accumulate(range(1, n + 1), operator.mul, initial=1))


def _collapse(blocks, fact, top) -> Fraction:
    """c(pi) = top / (prod_j nu_{M_j}! * nu_pi!) for blocks sorted
    descending, top = nu_M! and fact[n] = n! up to the largest entry of M.
    Equal blocks are adjacent, so nu_pi! is built up run by run."""
    den, run, prev = 1, 0, None
    for b in blocks:
        for x in b:
            den *= fact[x]
        run = run + 1 if b == prev else 1
        den *= run
        prev = b
    return Fraction(top, den)


def collapse_number(pi: Iterable[Sequence[int]]) -> Fraction:
    """c(pi) = nu_M! / (prod_j nu_{M_j}! * nu_pi!) with componentwise
    factorials; always a positive integer-valued rational."""
    blocks = tuple(_validate(b) for b in pi)
    if not blocks or any(not any(b) for b in blocks):
        raise DomainError("partition must consist of nonzero blocks")
    if len({len(b) for b in blocks}) != 1:
        raise DomainError("partition blocks differ in length")
    total = [sum(col) for col in zip(*blocks)]
    fact = _factorials(max(total))
    top = math.prod(fact[x] for x in total)
    return _collapse(sorted(blocks, reverse=True), fact, top)


def chain_rule_terms(k: Sequence[int]) -> list[tuple[Fraction, int, list[MultiIndex]]]:
    """Symbolic expansion of D^k g(h(x)): one (coefficient, outer derivative
    order, inner derivative orders) triple per partition of k."""
    pis = enumerate_partitions(k)
    k = _validate(k)
    fact = _factorials(max(k))
    top = math.prod(fact[x] for x in k)
    return [(_collapse(pi, fact, top), len(pi), list(pi)) for pi in pis]


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
    ("3/2"), decimal strings or numbers.  Strings and integers are read
    exactly and finite floats kept as floats; booleans, non-finite floats
    and strings that are not rationals raise ``DomainError``."""
    if not isinstance(obj, dict):
        raise DomainError("moment table must be a JSON object")
    table = {}
    for key, raw in obj.items():
        k = parse_multiindex(key)
        try:
            if isinstance(raw, float) and math.isfinite(raw):
                table[k] = raw
            elif isinstance(raw, (int, str)) and not isinstance(raw, bool):
                table[k] = Fraction(raw)
            else:
                raise ValueError
        except (ValueError, ZeroDivisionError):
            raise DomainError(f"bad moment value {raw!r} for index "
                              f"{key}") from None
    return table
