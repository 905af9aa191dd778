"""Multiset partitions of multi-indices, the cumulant combinatorics built
on them, and the one moment-cumulant transform every cumulant goes through.

A multi-index k in N^p stands for the multiset holding k_i copies of the
symbol i (1-based).  A partition is represented as a tuple of multi-indices,
one per block, with the blocks sorted in descending lexicographic order so
that every partition of a multiset has exactly one representation.  They are
enumerated by a recursion over sub-multisets: the largest block, then a
partition of the rest into blocks no larger.  The sub-multi-indices of k
are listed once per call in a table indexed by mixed-radix rank; the
recursion works on ranks, reads every block and rest off the table, so
equal blocks are one shared tuple, and memoises the partitions of every
rest under its rank.

The transform is Smith's recursion over the sub-multi-indices of k, kept in
flat lists indexed by mixed-radix rank.  An exact moment table runs it in
integers over a common denominator, with one Fraction at the end.
"""
from __future__ import annotations

import math
import operator
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate, islice, product
from typing import Iterable, Mapping, Sequence

from .errors import DomainError, _finite_real, _index, _json_int

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
    i = _index(i, p, "unit vector index")
    return tuple(1 if j == i - 1 else 0 for j in range(p))


def _validate(k) -> MultiIndex:
    """k as a non-empty tuple of non-negative integers; the one multi-index
    reader, so a float, string or boolean entry raises ``DomainError``."""
    try:
        k = tuple(map(_json_int, k))
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
    table = list(product(*(range(v + 1) for v in k)))
    return _multiset_partitions(len(table) - 1, table, _strides(k), {}, False)


def _strides(k) -> list[int]:
    """Mixed-radix strides of the sub-multi-indices of k: nu <= k has rank
    sum_j nu_j * strides[j], and ``product`` order is rank order."""
    strides = [1] * len(k)
    for j in range(len(k) - 1, 0, -1):
        strides[j - 1] = strides[j] * (k[j] + 1)
    return strides


def _multiset_partitions(r, table, strides, memo, keep):
    """The partitions of the sub-multiset of rank r in ascending lex order.

    ``table[r]`` is the sub-multi-index of k with mixed-radix rank r
    (``product`` order, which is lex order), so a block and its remainder
    are read off the table by rank arithmetic, and equal blocks are one
    tuple, the table's.  The largest block B holds the first symbol of
    m = table[r], and the rest is a partition of m - B whose blocks are
    all <= B: a prefix of the ascending list for m - B, found by bisecting
    on first blocks.  B's ranks run in ``product`` order, which is
    ascending, so the output is ascending too.

    ``memo`` maps the rank of a remainder to its list, for the deeper
    calls that reach it again.  The top level (``keep`` false) is the last
    to read each of its own remainders, so it pops them."""
    m = table[r]
    i = next(j for j, v in enumerate(m) if v)
    ranks = product(*(range(s if j == i else 0, (v + 1) * s, s)
                      for j, (v, s) in enumerate(zip(m, strides))))
    out = []
    for rb in map(sum, ranks):
        b = table[rb]
        head = (b,)
        rest = r - rb
        if not rest:
            out.append(head)
            continue
        sub = memo.get(rest) if keep else memo.pop(rest, None)
        if sub is None:
            sub = _multiset_partitions(rest, table, strides, memo, True)
            if keep:
                memo[rest] = sub
        cut = bisect_right(sub, b, key=operator.itemgetter(0))
        out += [head + tail for tail in islice(sub, cut)]
    return out


def _factorials(n: int) -> list[int]:
    return list(accumulate(range(1, n + 1), operator.mul, initial=1))


def _collapse(blocks, fact, top, block_den, fraction) -> Fraction:
    """c(pi) = top / (prod_j nu_{M_j}! * nu_pi!) for blocks sorted
    descending, top = nu_M! and fact[n] = n! up to the largest entry of M.
    Equal blocks are adjacent, so nu_pi! is built up run by run.
    ``block_den`` (block -> its factorial product) and ``fraction``
    (denominator -> c) are memo tables the caller keeps for one call."""
    den, run, prev = 1, 0, None
    for b in blocks:
        d = block_den.get(b)
        if d is None:
            d = block_den[b] = math.prod(fact[x] for x in b)
        run = run + 1 if b == prev else 1
        den *= d * run
        prev = b
    c = fraction.get(den)
    if c is None:
        c = fraction[den] = Fraction(top, den)
    return c


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
    return _collapse(sorted(blocks, reverse=True), fact, top, {}, {})


def chain_rule_terms(k: Sequence[int]) -> list[tuple[Fraction, int, list[MultiIndex]]]:
    """Symbolic expansion of D^k g(h(x)): one (coefficient, outer derivative
    order, inner derivative orders) triple per partition of k.

    The coefficient is the collapse number c(pi) = nu_k! / (prod_j
    nu_{M_j}! * nu_pi!), a positive integer.  For a square-free k the
    numerator nu_k! is 1, so every c(pi) is 1 and all terms share one
    ``Fraction(1)``."""
    k = _validate(k)
    pis = enumerate_partitions(k)
    fact = _factorials(max(k))
    top = math.prod(fact[x] for x in k)
    if top == 1:
        one = Fraction(1)
        return [(one, len(pi), list(pi)) for pi in pis]
    block_den, fraction = {}, {}
    return [(_collapse(pi, fact, top, block_den, fraction), len(pi), list(pi))
            for pi in pis]


def _cumulants(k, moment):
    """The joint cumulant kappa_k from the moments by the classical
    recursion over sub-multi-indices (Smith 1995, "A recursive formulation
    of the old problem of obtaining moments from cumulants and vice versa",
    Am. Stat. 49): with i the first nonzero component of nu and
    nu' = nu - e_i,

        kappa_nu = m_nu - sum_{lambda <= nu', lambda != nu'}
                   C(nu', lambda) kappa_{lambda + e_i} m_{nu' - lambda},

    C the product of componentwise binomials.  ``moment(nu)`` is called
    exactly once for each nonzero nu <= k, in ``product`` order, which puts
    every sub-index first; each of them is a block of some partition of k.
    Moments and cumulants live in two flat lists indexed by the rank of
    nu, so nu' - lambda and lambda + e_i are rank arithmetic.  Exact when
    the moments are ints or Fractions."""
    k = _validate(k)
    if not any(k):
        raise DomainError("empty multiset")
    strides = _strides(k)
    # pairs[j][a]: (rank offset, C(a, b)) of every b <= a on axis j
    pairs = [[[(b * s, math.comb(a, b)) for b in range(a + 1)]
              for a in range(v + 1)] for v, s in zip(k, strides)]
    m, kappa = [0], [0]
    lattice = product(*(range(v + 1) for v in k))
    next(lattice)
    for r, nu in enumerate(lattice, 1):
        total = moment(nu)
        m.append(total)
        i = next(j for j, v in enumerate(nu) if v)
        up, rest = strides[i], r - strides[i]
        # (rank(lambda), C(nu', lambda)) for lambda <= nu' in product order
        terms = [(0, 1)]
        for j, v in enumerate(nu):
            a = v - 1 if j == i else v
            if a:
                terms = [(o + o2, c * c2) for o, c in terms
                         for o2, c2 in pairs[j][a]]
        terms.pop()  # lambda = nu'
        for o, coeff in terms:
            total = total - coeff * kappa[o + up] * m[rest - o]
        kappa.append(total)
    return kappa[-1]


def cumulant_from_moments(k: Sequence[int], moments: Mapping[MultiIndex, object]):
    """kappa_k from the moment table, which must hold m_nu for every nonzero
    nu <= k.  Exact when the moments are ints and Fractions (numpy integers
    too); float moments give a float.  As in ``moment_table_from_json``, a
    value that is not a finite real (a boolean, nan, an infinity, a complex
    number, a string) is refused.

    Exact tables run in integers: with D the lcm of the moments'
    denominators, the recursion is homogeneous of degree |nu|, so the
    integers m_nu * D^|nu| give kappa_k * D^|k| and one Fraction at the
    end."""
    k = _validate(k)
    needed = {}
    for nu in product(*(range(v + 1) for v in k)):
        if any(nu):
            if nu not in moments:
                raise DomainError(
                    f"missing moment for index {format_multiindex(nu)}")
            needed[nu] = moments[nu]
    if any(type(v) not in (int, Fraction) for v in needed.values()):
        # floats, numpy scalars and booleans: only finite reals are moments
        for nu, v in needed.items():
            if not _finite_real(v):
                raise DomainError(f"bad moment value {v!r} for index "
                                  f"{format_multiindex(nu)}")
        return _cumulants(k, lambda nu: Fraction(0) + needed[nu])
    d = math.lcm(*(v.denominator for v in needed.values()))
    power = [d ** n for n in range(sum(k) + 1)]
    scaled = {nu: v.numerator * (d // v.denominator) * power[sum(nu) - 1]
              for nu, v in needed.items()}
    return Fraction(_cumulants(k, scaled.__getitem__), power[-1])


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
