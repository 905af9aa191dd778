"""Multiset partition enumeration, collapse numbers and the moment-cumulant
transform, certified against labelled set partitions and the exact Isserlis
recursion."""
import gc
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from sympy.utilities.iterables import multiset_partitions

from hmi import (enumerate_partitions, collapse_number, chain_rule_terms,
                 cumulant_from_moments, manhattan_norm, plus_norm,
                 unit_vector, parse_multiindex, format_multiindex,
                 SparsePolynomial, artinian_degree_check, differentiate,
                 differential_cumulant, differential_moment, local_cumulant,
                 product_gaussian_density, r_factor, CubeWindow)
from hmi.errors import DomainError
from hmi.partitions import _cumulants, _schedule, moment_table_from_json

from oracles import (bell, multiset_partition_counts, gaussian_moment_table,
                     isserlis_moment, cumulant_by_set_partitions)

SMALL_INDICES = [
    (1,), (2,), (3,), (1, 1), (2, 1), (2, 2), (3, 1), (1, 0, 2),
    (1, 1, 1), (2, 1, 1), (0, 4), (2, 0, 2), (1, 1, 1, 1),
]


@pytest.mark.parametrize("k", SMALL_INDICES)
def test_enumeration_matches_set_partition_oracle(k):
    expected = multiset_partition_counts(k)
    got = enumerate_partitions(k)
    assert len(got) == len(set(got)), "duplicate partition"
    assert set(got) == set(expected)


@pytest.mark.parametrize("k", SMALL_INDICES)
def test_collapse_numbers_are_preimage_counts(k):
    counts = multiset_partition_counts(k)
    for pi, count in counts.items():
        c = collapse_number(pi)
        assert c.denominator == 1
        assert c == count


@pytest.mark.parametrize("n", range(1, 10))
def test_square_free_counts_are_bell_numbers(n):
    k = (1,) * n
    assert len(enumerate_partitions(k)) == bell(n)


def test_enumeration_leaves_no_reference_cycle():
    # the sub-multiset memo lives for one call: freed by reference
    # counting on return, not left for the cycle collector
    gc.collect()
    gc.disable()
    try:
        enumerate_partitions((1,) * 7)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_equal_blocks_are_one_object():
    for k in [(1, 1, 1, 1), (2, 1, 1), (3, 3, 2)]:
        blocks = {}
        for pi in enumerate_partitions(k):
            for b in pi:
                assert blocks.setdefault(b, b) is b


@given(st.lists(st.integers(min_value=0, max_value=8), min_size=1,
                max_size=5).filter(lambda k: 0 < sum(k) <= 8))
@example([0, 2, 0, 1, 0])
@example([3, 0, 0, 0, 2])
@example([0, 0, 0, 0, 1])
def test_enumeration_matches_sympy_multiset_partitions(k):
    p = len(k)
    symbols = [i for i, v in enumerate(k) for _ in range(v)]
    expected = sorted(
        tuple(sorted((tuple(block.count(i) for i in range(p))
                      for block in part), reverse=True))
        for part in multiset_partitions(symbols))
    got = enumerate_partitions(k)
    assert got == expected
    assert all(a < b for a, b in zip(got, got[1:]))
    if sum(k) <= 6:
        coefficients = {tuple(inner): c
                        for c, _, inner in chain_rule_terms(k)}
        assert coefficients == multiset_partition_counts(k)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_every_small_multi_index_matches_the_oracles(p):
    # every k of p <= 4 entries and order 1..8: the enumeration against
    # sympy, in order, and the chain rule's terms in the enumeration's
    # order, each coefficient the factorial quotient
    # k! / (prod_j M_j! * prod of the factorials of the block repeats)
    fact = math.factorial
    for k in product(range(9), repeat=p):
        if not 0 < sum(k) <= 8:
            continue
        symbols = [i for i, v in enumerate(k) for _ in range(v)]
        expected = sorted(
            tuple(sorted((tuple(block.count(i) for i in range(p))
                          for block in part), reverse=True))
            for part in multiset_partitions(symbols))
        got = enumerate_partitions(k)
        assert got == expected
        top = math.prod(map(fact, k))
        terms = chain_rule_terms(k)
        assert [(c, outer, tuple(inner)) for c, outer, inner in terms] == [
            (Fraction(top, math.prod(fact(v) for b in pi for v in b)
                      * math.prod(map(fact, Counter(pi).values()))),
             len(pi), pi) for pi in got]
        assert all(type(c) is Fraction and type(inner) is list
                   for c, _, inner in terms)


@pytest.mark.parametrize("k", [(1,) * 9, (2, 2, 2, 2), (3, 3, 2),
                               (1, 0, 1, 0, 1), (0, 2, 1)])
def test_chain_rule_matches_set_partition_oracle(k):
    # the benchmark's chain rules, beyond the hypothesis test's |k| <= 6,
    # and a square-free and a general k with zero entries
    counts = multiset_partition_counts(k)
    terms = chain_rule_terms(k)
    assert [tuple(inner) for _, _, inner in terms] == sorted(counts)
    for c, outer, inner in terms:
        assert type(c) is Fraction and c == counts[tuple(inner)]
        assert outer == len(inner)
    if k == (1,) * 9:
        assert len(terms) == bell(9)
        assert all(type(c) is Fraction and c == Fraction(1)
                   for c, _, _ in terms)


def test_square_free_partitions_have_unit_collapse():
    for pi in enumerate_partitions((1, 1, 1, 1)):
        assert collapse_number(pi) == 1


def test_partition_count_22_is_nine():
    assert len(enumerate_partitions((2, 2))) == 9


def test_blocks_are_sorted_descending():
    for pi in enumerate_partitions((2, 1, 1)):
        assert list(pi) == sorted(pi, reverse=True)


def test_chain_rule_102_expansion():
    # D^(1,0,2) exp(g): collapse 2 on the split {(1,0,1),(0,0,1)}
    terms = {tuple(inner): (c, outer)
             for c, outer, inner in chain_rule_terms((1, 0, 2))}
    assert terms[((1, 0, 0), (0, 0, 2))] == (Fraction(1), 2)
    assert terms[((1, 0, 1), (0, 0, 1))] == (Fraction(2), 2)
    assert terms[((1, 0, 0), (0, 0, 1), (0, 0, 1))] == (Fraction(1), 3)
    assert terms[((1, 0, 2),)] == (Fraction(1), 1)
    assert len(terms) == 4


def test_cumulant_102_formula():
    # frozen expansion: kappa_102 = m102 - m100*m002 - 2*m101*m001
    #                                + 2*m100*m001^2
    m = {(1, 0, 2): Fraction(7, 3), (1, 0, 1): Fraction(5, 2),
         (1, 0, 0): Fraction(-1, 4), (0, 0, 2): Fraction(11, 5),
         (0, 0, 1): Fraction(2, 7)}
    expected = (m[(1, 0, 2)] - m[(1, 0, 0)] * m[(0, 0, 2)]
                - 2 * m[(1, 0, 1)] * m[(0, 0, 1)]
                + 2 * m[(1, 0, 0)] * m[(0, 0, 1)] ** 2)
    assert cumulant_from_moments((1, 0, 2), m) == expected


def test_low_order_cumulants_of_shifted_gaussian():
    mean = (Fraction(1, 3), Fraction(-1, 2), Fraction(2))
    cov = ((Fraction(1), Fraction(1, 4), Fraction(0)),
           (Fraction(1, 4), Fraction(2), Fraction(-1, 3)),
           (Fraction(0), Fraction(-1, 3), Fraction(3, 2)))
    table = gaussian_moment_table(mean, cov, 3)
    for i in range(3):
        assert cumulant_from_moments(unit_vector(3, i + 1), table) == mean[i]
    for i in range(3):
        for j in range(3):
            k = tuple(a + b for a, b in zip(unit_vector(3, i + 1),
                                            unit_vector(3, j + 1)))
            assert cumulant_from_moments(k, table) == cov[i][j]


def test_order_three_gaussian_cumulants_vanish_exactly():
    mean = (Fraction(3, 7), Fraction(-5, 2))
    cov = ((Fraction(2), Fraction(1, 2)), (Fraction(1, 2), Fraction(1)))
    table = gaussian_moment_table(mean, cov, 3)
    for k in [(3, 0), (2, 1), (1, 2), (0, 3)]:
        assert cumulant_from_moments(k, table) == 0


@st.composite
def fraction_tables(draw, max_order=7,
                    values=st.fractions(min_value=-5, max_value=5,
                                        max_denominator=9)):
    """A nonzero multi-index (p <= 4, order <= max_order) and a random
    exact moment for every nonzero index below it."""
    p = draw(st.integers(min_value=1, max_value=4))
    k = draw(st.lists(st.integers(min_value=0, max_value=max_order),
                      min_size=p, max_size=p)
             .filter(lambda k: 0 < sum(k) <= max_order))
    table = {}
    for nu in product(*(range(v + 1) for v in k)):
        if any(nu):
            table[nu] = draw(values)
    return tuple(k), table


@given(fraction_tables())
def test_cumulant_matches_set_partition_oracle(case):
    k, table = case
    got = cumulant_from_moments(k, table)
    assert isinstance(got, Fraction)
    assert got == cumulant_by_set_partitions(k, table.__getitem__)


@settings(max_examples=60, deadline=None)
@given(fraction_tables(max_order=6, values=st.one_of(
    st.integers(min_value=-10 ** 6, max_value=10 ** 6),
    st.fractions(min_value=-5, max_value=5, max_denominator=10 ** 9))))
def test_integer_path_with_large_denominators(case):
    # exact tables run in integers over the lcm of the denominators, here
    # up to 10^9 each, with ints mixed in
    k, table = case
    got = cumulant_from_moments(k, table)
    assert isinstance(got, Fraction)
    assert got == cumulant_by_set_partitions(k, table.__getitem__)


def test_one_float_moment_gives_a_float():
    k = (1, 2)
    table = {nu: Fraction(3 * sum(nu) + 1, 7)
             for nu in product(range(2), range(3)) if any(nu)}
    exact = cumulant_from_moments(k, {**table, (1, 0): Fraction(1, 4)})
    got = cumulant_from_moments(k, {**table, (1, 0): 0.25})
    assert isinstance(exact, Fraction) and isinstance(got, float)
    assert got == pytest.approx(float(exact), rel=1e-12)


def test_order_ten_gaussian_cumulant_is_exactly_zero():
    # the square-free moments of a 10-variate Gaussian by the Isserlis
    # recursion (gaussian_moment_table would build every index of order
    # <= 10, not only the 1,023 square-free ones)
    p = 10
    mean = [Fraction(i - 4, 3) for i in range(p)]
    cov = [[Fraction(5, 2) if i == j else Fraction(1, i + j + 2)
            for j in range(p)] for i in range(p)]
    table = {nu: isserlis_moment(mean, cov,
                                 [i for i, v in enumerate(nu) if v])
             for nu in product((0, 1), repeat=p) if any(nu)}
    got = cumulant_from_moments((1,) * p, table)
    assert isinstance(got, Fraction) and got == 0


def test_order_fourteen_gaussian_cumulant_vanishes():
    # beyond the enumeration bound: the transform itself has no order limit
    mean = (Fraction(1, 2), Fraction(-1, 3))
    cov = ((Fraction(2), Fraction(1, 2)), (Fraction(1, 2), Fraction(1)))
    table = gaussian_moment_table(mean, cov, 14)
    assert cumulant_from_moments((7, 7), table) == 0


@pytest.mark.parametrize("k", [(1, 1, 1), (2, 0, 3), (3, 3, 2)])
def test_transform_reads_each_moment_once_in_product_order(k):
    # the first call builds k's schedule, the second reads it cached; the
    # moments of a point mass at (1, ..., 1) are all 1 and its cumulants
    # of order 2 and more vanish
    _schedule.cache_clear()
    lattice = [nu for nu in product(*(range(v + 1) for v in k)) if any(nu)]
    for _ in range(2):
        seen = []
        assert _cumulants(k, lambda nu: seen.append(nu) or 1) == 0
        assert seen == lattice


def smith_by_dicts(k, moment):
    """Smith's recursion term by term on multi-index keys, every sum in
    ``product`` order: the order the transform must keep for float
    moments."""
    m, kappa = {}, {}
    for nu in product(*(range(v + 1) for v in k)):
        if not any(nu):
            continue
        i = next(j for j, v in enumerate(nu) if v)
        prime = nu[:i] + (nu[i] - 1,) + nu[i + 1:]
        total = m[nu] = moment(nu)
        for lam in product(*(range(v + 1) for v in prime)):
            if lam == prime:
                continue
            coeff = math.prod(math.comb(a, b) for a, b in zip(prime, lam))
            up = lam[:i] + (lam[i] + 1,) + lam[i + 1:]
            rest = tuple(a - b for a, b in zip(prime, lam))
            total = total - coeff * kappa[up] * m[rest]
        kappa[nu] = total
    return kappa[k]


@pytest.mark.parametrize("k", [(1, 1, 1), (2, 0, 3), (3, 3, 2), (1,) * 5,
                               (7, 7)])
def test_float_transform_keeps_smiths_order(k):
    # float sums round by order, so the scheduled loop must add the terms
    # exactly as the recursion lists them, cached ((7, 7) is not) or not
    rng = np.random.default_rng(sum(k))
    table = {nu: float(rng.uniform(-3, 3) * 10.0 ** rng.uniform(-3, 3))
             for nu in product(*(range(v + 1) for v in k)) if any(nu)}
    for _ in range(2):
        assert (_cumulants(k, table.__getitem__)
                == smith_by_dicts(k, table.__getitem__))


def test_schedule_cached_once_per_multi_index_within_the_bound():
    def ones(k):
        return {nu: 1 for nu in product(*(range(v + 1) for v in k))
                if any(nu)}

    _schedule.cache_clear()
    ks = [(1,), (2, 1), (1, 2), (1, 1, 1), (6, 6)]    # (6, 6) at the bound
    for n, k in enumerate(ks, 1):
        cumulant_from_moments(k, ones(k))
        assert _schedule.cache_info().currsize == n
    before = _schedule.cache_info()
    for k in ks:
        cumulant_from_moments(k, ones(k))
    after = _schedule.cache_info()
    assert after.currsize == len(ks) and after.hits == before.hits + len(ks)
    # order 14 is beyond the bound: built on the call, never kept
    assert cumulant_from_moments((7, 7), ones((7, 7))) == 0
    assert _schedule.cache_info() == after


def test_isserlis_oracle_self_check():
    # univariate standard normal: E[x^4] = 3, E[x^6] = 15
    assert isserlis_moment((0,), ((1,),), (0, 0, 0, 0)) == 3
    assert isserlis_moment((0,), ((1,),), (0,) * 6) == 15


def test_missing_moment_raises():
    with pytest.raises(DomainError, match="missing moment"):
        cumulant_from_moments((1, 1), {(1, 1): Fraction(1)})
    # (0,2) and (1,0) are missing; (0,2) comes first in product order
    for value in (Fraction(1, 3), 0.5):
        table = {(0, 1): value, (1, 1): value, (1, 2): value}
        with pytest.raises(DomainError, match=r"for index 0,2$"):
            cumulant_from_moments((1, 2), table)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), True, 1j, "a",
                                   None, np.float64("nan")])
def test_moment_values_read_as_in_moment_tables(value):
    # only finite reals are moments: nan, True, a complex number and a
    # string used to give nan, 1, a complex cumulant and a TypeError
    table = {(1, 0): value, (0, 1): 1, (1, 1): 1}
    with pytest.raises(DomainError) as refused:
        cumulant_from_moments((1, 1), table)
    assert str(refused.value) == f"bad moment value {value!r} for index 1,0"


def test_moment_values_keep_their_kind():
    exact = {(1, 0): 1, (0, 1): Fraction(1, 2), (1, 1): 2}
    got = cumulant_from_moments((1, 1), exact)
    assert isinstance(got, Fraction) and got == Fraction(3, 2)
    got = cumulant_from_moments((1, 1), exact | {(1, 0): np.int64(1)})
    assert isinstance(got, Fraction) and got == Fraction(3, 2)
    for half in (0.5, np.float32(0.5)):
        got = cumulant_from_moments((1, 1), exact | {(0, 1): half})
        assert isinstance(got, float) and got == 1.5


def test_empty_and_oversized_indices_rejected():
    with pytest.raises(DomainError):
        enumerate_partitions((0, 0))
    with pytest.raises(DomainError):
        enumerate_partitions((13,))
    with pytest.raises(DomainError):
        collapse_number(((0, 0),))


X1 = SparsePolynomial.variable(1, 1)
NORMAL = product_gaussian_density([0.0], [1.0])


@pytest.mark.parametrize("call", [
    lambda: enumerate_partitions((True, True)),
    lambda: enumerate_partitions(5),
    lambda: chain_rule_terms((1.5,)),
    lambda: collapse_number(((True,), (1,))),
    lambda: cumulant_from_moments((True,), {(1,): 1}),
    lambda: differential_moment(NORMAL, (0.0,), (True,)),
    lambda: differential_cumulant(NORMAL, (0.0,), (1.5,)),
    lambda: local_cumulant(NORMAL, CubeWindow((0.0,), 0.1), ("2",)),
    lambda: cumulant_from_moments((0, 0), {}),
    lambda: differential_cumulant(NORMAL, (0.0,), (0,)),
    lambda: local_cumulant(NORMAL, CubeWindow((0.0,), 0.1), (0,)),
    lambda: r_factor(0.1, (1.5,)),
    lambda: r_factor(0.1, (-1,)),
    lambda: r_factor(0.1, ()),
    lambda: differentiate(X1, (1.5,)),
    lambda: differentiate(X1, (-1,)),
    lambda: artinian_degree_check(X1, (2.5,)),
    lambda: artinian_degree_check(X1, (0,)),
    lambda: SparsePolynomial(2.0),
    lambda: SparsePolynomial(True),
    lambda: SparsePolynomial(0),
    lambda: SparsePolynomial(1, {(1.5,): 1}),
    lambda: SparsePolynomial(1, {(1, 0): 1}),
    lambda: SparsePolynomial(1, {(1,): float("nan")}),
    lambda: SparsePolynomial(1, {(1,): float("inf")}),
    lambda: SparsePolynomial(1, {(1,): "a"}),
], ids=["partitions-bool", "partitions-scalar", "chain-rule-float",
        "collapse-bool", "cumulant-bool", "diff-moment-bool",
        "diff-cumulant-float", "local-cumulant-string", "cumulant-empty",
        "diff-cumulant-empty", "local-cumulant-empty", "r-factor-float",
        "r-factor-negative", "r-factor-empty", "differentiate-float",
        "differentiate-negative", "artinian-float", "artinian-zero",
        "poly-p-float", "poly-p-bool", "poly-p-zero", "poly-exponent-float",
        "poly-exponent-length", "poly-coeff-nan", "poly-coeff-inf",
        "poly-coeff-string"])
def test_multi_indices_and_coefficients_read_strictly(call):
    # every multi-index goes through partitions._validate, which reads each
    # entry as a JSON integer: booleans, floats and strings are refused, as
    # are coefficients Fraction cannot read and the empty multiset, which
    # has no cumulant
    with pytest.raises(DomainError):
        call()


def test_collapse_rejects_blocks_of_different_lengths():
    # zip would silently drop the second component and answer 2
    with pytest.raises(DomainError, match="differ in length"):
        collapse_number(((1, 0), (1,)))


def test_collapse_numbers_equal_the_factorial_quotient():
    # seeded partitions of order <= 12, repeated blocks among them, against
    # nu_M! / (prod_j nu_{M_j}! * nu_pi!) written out in factorials
    rng = random.Random(29)
    for _ in range(400):
        d = rng.randint(1, 4)
        blocks = []
        while True:
            b = tuple(rng.randint(0, 3) for _ in range(d))
            if not any(b):
                continue
            copies = rng.choice((1, 1, 1, 2, 3))
            if sum(map(sum, blocks)) + copies * sum(b) > 12:
                break
            blocks += [b] * copies
        if not blocks:
            continue
        rng.shuffle(blocks)
        top = math.prod(math.factorial(sum(col)) for col in zip(*blocks))
        den = math.prod(math.factorial(x) for b in blocks for x in b)
        den *= math.prod(math.factorial(blocks.count(b)) for b in set(blocks))
        assert collapse_number(blocks) == Fraction(top, den)


def test_collapse_number_of_a_large_entry_builds_no_factorial_table():
    # c({(n,), (1,)}) = n + 1; a table of factorials up to n would hold
    # O(n^2) digits
    collapse_number([(5000,), (1,)])
    tracemalloc.start()
    try:
        assert collapse_number([(5000,), (1,)]) == 5001
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_numpy_integer_entries_accepted():
    assert enumerate_partitions((np.int64(1),) * 3) == \
        enumerate_partitions((1, 1, 1))
    assert len(enumerate_partitions(np.array([2, 1]))) == 4
    # k is read once, so a one-shot iterable is a multi-index too
    assert chain_rule_terms(iter([1, 0, 2])) == chain_rule_terms((1, 0, 2))
    with pytest.raises(DomainError):
        enumerate_partitions((1.0, 1))
    with pytest.raises(DomainError):
        enumerate_partitions((np.int64(-1), 2))


def test_norms_and_units():
    assert manhattan_norm((1, 0, 2)) == 3
    assert plus_norm((1, 0, 2)) == 4
    assert plus_norm((1, 1)) == 4
    assert unit_vector(3, 2) == (0, 1, 0)
    assert unit_vector(np.int64(3), np.int64(2)) == (0, 1, 0)
    # a float, string or boolean index used to give a zero vector or
    # a TypeError
    for p, i in [(3, 4), (3, 0), (3, 1.5), (3, "2"), (3, True), (2.0, 1),
                 ("3", 1), (True, 1)]:
        with pytest.raises(DomainError):
            unit_vector(p, i)


def test_parse_and_format_multiindex():
    assert parse_multiindex("1, 0,2") == (1, 0, 2)
    assert format_multiindex((1, 0, 2)) == "1,0,2"
    with pytest.raises(DomainError):
        parse_multiindex("1,-2")
    with pytest.raises(DomainError):
        parse_multiindex("1,x")


@given(st.lists(st.integers(min_value=0, max_value=9), min_size=1,
                max_size=5))
def test_multiindex_round_trip(k):
    assert parse_multiindex(format_multiindex(k)) == tuple(k)


def test_moment_table_from_json_types():
    table = moment_table_from_json({"1,0": "3/2", "0,1": 2, "2,0": 0.5})
    assert table[(1, 0)] == Fraction(3, 2)
    assert table[(0, 1)] == Fraction(2)
    assert isinstance(table[(2, 0)], float)
    with pytest.raises(DomainError):
        moment_table_from_json({"1,0": None})
    with pytest.raises(DomainError):
        moment_table_from_json([["1,0", 1]])
