"""Sparse rational polynomials: parsing, printing, differentiation,
hierarchical verification and the Gaussian/MEC/BEC families.  The chain rule
for exp(g) is cross-checked numerically against the partition expansion."""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hmi import (SparsePolynomial, GaussianSpec, MECSpec, parse_poly,
                 differentiate, is_hierarchical, hierarchy_violation,
                 artinian_degree_check, total_degree_cumulant_check,
                 gaussian_log_poly, gaussian_ideal, mec_polynomial,
                 mec_support_complex, make_complex, chain_rule_terms)
from hmi.errors import DomainError, PolynomialSyntaxError
from hmi.ideal import format_generators
from hmi.logdensity import gaussian_spec_from_json, mec_spec_from_json


# ---------------------------------------------------------------------------
# arithmetic and printing

def test_basic_arithmetic():
    x1 = SparsePolynomial.variable(2, 1)
    x2 = SparsePolynomial.variable(2, 2)
    g = (x1 + x2) * (x1 - x2)
    assert g == x1 ** 2 - x2 ** 2
    assert (g - g).is_zero()
    assert (Fraction(1, 2) * x1).evaluate((4, 0)) == 2
    # exact points give exact values, a float coordinate a float
    assert g.evaluate((Fraction(1, 3), 2)) == Fraction(-35, 9)
    assert type(g.evaluate((0.5, 2))) is float
    # numpy floats are read as floats, not computed in their own precision
    assert (x1 * Fraction(1, 3)).evaluate((np.float16(2), 0)) == 2 / 3
    assert_canonical(SparsePolynomial.variable(np.int64(2), np.int64(1)))
    # scalars multiply but no longer add
    assert 2 * x1 == x1 * Fraction(2) == x1 + x1
    with pytest.raises(TypeError):
        1 + x1
    with pytest.raises(DomainError, match="not a polynomial"):
        x1 - 1
    assert g.total_degree() == 2
    assert g.degree_in(1) == 2
    assert SparsePolynomial.zero(2).total_degree() == -1
    assert SparsePolynomial.zero(2).degree_in(2) == -1
    # x_1.5 used to be the constant 1, degree_in(0) the degree in the last
    # variable, and a point of the wrong length was zipped short
    for bad in (0, 3, 1.5, True):
        with pytest.raises(DomainError, match="variable index"):
            SparsePolynomial.variable(2, bad)
        with pytest.raises(DomainError, match="variable index"):
            g.degree_in(bad)
    for point in ((2,), (2, 3, 4), 2):
        with pytest.raises(DomainError, match="coordinates"):
            g.evaluate(point)
    # x ** 2.5 used to end in a TypeError from range, and x ** True was x
    assert x1 ** 0 == SparsePolynomial.constant(2, 1)
    for bad in (2.5, True, "2"):
        with pytest.raises(DomainError, match="not an integer"):
            x1 ** bad
    with pytest.raises(DomainError, match="negative power"):
        x1 ** -1


def test_str_canonical_form():
    g = parse_poly("-1/2*x1^2 + x1*x2 - 3*x2 + 1/4", 2)
    assert str(g) == "-1/2*x1^2 + x1*x2 - 3*x2 + 1/4"
    assert str(SparsePolynomial.zero(3)) == "0"


def test_parse_golden():
    g = parse_poly("2*x1^2*x2 - x3 + 1/3", 3)
    assert g.terms == {(2, 1, 0): Fraction(2), (0, 0, 1): Fraction(-1),
                       (0, 0, 0): Fraction(1, 3)}
    assert parse_poly("x1*x1", 1).terms == {(2,): Fraction(1)}
    assert parse_poly("-x1", 1).terms == {(1,): Fraction(-1)}
    # like terms are summed as they are read; a sum that cancels drops its
    # exponent, so a later term with it comes after the others
    g = parse_poly("x1 - x1 + x2 + 0*x1 + 1/2*x1 + 1/2*x1", 2)
    assert list(g.terms.items()) == [((0, 1), 1), ((1, 0), 1)]
    assert parse_poly("x1*x2 + 2 - x2*x1 - 2", 2).is_zero()
    assert parse_poly("x1 + 2*x2 + 3*x1", 2).terms == {(1, 0): 4, (0, 1): 2}


def test_parse_errors_with_offsets():
    with pytest.raises(PolynomialSyntaxError) as err:
        parse_poly("x1 + ", 2)
    assert err.value.offset == 5
    with pytest.raises(PolynomialSyntaxError) as err:
        parse_poly("x1 ^ y", 2)
    assert err.value.offset == 5
    with pytest.raises(PolynomialSyntaxError):
        parse_poly("1/", 1)
    with pytest.raises(DomainError, match="exceeds dimension"):
        parse_poly("x9", 2)
    with pytest.raises(PolynomialSyntaxError) as err:
        parse_poly("x1 + 1/0", 1)
    assert err.value.offset == 7
    # an invalid variable count is reported before an error in the terms
    for text in ("x1 + ", "x9", "1/0"):
        with pytest.raises(DomainError, match="variable count"):
            parse_poly(text, 0)


@st.composite
def polynomials(draw, p=None):
    p = p or draw(st.integers(min_value=1, max_value=3))
    n_terms = draw(st.integers(min_value=0, max_value=5))
    terms = {}
    for _ in range(n_terms):
        exp = tuple(draw(st.integers(min_value=0, max_value=3))
                    for _ in range(p))
        num = draw(st.integers(min_value=-20, max_value=20))
        den = draw(st.integers(min_value=1, max_value=7))
        terms[exp] = terms.get(exp, Fraction(0)) + Fraction(num, den)
    return SparsePolynomial(p, terms)


@given(polynomials())
def test_parse_round_trips_str(g):
    assert parse_poly(str(g), g.p) == g


def assert_canonical(g):
    """What every polynomial holds however it was built: each exponent a
    tuple of exactly p non-negative ints (never bools), each coefficient a
    nonzero Fraction; and reading its terms again changes nothing."""
    assert type(g.p) is int
    for exp, coeff in g.terms.items():
        assert type(exp) is tuple and len(exp) == g.p
        assert all(type(v) is int and v >= 0 for v in exp)
        assert type(coeff) is Fraction and coeff != 0
    assert SparsePolynomial(g.p, g.terms) == g


@settings(deadline=None)
@given(polynomials().flatmap(lambda g: st.tuples(
    st.just(g), polynomials(g.p),
    st.tuples(*[st.integers(0, 3)] * g.p))), st.integers(0, 3))
def test_derived_polynomials_hold_the_invariant(drawn, n):
    g, h, k = drawn
    for derived in (g + h, g - h, -g, g * h, g ** n, Fraction(-3, 2) * g,
                    g * 0.25, g * 0, differentiate(g, k),
                    parse_poly(str(g), g.p)):
        assert_canonical(derived)


VALUES = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=5),
                   st.sampled_from((0.0, 0.5, -1.25)))


@settings(deadline=None)
@given(st.integers(1, 3), st.data())
def test_family_polynomials_hold_the_invariant(p, data):
    mean = data.draw(st.lists(VALUES, min_size=p, max_size=p))
    upper = {(i, j): data.draw(VALUES) for i in range(p) for j in range(i, p)}
    precision = [[upper[min(i, j), max(i, j)] for j in range(p)]
                 for i in range(p)]
    coeffs = data.draw(st.dictionaries(
        st.tuples(*[st.integers(0, 1)] * p), VALUES))
    assert_canonical(gaussian_log_poly(GaussianSpec(mean, precision)))
    assert_canonical(mec_polynomial(MECSpec(p, coeffs)))


# every token the grammar knows, a few it does not, Unicode digits and
# whitespace; most strings of them are not polynomials
TOKENS = ["x1", "x2", "x3", "x9", "x0", "0", "1", "2", "12", "\u0663",
          "x\u0663", "+", "-", "*", "/", "^", " ", "\t", "%", "x"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(TOKENS), max_size=12), st.integers(1, 3))
def test_random_token_strings_parse_or_refuse(tokens, p):
    text = "".join(tokens)
    try:
        g = parse_poly(text, p)
    except DomainError:                 # PolynomialSyntaxError is one
        return
    assert parse_poly(str(g), p) == g


# ---------------------------------------------------------------------------
# differentiation

def test_differentiate_golden():
    g = parse_poly("x1^3*x2 - 2*x1*x2^2", 2)
    assert differentiate(g, (1, 1)) == parse_poly("3*x1^2 - 4*x2", 2)
    assert differentiate(g, (3, 1)) == parse_poly("6", 2)
    assert differentiate(g, (0, 3)).is_zero()
    with pytest.raises(DomainError):
        differentiate(g, (1,))


def test_chain_rule_matches_partition_expansion():
    # D^k exp(g) / exp(g) = sum over partitions of c(pi) prod D^block g,
    # evaluated exactly at a rational point
    g = parse_poly("1/2*x1^2*x2 - x1*x2^2 + 3*x2 - x1", 2)
    point = (Fraction(2, 3), Fraction(-1, 2))
    for k in [(1, 0), (1, 1), (2, 1), (2, 2)]:
        expansion = Fraction(0)
        for c, _, inner in chain_rule_terms(k):
            term = c
            for nu in inner:
                term *= differentiate(g, nu).evaluate(point)
            expansion += term
        # independent route: symbolic exp-free recursion
        # D^{k} e^g = e^g * B_k where B is built by product rule
        b = {(0, 0): SparsePolynomial.constant(2, 1)}

        def bell_poly(order):
            if order in b:
                return b[order]
            i = next(j for j, v in enumerate(order) if v)
            prev = tuple(v - (1 if j == i else 0)
                         for j, v in enumerate(order))
            unit = tuple(1 if j == i else 0 for j in range(2))
            prev_b = bell_poly(prev)
            b[order] = differentiate(prev_b, unit) \
                + prev_b * differentiate(g, unit)
            return b[order]

        assert bell_poly(k).evaluate(point) == expansion


# ---------------------------------------------------------------------------
# hierarchical verification

def test_hierarchy_golden():
    S = make_complex(2, [[1], [2]])          # independence complex
    full = make_complex(2, [[1, 2]])
    bec = parse_poly("-x1 - x2 + 1/2*x1*x2", 2)
    assert is_hierarchical(bec, full)
    assert not is_hierarchical(bec, S)
    exp, support = hierarchy_violation(bec, S)
    assert support == frozenset({1, 2})
    bec0 = parse_poly("-x1 - x2", 2)         # a3 = 0: independence
    assert is_hierarchical(bec0, S)


def test_hierarchy_respects_labels():
    S = make_complex(2, [[2], [5]], labels=(2, 5))
    g = SparsePolynomial(2, {(1, 0): 1})
    # variable 1 of the polynomial is not even in the ring of S
    with pytest.raises(DomainError):
        hierarchy_violation(g, make_complex(3, [[1]]))
    assert hierarchy_violation(g, S) is not None


def test_artinian_and_total_degree_checks():
    g = parse_poly("x1^2*x2 - x2", 2)
    assert artinian_degree_check(g, (3, 2))
    assert not artinian_degree_check(g, (2, 2))
    assert total_degree_cumulant_check(g, 4)
    assert not total_degree_cumulant_check(g, 3)
    with pytest.raises(DomainError):
        artinian_degree_check(g, (0, 1))
    with pytest.raises(DomainError):
        total_degree_cumulant_check(g, 0)
    for d in (1.5, "2", True):
        with pytest.raises(DomainError, match="positive integer"):
            total_degree_cumulant_check(g, d)


# ---------------------------------------------------------------------------
# Gaussian family

def test_gaussian_log_poly_golden():
    spec = GaussianSpec((0, 0), ((Fraction(4, 3), Fraction(-2, 3)),
                                 (Fraction(-2, 3), Fraction(4, 3))))
    g = gaussian_log_poly(spec)
    assert g == parse_poly("-2/3*x1^2 + 2/3*x1*x2 - 2/3*x2^2", 2)
    # nonzero mean keeps exactness
    spec2 = GaussianSpec((Fraction(1, 2), 0), ((1, 0), (0, 1)))
    g2 = gaussian_log_poly(spec2)
    assert g2 == parse_poly("-1/2*x1^2 - 1/2*x2^2 + 1/2*x1 - 1/8", 2)


def test_gaussian_tridiagonal_is_chain_hierarchical():
    lam = ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, -1, 2))
    spec = GaussianSpec((0, 0, 0, 0), lam)
    g = gaussian_log_poly(spec)
    chain = make_complex(4, [[1, 2], [2, 3], [3, 4]])
    assert is_hierarchical(g, chain)
    assert not is_hierarchical(g, make_complex(4, [[1, 2], [3, 4]]))
    I = gaussian_ideal(spec)
    assert format_generators(I) == "x1*x3, x1*x4, x2*x4"
    assert artinian_degree_check(g, (3, 3, 3, 3))
    assert total_degree_cumulant_check(g, 3)


def test_gaussian_ideal_tolerance():
    spec = GaussianSpec((0, 0), ((1, 1e-12), (1e-12, 1)))
    assert gaussian_ideal(spec).generators == ()
    assert format_generators(gaussian_ideal(spec, tolerance=1e-9)) \
        == "x1*x2"
    for tolerance in (-1, float("nan"), "a", None, True):
        with pytest.raises(DomainError):
            gaussian_ideal(spec, tolerance=tolerance)


def test_gaussian_spec_validation():
    with pytest.raises(DomainError, match="symmetric"):
        GaussianSpec((0, 0), ((1, 2), (3, 1)))
    with pytest.raises(DomainError):
        GaussianSpec((0, 0), ((1, 0),))
    for mean, prec in [((0, "a"), ((1, 0), (0, 1))),
                       ((0, True), ((1, 0), (0, 1))),
                       ((0, float("nan")), ((1, 0), (0, 1))),
                       ((0, 0), ((1, "x"), ("x", 1))),
                       ((0, 0), ((float("inf"), 0), (0, 1)))]:
        with pytest.raises(DomainError, match="real numbers"):
            GaussianSpec(mean, prec)


# ---------------------------------------------------------------------------
# MEC family

def test_mec_polynomial_and_support():
    spec = MECSpec(3, {(1, 1, 0): Fraction(1), (0, 1, 1): Fraction(-2),
                       (1, 0, 0): Fraction(3)})
    g = mec_polynomial(spec)
    assert g == parse_poly("x1*x2 - 2*x2*x3 + 3*x1", 3)
    S = mec_support_complex(spec)
    assert set(S.facet_sets()) == {frozenset({1, 2}), frozenset({2, 3})}
    assert is_hierarchical(g, S)
    # multilinear: Artinian with n = (2, ..., 2)
    assert artinian_degree_check(g, (2, 2, 2))


def test_mec_rejects_non_binary():
    with pytest.raises(DomainError):
        MECSpec(2, {(2, 0): 1})


def test_mec_reads_every_real_coefficient_exactly():
    # a numpy float32 is neither a float nor a Rational; it used to end in
    # a TypeError
    spec = MECSpec(1, {(1,): np.float32(0.5), (0,): np.int64(-2)})
    assert spec.coeffs == {(1,): Fraction(1, 2), (0,): Fraction(-2)}
    assert all(type(c) is Fraction for c in spec.coeffs.values())


def test_spec_json_parsing():
    spec = gaussian_spec_from_json(
        {"mean": [0, 1], "precision": [[1, 0], [0, 1]]})
    assert spec.mean == (0, 1)
    with pytest.raises(DomainError):
        gaussian_spec_from_json({"mean": [0]})
    mec = mec_spec_from_json({"p": 2, "coeffs": {"11": "1/2", "10": "-1"}})
    assert mec.coeffs == {(1, 1): Fraction(1, 2), (1, 0): Fraction(-1)}
    with pytest.raises(DomainError):
        mec_spec_from_json({"p": 2})


# ---------------------------------------------------------------------------
# parse corpus: (text, p, outcome) for every error message, the end-of-text
# offset, Unicode digits and spaces, whitespace at both ends, cancelling
# sums and a term that reappears, plus seeded random token strings

PARSE_CORPUS = [
    ("x1", 1, [((1,), "1")]),
    ("-x1", 1, [((1,), "-1")]),
    ("+x1", 1, [((1,), "1")]),
    ("0", 1, []),
    ("1/2", 1, [((0,), "1/2")]),
    ("-1/2", 1, [((0,), "-1/2")]),
    ("2*x1^2*x2 - x3 + 1/3", 3,
     [((2, 1, 0), "2"), ((0, 0, 1), "-1"), ((0, 0, 0), "1/3")]),
    ("x1*x1", 1, [((2,), "1")]),
    ("x1^0", 1, [((0,), "1")]),
    ("x1^0*x2", 2, [((0, 1), "1")]),
    ("-1/2*x1^2 + x1*x2 - 3*x2 + 1/4", 2,
     [((2, 0), "-1/2"), ((1, 1), "1"), ((0, 1), "-3"), ((0, 0), "1/4")]),
    ("3*4", 1, [((0,), "12")]),
    ("2/4*6/3", 2, [((0, 0), "1")]),
    ("x1*2*x2*3", 2, [((1, 1), "6")]),
    ("1/3*x1 + 1/6*x1", 1, [((1,), "1/2")]),
    ("007*x1^007", 1, [((7,), "7")]),
    ("0*x1", 1, []),
    ("0/5", 1, []),
    ("x1^10*x2^0*x3", 3, [((10, 0, 1), "1")]),
    ("x2*x1", 2, [((1, 1), "1")]),
    ("x1*x2^2*x1^3", 2, [((4, 2), "1")]),
    ("123456789012345678901234567890*x1", 1,
     [((1,), "123456789012345678901234567890")]),
    ("1/123456789012345678901234567890", 1,
     [((0,), "1/123456789012345678901234567890")]),
    ("x1 - x1", 1, []),
    ("x1 - x1 + x1", 1, [((1,), "1")]),
    ("x1 - x1 + x2 + x1", 2, [((0, 1), "1"), ((1, 0), "1")]),
    ("x1 - x1 + x2 + 0*x1 + 1/2*x1 + 1/2*x1", 2,
     [((0, 1), "1"), ((1, 0), "1")]),
    ("x1*x2 + 2 - x2*x1 - 2", 2, []),
    ("x1 + 2*x2 + 3*x1", 2, [((1, 0), "4"), ((0, 1), "2")]),
    ("1 - 1 + x1 + 1", 1, [((1,), "1"), ((0,), "1")]),
    ("x1^2 - x1*x1 + x1 + x1^2", 1, [((1,), "1"), ((2,), "1")]),
    ("1/2 - 1/2", 1, []),
    ("x1 + x2 - x1 - x2 + x2 + x1", 2, [((0, 1), "1"), ((1, 0), "1")]),
    ("  x1 + 1  ", 1, [((1,), "1"), ((0,), "1")]),
    ("\tx1\n", 1, [((1,), "1")]),
    ("\u00a0x1\u2003+\u30001", 1, [((1,), "1"), ((0,), "1")]),
    (" ", 1,
     ("PolynomialSyntaxError", "expected coefficient or variable (at byte 1)",
      1)),
    ("", 1,
     ("PolynomialSyntaxError", "expected coefficient or variable (at byte 0)",
      0)),
    ("\n", 2,
     ("PolynomialSyntaxError", "expected coefficient or variable (at byte 1)",
      1)),
    ("  x1 +  ", 2,
     ("PolynomialSyntaxError", "expected coefficient or variable (at byte 8)",
      8)),
    ("x1 +\t", 2,
     ("PolynomialSyntaxError", "expected coefficient or variable (at byte 5)",
      5)),
    ("  -  x1  *  2  ", 1, [((1,), "-2")]),
    (" x1 ^ 2 ", 1, [((2,), "1")]),
    ("\u0663*x1", 1, [((1,), "3")]),
    ("x\u0662", 2, [((0, 1), "1")]),
    ("x\u0662", 1,
     ("DomainError", "variable index 2 exceeds dimension 1", None)),
    ("x1^\u0663", 1, [((3,), "1")]),
    ("\uff11/\uff12*x\uff11", 1, [((1,), "1/2")]),
    ("1/\u0660", 1,
     ("PolynomialSyntaxError", "zero denominator (at byte 2)", 2)),
    ("\u0663*x1 + %", 1,
     ("PolynomialSyntaxError", "unexpected character '%' (at byte 7)", 7)),
    ("x\u0661\u0660", 10, [((0, 0, 0, 0, 0, 0, 0, 0, 0, 1), "1")]),
    ("x\u0661\u0660", 9,
     ("DomainError", "variable index 10 exceeds dimension 9", None)),
    ("\u00bd*x1", 1,
     ("PolynomialSyntaxError", "unexpected character '\u00bd' (at byte 0)",
      0)),
    ("x1^\u00b2", 1,
     ("PolynomialSyntaxError", "unexpected character '\u00b2' (at byte 3)",
      3)),
    ("\u0663\u0663", 1, [((0,), "33")]),
    ("x1 + ", 2,
     ("PolynomialSyntaxError", "expected coefficient or variable (at byte 5)",
      5)),
    ("x1 +", 2,
     ("PolynomialSyntaxError", "expected coefficient or variable (at byte 4)",
      4)),
    ("x1 ^ y", 2,
     ("PolynomialSyntaxError", "unexpected character 'y' (at byte 5)", 5)),
    ("1/", 1,
     ("PolynomialSyntaxError", "expected denominator (at byte 2)", 2)),
    ("1/ ", 1,
     ("PolynomialSyntaxError", "expected denominator (at byte 3)", 3)),
    ("x1 + 1/0", 1,
     ("PolynomialSyntaxError", "zero denominator (at byte 7)", 7)),
    ("1/00", 1, ("PolynomialSyntaxError", "zero denominator (at byte 2)", 2)),
    ("x1^", 1, ("PolynomialSyntaxError", "expected exponent (at byte 3)", 3)),
    ("x1^ ", 1, ("PolynomialSyntaxError", "expected exponent (at byte 4)", 4)),
    ("x1^x2", 2,
     ("PolynomialSyntaxError", "expected exponent (at byte 3)", 3)),
    ("x1^-2", 1,
     ("PolynomialSyntaxError", "expected exponent (at byte 3)", 3)),
    ("1/x1", 1,
     ("PolynomialSyntaxError", "expected denominator (at byte 2)", 2)),
    ("1/-2", 1,
     ("PolynomialSyntaxError", "expected denominator (at byte 2)", 2)),
    ("x1 x2", 2,
     ("PolynomialSyntaxError", "expected '+' or '-' (at byte 3)", 3)),
    ("2 3", 1,
     ("PolynomialSyntaxError", "expected '+' or '-' (at byte 2)", 2)),
    ("x1 + * x2", 2,
     ("PolynomialSyntaxError", "expected coefficient or variable (at byte 5)",
      5)),
    ("*x1", 1,
     ("PolynomialSyntaxError", "expected coefficient or variable (at byte 0)",
      0)),
    ("x1*", 1,
     ("PolynomialSyntaxError", "expected coefficient or variable (at byte 3)",
      3)),
    ("x1 *", 1,
     ("PolynomialSyntaxError", "expected coefficient or variable (at byte 4)",
      4)),
    ("x1**x2", 2,
     ("PolynomialSyntaxError", "expected coefficient or variable (at byte 3)",
      3)),
    ("--x1", 1,
     ("PolynomialSyntaxError", "expected coefficient or variable (at byte 1)",
      1)),
    ("+-x1", 1,
     ("PolynomialSyntaxError", "expected coefficient or variable (at byte 1)",
      1)),
    ("x1 + + x2", 2,
     ("PolynomialSyntaxError", "expected coefficient or variable (at byte 5)",
      5)),
    ("x1 ++", 2,
     ("PolynomialSyntaxError", "expected coefficient or variable (at byte 4)",
      4)),
    ("-", 1,
     ("PolynomialSyntaxError", "expected coefficient or variable (at byte 1)",
      1)),
    ("+", 1,
     ("PolynomialSyntaxError", "expected coefficient or variable (at byte 1)",
      1)),
    ("/2", 1,
     ("PolynomialSyntaxError", "expected coefficient or variable (at byte 0)",
      0)),
    ("^2", 1,
     ("PolynomialSyntaxError", "expected coefficient or variable (at byte 0)",
      0)),
    ("x1 / 2", 1,
     ("PolynomialSyntaxError", "expected '+' or '-' (at byte 3)", 3)),
    ("2/3/4", 1,
     ("PolynomialSyntaxError", "expected '+' or '-' (at byte 3)", 3)),
    ("x1^2^3", 1,
     ("PolynomialSyntaxError", "expected '+' or '-' (at byte 4)", 4)),
    ("y", 1,
     ("PolynomialSyntaxError", "unexpected character 'y' (at byte 0)", 0)),
    ("x", 1,
     ("PolynomialSyntaxError", "unexpected character 'x' (at byte 0)", 0)),
    ("x1 + y", 1,
     ("PolynomialSyntaxError", "unexpected character 'y' (at byte 5)", 5)),
    ("x1 % 2", 1,
     ("PolynomialSyntaxError", "unexpected character '%' (at byte 3)", 3)),
    ("x1 + 2 *", 1,
     ("PolynomialSyntaxError", "expected coefficient or variable (at byte 8)",
      8)),
    ("x1 +\t%", 1,
     ("PolynomialSyntaxError", "unexpected character '%' (at byte 5)", 5)),
    ("1.5*x1", 1,
     ("PolynomialSyntaxError", "unexpected character '.' (at byte 1)", 1)),
    ("x1,x2", 2,
     ("PolynomialSyntaxError", "unexpected character ',' (at byte 2)", 2)),
    ("x1 + x2 )", 2,
     ("PolynomialSyntaxError", "unexpected character ')' (at byte 8)", 8)),
    ("(x1)", 1,
     ("PolynomialSyntaxError", "unexpected character '(' (at byte 0)", 0)),
    ("X1", 1,
     ("PolynomialSyntaxError", "unexpected character 'X' (at byte 0)", 0)),
    ("x-1", 1,
     ("PolynomialSyntaxError", "unexpected character 'x' (at byte 0)", 0)),
    ("1e3", 1,
     ("PolynomialSyntaxError", "unexpected character 'e' (at byte 1)", 1)),
    ("x9", 2, ("DomainError", "variable index 9 exceeds dimension 2", None)),
    ("x0", 2, ("DomainError", "variable index 0 exceeds dimension 2", None)),
    ("x3", 2, ("DomainError", "variable index 3 exceeds dimension 2", None)),
    ("x00", 1, ("DomainError", "variable index 0 exceeds dimension 1", None)),
    ("x3^", 2, ("DomainError", "variable index 3 exceeds dimension 2", None)),
    ("x1 + x3 +", 2,
     ("DomainError", "variable index 3 exceeds dimension 2", None)),
    ("x1 + x2 ^ y", 1,
     ("PolynomialSyntaxError", "unexpected character 'y' (at byte 10)", 10)),
    ("x1 + 1/0 + x5", 1,
     ("PolynomialSyntaxError", "zero denominator (at byte 7)", 7)),
    ("x1 + ", 0, ("DomainError", "variable count must be at least 1", None)),
    ("x9", 0, ("DomainError", "variable count must be at least 1", None)),
    ("1/0", 0, ("DomainError", "variable count must be at least 1", None)),
    ("x1", -1, ("DomainError", "variable count must be at least 1", None)),
    ("x1", "2", ("DomainError", "variable count must be an integer", None)),
    ("x1", 2.0, ("DomainError", "variable count must be an integer", None)),
    ("x1 + ", "2", ("DomainError", "variable count must be an integer", None)),
    ("%", 0,
     ("PolynomialSyntaxError", "unexpected character '%' (at byte 0)", 0)),
    ("x1", None, ("DomainError", "variable count must be an integer", None)),
    ("", 0, ("DomainError", "variable count must be at least 1", None)),
    ("x1", False, ("DomainError", "variable count must be an integer", None)),
    (" /**007x-2x2", 2,
     ("PolynomialSyntaxError", "unexpected character 'x' (at byte 7)", 7)),
    (" +%^^3\u00bd", 2,
     ("PolynomialSyntaxError", "unexpected character '%' (at byte 2)", 2)),
    ("\u06630x", 3,
     ("PolynomialSyntaxError", "unexpected character 'x' (at byte 2)", 2)),
    ("+x2x0", 1,
     ("DomainError", "variable index 2 exceeds dimension 1", None)),
    ("x10%\n0 %+", 1,
     ("PolynomialSyntaxError", "unexpected character '%' (at byte 3)", 3)),
    ("*1/0x4-x4\n*", 0,
     ("DomainError", "variable count must be at least 1", None)),
    ("^", 2,
     ("PolynomialSyntaxError", "expected coefficient or variable (at byte 0)",
      0)),
    ("\u00bdx\u0663", 2,
     ("PolynomialSyntaxError", "unexpected character '\u00bd' (at byte 0)",
      0)),
    ("*x4-x0-\u0663\u00bdx\u00bd", 2,
     ("PolynomialSyntaxError", "unexpected character '\u00bd' (at byte 8)",
      8)),
    ("/-^12+", 1,
     ("PolynomialSyntaxError", "expected coefficient or variable (at byte 0)",
      0)),
    ("+x1x4-x2", 3,
     ("PolynomialSyntaxError", "expected '+' or '-' (at byte 3)", 3)),
    ("\nx4\u0663/+", 3,
     ("DomainError", "variable index 43 exceeds dimension 3", None)),
    ("x21/0y3^\u00a0^007", 1,
     ("PolynomialSyntaxError", "unexpected character 'y' (at byte 5)", 5)),
    ("02x\u0663x4x", 1,
     ("PolynomialSyntaxError", "unexpected character 'x' (at byte 6)", 6)),
    ("^x412 x10/", 3,
     ("PolynomialSyntaxError", "expected coefficient or variable (at byte 0)",
      0)),
    ("\nx0xx10xx\uff11\uff11", 3,
     ("PolynomialSyntaxError", "unexpected character 'x' (at byte 3)", 3)),
    ("1/012*x4\u00a0", 0,
     ("DomainError", "variable count must be at least 1", None)),
    ("\u00a0\uff11\u00bd y  x0", 3,
     ("PolynomialSyntaxError", "unexpected character '\u00bd' (at byte 2)",
      2)),
    ("\uff11\n^\u0663", 3,
     ("PolynomialSyntaxError", "expected '+' or '-' (at byte 2)", 2)),
    (" x4+12\u00bd\uff11^*007", 1,
     ("PolynomialSyntaxError", "unexpected character '\u00bd' (at byte 6)",
      6)),
    (" -  x10y", 1,
     ("PolynomialSyntaxError", "unexpected character 'y' (at byte 7)", 7)),
    ("x1\u06631/0\u00bd007  \t  %", 2,
     ("PolynomialSyntaxError", "unexpected character '\u00bd' (at byte 6)",
      6)),
    ("\u00bd\n  x1*+007x1\t", 2,
     ("PolynomialSyntaxError", "unexpected character '\u00bd' (at byte 0)",
      0)),
    ("x\u0663x4-1yx1", 1,
     ("PolynomialSyntaxError", "unexpected character 'y' (at byte 6)", 6)),
    ("\n/", "2", ("DomainError", "variable count must be an integer", None)),
    ("1x2\tx", 2,
     ("PolynomialSyntaxError", "unexpected character 'x' (at byte 4)", 4)),
    ("^", 1,
     ("PolynomialSyntaxError", "expected coefficient or variable (at byte 0)",
      0)),
    ("x4xx4\u0663x+-", 3,
     ("PolynomialSyntaxError", "unexpected character 'x' (at byte 2)", 2)),
    ("x ^x1y+", 3,
     ("PolynomialSyntaxError", "unexpected character 'x' (at byte 0)", 0)),
    ("*", 2,
     ("PolynomialSyntaxError", "expected coefficient or variable (at byte 0)",
      0)),
    ("2+3xx\uff11\u00a0", 1,
     ("PolynomialSyntaxError", "unexpected character 'x' (at byte 3)", 3)),
    ("2+x\uff11x0 /\u0663\n", 3,
     ("PolynomialSyntaxError", "expected '+' or '-' (at byte 4)", 4)),
    ("x\u0663%1/0", 2,
     ("PolynomialSyntaxError", "unexpected character '%' (at byte 2)", 2)),
    ("x10   y/", 2,
     ("PolynomialSyntaxError", "unexpected character 'y' (at byte 6)", 6)),
    ("\u00bd012", 0,
     ("PolynomialSyntaxError", "unexpected character '\u00bd' (at byte 0)",
      0)),
    ("^\u00a0* x0x\uff11120x\uff11", 2,
     ("PolynomialSyntaxError", "expected coefficient or variable (at byte 0)",
      0)),
    ("^x  %3*x\uff11\u00a0+", 2,
     ("PolynomialSyntaxError", "unexpected character 'x' (at byte 1)", 1)),
    ("*x12+", 1,
     ("PolynomialSyntaxError", "expected coefficient or variable (at byte 0)",
      0)),
    (" x10", 2,
     ("DomainError", "variable index 10 exceeds dimension 2", None)),
    ("x\uff1112x0*x0*+", 3,
     ("DomainError", "variable index 112 exceeds dimension 3", None)),
    ("00-//^", 0, ("DomainError", "variable count must be at least 1", None)),
    ("0 1+x\uff11x\u0663x\u0663x*", 2,
     ("PolynomialSyntaxError", "unexpected character 'x' (at byte 10)", 10)),
    ("-x10/^x\u0663^x1", 2,
     ("DomainError", "variable index 10 exceeds dimension 2", None)),
    ("^ +/  12 x\u0663", 1,
     ("PolynomialSyntaxError", "expected coefficient or variable (at byte 0)",
      0)),
    ("*\u0663\uff11/", 3,
     ("PolynomialSyntaxError", "expected coefficient or variable (at byte 0)",
      0)),
    ("\u0663-%3\n  x103", 2,
     ("PolynomialSyntaxError", "unexpected character '%' (at byte 2)", 2)),
    ("^\uff11^/\u00a0+x\uff11", 2,
     ("PolynomialSyntaxError", "expected coefficient or variable (at byte 0)",
      0)),
    ("x\u0663007\u00a0x1\n1 ", 2.0,
     ("DomainError", "variable count must be an integer", None)),
    ("1007\u00a0x2+\n3\u0663", 3,
     ("PolynomialSyntaxError", "expected '+' or '-' (at byte 5)", 5)),
    ("0x32*  ", 2,
     ("PolynomialSyntaxError", "expected '+' or '-' (at byte 1)", 1)),
    ("*+", 3,
     ("PolynomialSyntaxError", "expected coefficient or variable (at byte 0)",
      0)),
    ("/y+1/0x3", 2.0,
     ("PolynomialSyntaxError", "unexpected character 'y' (at byte 1)", 1)),
    ("x0x4-*-\nx\u0663%1", 2,
     ("PolynomialSyntaxError", "unexpected character '%' (at byte 10)", 10)),
    ("*\n  +\u00a0*", 2,
     ("PolynomialSyntaxError", "expected coefficient or variable (at byte 0)",
      0)),
    ("2", 3, [((0, 0, 0), "2")]),
    ("0/2\u00bdx10x3^2\t", 2,
     ("PolynomialSyntaxError", "unexpected character '\u00bd' (at byte 3)",
      3)),
    ("\u00bd  x4-", 1,
     ("PolynomialSyntaxError", "unexpected character '\u00bd' (at byte 0)",
      0)),
    ("13", 1, [((0,), "13")]),
    ("///+", 3,
     ("PolynomialSyntaxError", "expected coefficient or variable (at byte 0)",
      0)),
    (" ", 3,
     ("PolynomialSyntaxError", "expected coefficient or variable (at byte 1)",
      1)),
    ("x1\t1^x^\t", 2,
     ("PolynomialSyntaxError", "unexpected character 'x' (at byte 5)", 5)),
    ("x10x\t/20x0^", True,
     ("PolynomialSyntaxError", "unexpected character 'x' (at byte 3)", 3)),
    ("0", 0, ("DomainError", "variable count must be at least 1", None)),
    ("* x101", 1,
     ("PolynomialSyntaxError", "expected coefficient or variable (at byte 0)",
      0)),
    ("\u00a0", 2,
     ("PolynomialSyntaxError", "expected coefficient or variable (at byte 1)",
      1)),
    (" +1/0x\uff111/0%^", "2",
     ("PolynomialSyntaxError", "unexpected character '%' (at byte 10)", 10)),
    ("\uff11+\uff11", True,
     ("DomainError", "variable count must be an integer", None)),
    ("\n^x\u06631x\u0663y", 3,
     ("PolynomialSyntaxError", "unexpected character 'y' (at byte 7)", 7)),
    ("   * ", "2", ("DomainError", "variable count must be an integer", None)),
    ("\u0663", 1, [((0,), "3")]),
    ("x1+x4+", 3,
     ("DomainError", "variable index 4 exceeds dimension 3", None)),
    ("/x3x\u00bdyx1x2", 2.0,
     ("PolynomialSyntaxError", "unexpected character 'x' (at byte 3)", 3)),
    ("^^007-^x\uff11-1/0  ", 3,
     ("PolynomialSyntaxError", "expected coefficient or variable (at byte 0)",
      0)),
    ("3x2", 2,
     ("PolynomialSyntaxError", "expected '+' or '-' (at byte 1)", 1)),
    ("%0  x1x1007//", True,
     ("PolynomialSyntaxError", "unexpected character '%' (at byte 0)", 0)),
    ("1-\u0663\u06630x2\t", 2,
     ("PolynomialSyntaxError", "expected '+' or '-' (at byte 5)", 5)),
    ("\n\uff11 ", 3, [((0, 0, 0), "1")]),
    ("  \nx100071", 2,
     ("DomainError", "variable index 100071 exceeds dimension 2", None)),
    ("x\uff11/1+y+^  ", 3,
     ("PolynomialSyntaxError", "unexpected character 'y' (at byte 5)", 5)),
    ("^x1  -12%x\u0663x\u06631", 2,
     ("PolynomialSyntaxError", "unexpected character '%' (at byte 8)", 8)),
    ("2x3\u0663-^\uff11", 1,
     ("PolynomialSyntaxError", "expected '+' or '-' (at byte 1)", 1)),
    ("007121/0x1\u00a0x3\t  ", 2,
     ("PolynomialSyntaxError", "zero denominator (at byte 7)", 7)),
    ("x\tx4x2x10x012*/", 2.0,
     ("PolynomialSyntaxError", "unexpected character 'x' (at byte 0)", 0)),
    ("+12+", 2,
     ("PolynomialSyntaxError", "expected coefficient or variable (at byte 4)",
      4)),
    ("\uff111/0\t* x\u0663121/0", "2",
     ("DomainError", "variable count must be an integer", None)),
    ("/\tx/x4y+", 2,
     ("PolynomialSyntaxError", "unexpected character 'x' (at byte 2)", 2)),
    ("x3x1/1x10*", 0,
     ("DomainError", "variable count must be at least 1", None)),
    ("%x\u0663", 3,
     ("PolynomialSyntaxError", "unexpected character '%' (at byte 0)", 0)),
    ("12\u00a0\n^3  ", 1,
     ("PolynomialSyntaxError", "expected '+' or '-' (at byte 4)", 4)),
    ("\uff11 x2x\uff11", 3,
     ("PolynomialSyntaxError", "expected '+' or '-' (at byte 2)", 2)),
    ("yx0 x\uff11", 1,
     ("PolynomialSyntaxError", "unexpected character 'y' (at byte 0)", 0)),
    ("*x007+  ", 2,
     ("PolynomialSyntaxError", "expected coefficient or variable (at byte 0)",
      0)),
    ("+-x0\n+  ", 1,
     ("PolynomialSyntaxError", "expected coefficient or variable (at byte 1)",
      1)),
    ("y", 3,
     ("PolynomialSyntaxError", "unexpected character 'y' (at byte 0)", 0)),
    ("+x1x\u0663x4\n*2", "2",
     ("DomainError", "variable count must be an integer", None)),
    ("+%*/\uff11x3", 2,
     ("PolynomialSyntaxError", "unexpected character '%' (at byte 1)", 1)),
    ("\u00a0", 3,
     ("PolynomialSyntaxError", "expected coefficient or variable (at byte 1)",
      1)),
    ("x3^-\uff11+-%", 1,
     ("PolynomialSyntaxError", "unexpected character '%' (at byte 7)", 7)),
    ("x4x1+*x1\uff11\u00bd3  ", 2,
     ("PolynomialSyntaxError", "unexpected character '\u00bd' (at byte 9)",
      9)),
    ("x10*x3\u0663/%", 3,
     ("PolynomialSyntaxError", "unexpected character '%' (at byte 8)", 8)),
    ("x\u0663%x1* 1+1/0-", 2.0,
     ("PolynomialSyntaxError", "unexpected character '%' (at byte 2)", 2)),
    ("%x/xx\u06630/x41/0", 3,
     ("PolynomialSyntaxError", "unexpected character '%' (at byte 0)", 0)),
    ("/212x10x4\u0663\u0663\uff11", 3,
     ("PolynomialSyntaxError", "expected coefficient or variable (at byte 0)",
      0)),
    ("*\u00a0x1x0 x  121", 2.0,
     ("PolynomialSyntaxError", "unexpected character 'x' (at byte 7)", 7)),
    ("\u00a0^yx1y ", 3,
     ("PolynomialSyntaxError", "unexpected character 'y' (at byte 2)", 2)),
    ("x22x2-", 2,
     ("DomainError", "variable index 22 exceeds dimension 2", None)),
    ("0071/0\u0663/", 1,
     ("PolynomialSyntaxError", "expected '+' or '-' (at byte 7)", 7)),
    ("x\u0663\u0663+3*", 3,
     ("DomainError", "variable index 33 exceeds dimension 3", None)),
    ("%/x10", 3,
     ("PolynomialSyntaxError", "unexpected character '%' (at byte 0)", 0)),
    ("/\u00bd  +\u0663%x\uff11", 2,
     ("PolynomialSyntaxError", "unexpected character '\u00bd' (at byte 1)",
      1)),
    ("-//12\u0663", "2",
     ("DomainError", "variable count must be an integer", None)),
    ("x+\uff11-x2\u0663+", 2,
     ("PolynomialSyntaxError", "unexpected character 'x' (at byte 0)", 0)),
    ("*\t*^y^", 3,
     ("PolynomialSyntaxError", "unexpected character 'y' (at byte 4)", 4)),
    ("x\u0663x3+", 0,
     ("DomainError", "variable count must be at least 1", None)),
    ("-x\uff1112^\u00bd\nx4", 2,
     ("PolynomialSyntaxError", "unexpected character '\u00bd' (at byte 6)",
      6)),
    ("\u0663x\u06631", 1,
     ("PolynomialSyntaxError", "expected '+' or '-' (at byte 1)", 1)),
    (" ^x4x\uff113%0-+", 1,
     ("PolynomialSyntaxError", "unexpected character '%' (at byte 7)", 7)),
    ("- x10+", 2,
     ("DomainError", "variable index 10 exceeds dimension 2", None)),
    (" -", 3,
     ("PolynomialSyntaxError", "expected coefficient or variable (at byte 2)",
      2)),
    ("x\u0663^0\n", 2,
     ("DomainError", "variable index 3 exceeds dimension 2", None)),
    ("x4", 3, ("DomainError", "variable index 4 exceeds dimension 3", None)),
    ("x4x41/0x0+y ", 3,
     ("PolynomialSyntaxError", "unexpected character 'y' (at byte 10)", 10)),
    ("--x3x2 \u00a0", 2,
     ("PolynomialSyntaxError", "expected coefficient or variable (at byte 1)",
      1)),
    ("x2^\uff11", 2, [((0, 1), "1")]),
    ("12%", 2,
     ("PolynomialSyntaxError", "unexpected character '%' (at byte 2)", 2)),
    ("\nx\uff11x4+x0\uff11x2", 1,
     ("PolynomialSyntaxError", "expected '+' or '-' (at byte 3)", 3)),
    ("+x\u0663", 2,
     ("DomainError", "variable index 3 exceeds dimension 2", None)),
    ("x2x4\n30070 x0%", 2,
     ("PolynomialSyntaxError", "unexpected character '%' (at byte 13)", 13)),
    ("\uff11^\u0663-1/0\u00a0", 2.0,
     ("DomainError", "variable count must be an integer", None)),
    ("\u0663\u00bdx\u0663x\uff11  33 \t", 1,
     ("PolynomialSyntaxError", "unexpected character '\u00bd' (at byte 1)",
      1)),
    ("11^12-*2", True,
     ("DomainError", "variable count must be an integer", None)),
    ("\u0663", 3, [((0, 0, 0), "3")]),
    ("x2 12007312*-x4", 1,
     ("DomainError", "variable index 2 exceeds dimension 1", None)),
    ("+x3+1/0\u00a0/x", 3,
     ("PolynomialSyntaxError", "unexpected character 'x' (at byte 9)", 9)),
    ("x\uff11%x10x31/0y--\u00a0", 2,
     ("PolynomialSyntaxError", "unexpected character '%' (at byte 2)", 2)),
    ("007x4x\uff11\u00a0x3\n+", 2,
     ("PolynomialSyntaxError", "expected '+' or '-' (at byte 3)", 3)),
    ("*\u00bd", 3,
     ("PolynomialSyntaxError", "unexpected character '\u00bd' (at byte 1)",
      1)),
    ("007/x42x\tx\u0663", 3,
     ("PolynomialSyntaxError", "unexpected character 'x' (at byte 7)", 7)),
    ("y +^x1*-\u00a0x", 1,
     ("PolynomialSyntaxError", "unexpected character 'y' (at byte 0)", 0)),
    (" //212", 3,
     ("PolynomialSyntaxError", "expected coefficient or variable (at byte 1)",
      1)),
    ("\uff11\uff11/%^30^x10", 3,
     ("PolynomialSyntaxError", "unexpected character '%' (at byte 3)", 3)),
    ("120+y* ", "2",
     ("PolynomialSyntaxError", "unexpected character 'y' (at byte 4)", 4)),
    ("x\u0663/1^", 1,
     ("DomainError", "variable index 3 exceeds dimension 1", None)),
    ("\t\u00bd-^\u00a00//", 1,
     ("PolynomialSyntaxError", "unexpected character '\u00bd' (at byte 1)",
      1)),
    ("x4/x\uff11x\u0663x1/0", 2,
     ("DomainError", "variable index 4 exceeds dimension 2", None)),
    ("-x2x12", 2,
     ("PolynomialSyntaxError", "expected '+' or '-' (at byte 3)", 3)),
    ("5 - xx^0-x1-5/3*x1*0", 1,
     ("PolynomialSyntaxError", "unexpected character 'x' (at byte 4)", 4)),
    ("0x4x2*2 + 3*0*3/2", 2,
     ("PolynomialSyntaxError", "expected '+' or '-' (at byte 1)", 1)),
    ("  1*x3 - x2*3*2 - x2+4", 3,
     [((0, 0, 1), "1"), ((0, 1, 0), "-7"), ((0, 0, 0), "4")]),
    ("-x2^1-3/1*x1^1*4 - 5/1*4 + x2^3*1", 2,
     [((0, 1), "-1"), ((1, 0), "-12"), ((0, 0), "-20"), ((0, 3), "1")]),
    ("-x2*x1", 2, [((1, 1), "-1")]),
    ("x1^0-x1^2*x1^2*0", 1, [((0,), "1")]),
    ("-1*x1*3 - x2^0*0/4 + x1^2", 3, [((1, 0, 0), "-3"), ((2, 0, 0), "1")]),
    ("-x3*x1^0 + 0/2*x2*x3+x3", 3, []),
    ("x1^2*x1*1-2*2*x1 + 2/3*x1^2-x1*x2*3", 2,
     [((3, 0), "1"), ((1, 0), "-4"), ((2, 0), "2/3"), ((1, 1), "-3")]),
    ("x2^2+4*x2*0+5*0*x1", 2, [((0, 2), "1")]),
    ("x1^1*1 + x2-x3^0", 3,
     [((1, 0, 0), "1"), ((0, 1, 0), "1"), ((0, 0, 0), "-1")]),
    ("-x2*x1 + x1*1*x1^0-x1*x1*0/4", 3, [((1, 1, 0), "-1"), ((1, 0, 0), "1")]),
    ("0/2", 3, []),
    ("-1*x1*4/2 + x1^3 - x1*5 - 4*0", 1, [((1,), "-7"), ((3,), "1")]),
    ("x1*5/3", 1, [((1,), "5/3")]),
    ("-x2^0*5", 2, [((0, 0), "-5")]),
    ("x2 - x1*2*x2", 2, [((0, 1), "1"), ((1, 1), "-2")]),
    ("x2 +  1*x1^0", 2, [((0, 1), "1"), ((0, 0), "1")]),
    ("x1^1*x1*x1", 1, [((3,), "1")]),
    ("x2*3-x1^1*0*1/1+2*x212x1", 2,
     ("DomainError", "variable index 212 exceeds dimension 2", None)),
    ("x3*0", 3, []),
    ("x1*4/3*x1-x2^3*x1^1", 2, [((2, 0), "4/3"), ((1, 3), "-1")]),
    ("1/1 + x1*x1^0*x1^0-0", 1, [((0,), "1"), ((1,), "1")]),
    ("-3/1", 3, [((0, 0, 0), "-3")]),
    ("-3*x1*x1^3 - x1^0 + x1*2 - x1^1*x1^2*4/4", 1,
     [((4,), "-3"), ((0,), "-1"), ((1,), "2"), ((3,), "-1")]),
    ("x10070", 1,
     ("DomainError", "variable index 10070 exceeds dimension 1", None)),
    ("x3^1 - 1+x2 - 5/1*4", 3,
     [((0, 0, 1), "1"), ((0, 0, 0), "-21"), ((0, 1, 0), "1")]),
    ("-* - x2^3*4 - 1*x3^1 + 5", 3,
     ("PolynomialSyntaxError", "expected coefficient or variable (at byte 1)",
      1)),
    ("-x1^0-4*2/2", 1, [((0,), "-5")]),
    ("x1^3^x2", 2,
     ("PolynomialSyntaxError", "expected '+' or '-' (at byte 4)", 4)),
    ("-x2*0*x1+4/4-x3^2 - x3^3*2*x1", 3,
     [((0, 0, 0), "1"), ((0, 0, 2), "-1"), ((1, 0, 3), "-2")]),
    ("0/4*x1*x1 - x1^0", 2, [((0, 0), "-1")]),
    ("x2^0*x2*x1", 2, [((1, 1), "1")]),
    ("-x1*0+5*4/2x1x1^2", 1,
     ("PolynomialSyntaxError", "expected '+' or '-' (at byte 11)", 11)),
    ("5*0+x1*x1*x1^3 + 4/1", 1, [((5,), "1"), ((0,), "4")]),
    ("0/3+x1^3*3", 1, [((3,), "3")]),
    ("-x1-4*0*x1 + 2*2/+*x1^0", 1,
     ("PolynomialSyntaxError", "expected denominator (at byte 17)", 17)),
    ("x1+1*x1*x1^1", 1, [((1,), "1"), ((2,), "1")]),
    ("0/4*1 + 4*3/1*x2^2+x2", 3, [((0, 2, 0), "12"), ((0, 1, 0), "1")]),
    ("-2*x1-4", 2, [((1, 0), "-2"), ((0, 0), "-4")]),
    ("x2*4/1*0/3 - x2^3  x2^2*x1 + 2*2 - x2^1*x2", 2,
     ("PolynomialSyntaxError", "expected '+' or '-' (at byte 19)", 19)),
    ("-x1*x1x100+0*4/3", 1,
     ("PolynomialSyntaxError", "expected '+' or '-' (at byte 6)", 6)),
    ("2/2", 3, [((0, 0, 0), "1")]),
    ("-1 - 51x1*x2+x2^2*5/2", 2,
     ("PolynomialSyntaxError", "expected '+' or '-' (at byte 7)", 7)),
    ("x1*x1^0*x1^0 - 0/4*x1*3/2 - 5*x1*3/4-x1^2*0*x1^3", 1, [((1,), "-11/4")]),
    ("x1^0*0/3*x2-1/4 - 0/2*4*1/2", 2, [((0, 0), "-1/4")]),
    ("1/3*x2+1*x2 - x2*3", 3, [((0, 1, 0), "-5/3")]),
    ("x1*x1^0+x1*4*x1-0*0/2 + 0/1", 1, [((1,), "1"), ((2,), "4")]),
    ("-3*4/1*4", 2, [((0, 0), "-48")]),
    ("x3*x2+x1^1*x3-x1*x1^1*5/2", 3,
     [((0, 1, 1), "1"), ((1, 0, 1), "1"), ((2, 0, 0), "-5/2")]),
    ("2*x2*3/2-3/4-5*x3-x3^3", 3,
     [((0, 1, 0), "3"), ((0, 0, 0), "-3/4"), ((0, 0, 1), "-5"),
      ((0, 0, 3), "-1")]),
    ("x2^0*x2^0*5+x1*x1^0-x2^1*x2*0 + 3/3", 2, [((0, 0), "6"), ((1, 0), "1")]),
    ("3 \uff11 0/3", 3,
     ("PolynomialSyntaxError", "expected '+' or '-' (at byte 2)", 2)),
    ("x1*5-x1^2*x1^2 + x1^0 + x1", 1,
     [((1,), "6"), ((4,), "-1"), ((0,), "1")]),
    ("x1*x2^2*1/2 - -*2/1 - 4*3/2", 2,
     ("PolynomialSyntaxError", "expected coefficient or variable (at byte 14)",
      14)),
    ("-x1 + x1*2/3 + x2", 2, [((1, 0), "-1/3"), ((0, 1), "1")]),
    ("x1+0/3-x1*x1^3*x1 + 1*3*x1", 1, [((1,), "4"), ((5,), "-1")]),
    ("0/1*2/3 + 2 - 4*5/3", 1, [((0,), "-14/3")]),
    ("4*1 + 0/3*x1^3+1", 2, [((0, 0), "5")]),
    ("2/2*5/2*2/4-x1^2*x1*x1 - 4*4*x1", 1,
     [((0,), "5/4"), ((4,), "-1"), ((1,), "-16")]),
    ("x1*x2+3", 2, [((1, 1), "1"), ((0, 0), "3")]),
    ("x1 - 1/2+x2^0*5*x1^0 - 1", 2, [((1, 0), "1"), ((0, 0), "7/2")]),
    ("2 + x3", 3, [((0, 0, 0), "2"), ((0, 0, 1), "1")]),
    ("%x1^3*3-x1*4", 2,
     ("PolynomialSyntaxError", "unexpected character '%' (at byte 0)", 0)),
    ("-x2^3*2+x2^0*2/4*1-4*x3*1", 3,
     [((0, 3, 0), "-2"), ((0, 0, 0), "1/2"), ((0, 0, 1), "-4")]),
    ("1*x1^0 + 5/3*x1^3-x1^1*x1+x1^0*3*3/4", 1,
     [((0,), "13/4"), ((3,), "5/3"), ((2,), "-1")]),
    ("\u00bdx2*4*1 - 2*x2*x2^1 - x2*4/3*5", 2,
     ("PolynomialSyntaxError", "unexpected character '\u00bd' (at byte 0)",
      0)),
]


@pytest.mark.parametrize("text, p, outcome", PARSE_CORPUS,
                         ids=[f"case{i}" for i in range(len(PARSE_CORPUS))])
def test_parse_corpus_pinned(text, p, outcome):
    # each outcome is what the parser gave when the table was recorded:
    # the error's class, message and offset, or the terms in their order
    try:
        g = parse_poly(text, p)
    except DomainError as exc:
        got = (type(exc).__name__, str(exc), getattr(exc, "offset", None))
    else:
        got = [(e, str(c)) for e, c in g.terms.items()]
    assert got == outcome
