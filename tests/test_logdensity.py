"""Sparse rational polynomials: parsing, printing, differentiation,
hierarchical verification and the Gaussian/MEC/BEC families.  The chain rule
for exp(g) is cross-checked numerically against the partition expansion."""
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

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
    assert g.total_degree() == 2
    assert g.degree_in(1) == 2
    assert SparsePolynomial.zero(2).total_degree() == -1


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
def polynomials(draw):
    p = draw(st.integers(min_value=1, max_value=3))
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
    for tolerance in (-1, float("nan")):
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
