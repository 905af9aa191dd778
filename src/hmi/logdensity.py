"""Exact symbolic log-densities as sparse rational polynomials: parsing,
differentiation, hierarchical verification, Artinian degree checks and the
MEC and Gaussian families.

Log-densities are treated modulo additive constants; every mixed derivative
of positive order kills the normalization anyway.
"""
from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import (DomainError, PolynomialSyntaxError, _finite_real,
                     _fraction, _index, _int, _json_int, _nonnegative_real,
                     _positive_int)
from .ideal import SquareFreeIdeal, make_ideal
from .partitions import _validate, unit_vector
from .simplicial import SimplicialComplex, is_face, make_complex


class SparsePolynomial:
    """Polynomial in x1..xp with Fraction coefficients, stored as a map from
    exponent vector to coefficient.  Immutable by convention.  Only the
    constructor reads its input; polynomials derived from polynomials are
    built by ``_polynomial`` without being read again."""

    __slots__ = ("p", "terms")

    def __init__(self, p: int, terms: Mapping[tuple, object] | None = None):
        p = _int(p, "variable count must be an integer")
        if p < 1:
            raise DomainError("variable count must be at least 1")
        self.p = p
        clean = {}
        for exp, coeff in (terms or {}).items():
            exp = _validate(exp)
            if len(exp) != p:
                raise DomainError(f"bad exponent vector {exp}")
            clean[exp] = clean.get(exp, Fraction(0)) + _fraction(
                coeff, f"bad coefficient {coeff!r}")
        self.terms = {e: c for e, c in clean.items() if c}

    @classmethod
    def zero(cls, p):
        return cls(p)

    @classmethod
    def constant(cls, p, c):
        return cls(p, {(0,) * p: c})

    @classmethod
    def variable(cls, p, i):
        """x_i, 1-based."""
        e = unit_vector(p, _index(i, p, "variable index"))
        return _polynomial(len(e), {e: Fraction(1)})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, SparsePolynomial)
                and self.p == other.p and self.terms == other.terms)

    def __hash__(self):
        return hash((self.p, frozenset(self.terms.items())))

    def __add__(self, other):
        merged = dict(self.terms)
        for e, c in self._coerce(other).terms.items():
            merged[e] = merged.get(e, Fraction(0)) + c
        return _polynomial(self.p, merged)

    def __neg__(self):
        return _polynomial(self.p, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + -self._coerce(other)

    def __mul__(self, other):
        if not isinstance(other, SparsePolynomial):
            return self * SparsePolynomial.constant(self.p, other)
        other = self._coerce(other)
        out: dict[tuple, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return _polynomial(self.p, out)

    def __rmul__(self, other):
        return self * other

    def __pow__(self, n):
        n = _int(n, f"power {n!r} is not an integer")
        if n < 0:
            raise DomainError("negative power")
        out = _polynomial(self.p, {(0,) * self.p: Fraction(1)})
        for _ in range(n):
            out = out * self
        return out

    def _coerce(self, other):
        if isinstance(other, SparsePolynomial) and other.p == self.p:
            return other
        raise DomainError(f"operand {other!r} is not a polynomial in the "
                          f"same variables x1..x{self.p}")

    def degree_in(self, i: int) -> int:
        """Degree in x_i (1-based); -1 for the zero polynomial."""
        i = _index(i, self.p, "variable index")
        return max((e[i - 1] for e in self.terms), default=-1)

    def total_degree(self) -> int:
        return max(map(sum, self.terms), default=-1)

    def evaluate(self, point: Sequence):
        """g at a point of finite reals: exact when every coordinate is an
        integer or a Fraction, a float otherwise, and refused when that
        float overflows."""
        if not hasattr(point, "__len__") or len(point) != self.p:
            raise DomainError(f"point must have {self.p} coordinates")
        for x in point:
            _fraction(x, f"point coordinate {x!r} is not a finite real")
        # a numpy float would compute in its own precision, and warn
        point = [x if isinstance(x, numbers.Rational) else float(x)
                 for x in point]
        total = Fraction(0)
        for e, c in self.terms.items():
            val = c
            for x, k in zip(point, e):
                for _ in range(k):
                    val = val * x
            total = total + val
        if isinstance(total, float) and not math.isfinite(total):
            raise DomainError("polynomial value at the point is not finite")
        return total

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exp in sorted(self.terms, key=lambda e: (-sum(e), tuple(-v for v in e))):
            coeff = self.terms[exp]
            factors = [f"x{i + 1}" + (f"^{k}" if k > 1 else "")
                       for i, k in enumerate(exp) if k]
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = str(mag) + "*" + "*".join(factors)
            parts.append(("-" if coeff < 0 else "+", body))
        sign, body = parts[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self):
        return f"SparsePolynomial({self.p}, {self})"


def _polynomial(p: int, terms: Mapping[tuple, Fraction]) -> SparsePolynomial:
    """A polynomial from terms that are already read: tuples of p ints
    mapped to Fractions.  Only the zero coefficients are dropped."""
    g = object.__new__(SparsePolynomial)
    g.p = p
    g.terms = {e: c for e, c in terms.items() if c}
    return g


# every non-blank character starts a token, so ``finditer`` skips blanks
# only; one that starts no other token is ``bad``
_TOKEN = re.compile(r"(?P<int>\d+)|(?P<var>x\d+)|(?P<op>[-+*/^])|(?P<bad>\S)")


def parse_poly(text: str, p: int) -> SparsePolynomial:
    """Parse ``coeff*x1^2*x3 - x2 + 1/2`` style text; exact, and round-trips
    through str().  One cursor reads the tokens by the grammar

        sum  := [+|-] term ((+|-) term)*
        term := atom (* atom)*
        atom := int [/ int] | x_i [^ int]

    Each term's coefficient is added to the sum for its exponent as it is
    read, and one polynomial is built from the sums at the end."""
    tokens = []
    for m in _TOKEN.finditer(text):
        if m.lastgroup == "bad":
            raise PolynomialSyntaxError(
                f"unexpected character {m.group()!r}", m.start())
        tokens.append((m.lastgroup, m.group(), m.start()))
    tokens.append((None, None, len(text)))          # end of text
    # an invalid p is reported before any error in the terms
    p = SparsePolynomial.zero(p).p
    terms: dict[tuple, Fraction] = {}
    idx = 0

    def take(kind, ops=""):
        """Consume and return the next token's text if it is a ``kind``."""
        nonlocal idx
        k, val, _ = tokens[idx]
        if k != kind or (ops and val not in ops):
            return None
        idx += 1
        return val

    def expected(what):
        raise PolynomialSyntaxError(f"expected {what}", tokens[idx][2])

    sign = take("op", "+-")
    while True:
        coeff, exps = Fraction(-1 if sign == "-" else 1), [0] * p
        while True:
            if num := take("int"):
                if take("op", "/"):
                    den = int(take("int") or expected("denominator"))
                    if not den:     # reported at the denominator just read
                        raise PolynomialSyntaxError("zero denominator",
                                                    tokens[idx - 1][2])
                    coeff *= Fraction(int(num), den)
                else:
                    coeff *= int(num)
            elif var := take("var"):
                var = int(var[1:])
                if not 1 <= var <= p:
                    raise DomainError(
                        f"variable index {var} exceeds dimension {p}")
                power = 1
                if take("op", "^"):
                    power = int(take("int") or expected("exponent"))
                exps[var - 1] += power
            else:
                expected("coefficient or variable")
            if not take("op", "*"):
                break
        # a sum that cancels drops its exponent, as adding the term to a
        # polynomial would, so a later term with it goes last
        exp = tuple(exps)
        terms[exp] = terms.get(exp, 0) + coeff
        if not terms[exp]:
            del terms[exp]
        if tokens[idx][0] is None:
            return _polynomial(p, terms)
        sign = take("op", "+-") or expected("'+' or '-'")


def differentiate(g: SparsePolynomial, k: Sequence[int]) -> SparsePolynomial:
    """Exact D^k g."""
    k = _validate(k)
    if len(k) != g.p:
        raise DomainError(f"bad derivative order {k}")
    out: dict[tuple, Fraction] = {}
    for exp, coeff in g.terms.items():
        # perm(e, d) = e! / (e - d)!, and 0 for d > e; exponents that
        # survive stay distinct after the shift
        if c := coeff * math.prod(map(math.perm, exp, k)):
            out[tuple(e - d for e, d in zip(exp, k))] = c
    return _polynomial(g.p, out)


def hierarchy_violation(g: SparsePolynomial, S: SimplicialComplex):
    """None when every term support is a face of S; otherwise a violating
    (exponent vector, support) pair.  The support is a non-face certificate:
    D^K g with K the support does not vanish."""
    if g.p != S.p:
        raise DomainError("polynomial and complex dimensions differ")
    label_set = set(S.labels)
    for exp in sorted(g.terms):
        support = frozenset(i + 1 for i, e in enumerate(exp) if e)
        if not support:
            continue
        if not support <= label_set or not is_face(S, support):
            return exp, support
    return None


def is_hierarchical(g: SparsePolynomial, S: SimplicialComplex) -> bool:
    """True iff D^K g vanishes identically for every non-face K of S,
    equivalently every term support is a face."""
    return hierarchy_violation(g, S) is None


def artinian_degree_check(g: SparsePolynomial, n: Sequence[int]) -> bool:
    """True iff the n_i-th pure derivative in x_i kills g for every i,
    i.e. deg_{x_i}(g) <= n_i - 1."""
    n = _validate(n)
    if len(n) != g.p or any(v < 1 for v in n):
        raise DomainError("orders must be positive, one per variable")
    return all(g.degree_in(i + 1) <= n[i] - 1 for i in range(g.p))


def total_degree_cumulant_check(g: SparsePolynomial, d: int) -> bool:
    """True iff D^alpha g = 0 for every |alpha| = d, i.e. total degree of g
    is at most d - 1."""
    d = _positive_int(d, "degree")
    return g.total_degree() <= d - 1


@dataclass(frozen=True)
class GaussianSpec:
    """Mean vector and precision (influence) matrix.  The precision must
    be exactly symmetric; a computed inverse may need ``(A + A.T) / 2``."""
    mean: tuple
    precision: tuple

    def __post_init__(self):
        try:
            mean = tuple(self.mean)
            prec = tuple(tuple(row) for row in self.precision)
        except TypeError:
            mean = prec = ()
        p = len(mean)
        if not p or len(prec) != p or any(len(row) != p for row in prec):
            raise DomainError("mean must be a vector of length p >= 1 and "
                              "precision a p x p matrix")
        if not all(map(_finite_real, (*mean, *sum(prec, ())))):
            raise DomainError("Gaussian entries must be finite real numbers")
        if any(prec[i][j] != prec[j][i] for i in range(p) for j in range(i)):
            raise DomainError("precision matrix must be symmetric")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "precision", prec)

    @property
    def p(self):
        return len(self.mean)


def gaussian_log_poly(spec: GaussianSpec) -> SparsePolynomial:
    """-1/2 (x - mu)' Lambda (x - mu), exact in Fractions."""
    p = spec.p
    diffs = [SparsePolynomial.variable(p, i + 1)
             - SparsePolynomial.constant(p, spec.mean[i]) for i in range(p)]
    out = SparsePolynomial.zero(p)
    for i in range(p):
        for j in range(p):
            if lam := spec.precision[i][j]:
                out = out + diffs[i] * diffs[j] * lam
    return out * Fraction(-1, 2)


def gaussian_ideal(spec: GaussianSpec, tolerance=0) -> SquareFreeIdeal:
    """Stanley-Reisner ideal read off the zero pattern of the precision
    matrix: one generator x_i x_j per (near-)zero off-diagonal entry."""
    _nonnegative_real(tolerance, "tolerance must be non-negative")
    gens = []
    for i in range(spec.p):
        for j in range(i + 1, spec.p):
            if abs(spec.precision[i][j]) <= tolerance:
                gens.append((i + 1, j + 1))
    return make_ideal(spec.p, gens)


@dataclass(frozen=True)
class MECSpec:
    """Coefficients a_s of a multilinear log-density, indexed by binary
    multi-indices s in {0,1}^p."""
    p: int
    coeffs: Mapping[tuple, object]

    def __post_init__(self):
        try:
            p, items = _json_int(self.p), self.coeffs.items()
        except (AttributeError, TypeError):
            raise DomainError("MEC spec needs an integer p and a mapping of "
                              "coefficients") from None
        if p < 1:
            raise DomainError("variable count must be at least 1")
        clean = {}
        for s, a in items:
            s = _validate(s)
            if len(s) != p or any(v > 1 for v in s):
                raise DomainError(f"non-binary index {s} in MEC spec")
            clean[s] = _fraction(a, f"MEC coefficient {a!r}: not a finite "
                                 "real")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coeffs", clean)


def mec_polynomial(spec: MECSpec) -> SparsePolynomial:
    return _polynomial(spec.p, spec.coeffs)


def mec_support_complex(spec: MECSpec) -> SimplicialComplex:
    """Complex generated by the supports of the nonzero coefficients;
    the MEC log-density is hierarchical exactly for complexes containing
    this one."""
    faces = [[i + 1 for i, v in enumerate(s) if v]
             for s, a in spec.coeffs.items() if a]
    return make_complex(spec.p, faces)


def gaussian_spec_from_json(obj: Mapping) -> GaussianSpec:
    try:
        return GaussianSpec(obj["mean"], obj["precision"])
    except (KeyError, TypeError):
        raise DomainError("gaussian JSON needs 'mean' and 'precision'") \
            from None


def mec_spec_from_json(obj: Mapping) -> MECSpec:
    try:
        p = obj["p"]
        coeffs = {tuple(int(ch) for ch in key): Fraction(str(val))
                  for key, val in obj["coeffs"].items()}
    except (AttributeError, KeyError, TypeError, ValueError,
            ZeroDivisionError):
        raise DomainError("MEC JSON needs integer 'p' and 'coeffs' of "
                          "rationals") from None
    return MECSpec(p, coeffs)
