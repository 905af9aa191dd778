"""Numeric differential and local moments/cumulants for black-box densities:
parity maps, scaling factors, finite-difference and tensor-quadrature
estimators, and the convergence probe for the limiting-cumulant theorem.

Densities: spec in, oracle out.  Each built-in family builds its exact
``logdensity`` spec, which holds every parameter rule, and compiles it into
a ``DensityOracle``, adding only positive definiteness and float range.

Windows: ``CubeWindow(center, eps)`` is the cube of HALF-width eps, i.e.
[xi_i - eps, xi_i + eps] per axis.  The leading-order constants r(eps, k)
(per-axis 1/(k_i+1) for even, 1/(k_i+2) for odd orders) hold exactly for
this window; e.g. the second moment of a flat density over the window is
eps^2/3.

Every estimate is a ratio of density samples, so every sample must be
positive: each batch goes through one gate, ``_sample``, and a zero,
negative or nan value anywhere on a stencil or grid raises ``DomainError``
(exit 1 at the command line).
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import cache
from itertools import product
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, _floats, _positive_int
from .logdensity import GaussianSpec, MECSpec
from .partitions import _cumulants, _validate, plus_norm

DEFAULT_NODES = 16
DEFAULT_STEP_SCALE = 1e-3
TENSOR_GRID_MAX_DIM = 4
_MEC_SHORT_BATCH = 128  # longest batch an MEC density evaluates at once


@dataclass(frozen=True)
class DensityOracle:
    """Strictly positive density on the queried region.  ``fn`` maps an
    (n, p) array of points to an (n,) array of density values."""
    p: int
    fn: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x) -> float:
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        return float(self.fn(pts)[0])

    def batch(self, pts: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(pts, dtype=float)), dtype=float)


@dataclass(frozen=True)
class CubeWindow:
    """Cube of half-width eps centred at a point."""
    center: tuple
    eps: float

    def __post_init__(self):
        object.__setattr__(self, "center",
                           _floats(self.center, "the window centre"))
        object.__setattr__(self, "eps", *_floats(
            (self.eps,), "the window half-width", positive=True))


@dataclass(frozen=True)
class EstimateReport:
    value: float
    method: str
    metadata: dict = field(default_factory=dict)


def parity_alpha(k: Sequence[int]) -> tuple[int, ...]:
    """Binary vector marking the odd components of k."""
    return tuple(v % 2 for v in k)


def r_factor(eps: float, k: Sequence[int]) -> float:
    """Leading-order window scale: eps^{|k|_1^+} times 1/(k_i+1) per even
    and 1/(k_i+2) per odd component."""
    (eps,) = _floats((eps,), "eps", positive=True)
    k = _validate(k)
    out = eps ** plus_norm(k)
    for v in k:
        out /= (v + 1) if v % 2 == 0 else (v + 2)
    return out


def same_moment_class(u: Sequence[int], k: Sequence[int]) -> bool:
    """Componentwise parity equivalence: differential moments depend on k
    only through the odd/even pattern."""
    if len(u) != len(k):
        raise DomainError("multi-indices must have the same dimension")
    return all(a % 2 == b % 2 for a, b in zip(u, k))


# ---------------------------------------------------------------------------
# density samples and finite differences

def _sample(f: DensityOracle, pts) -> np.ndarray:
    """f on the rows of pts.  Every estimator here is a ratio of density
    samples, so each one must be positive; ``min`` also catches a nan."""
    vals = f.batch(pts)
    if vals.shape != (len(pts),):
        raise DomainError(f"density gave shape {vals.shape} for {len(pts)} "
                          "points")
    if not vals.min() > 0:
        raise DomainError("non-positive density sample encountered")
    return vals


@cache
def _sign_table(n):
    """The 2^n sign rows of the central tensor difference over n axes, in
    ``product`` order, and each row's product; read-only, shared by every
    estimate."""
    signs = np.array(list(product((1.0, -1.0), repeat=n)))
    weights = signs.prod(axis=1)
    signs.flags.writeable = weights.flags.writeable = False
    return signs, weights


def _central_differences(f: DensityOracle, xi, step_scale, richardson,
                         log=False):
    """The map alpha -> D^alpha f / f (or D^alpha log f with ``log``) at xi
    for binary alpha: the central tensor difference over the axes alpha
    marks, Richardson-extrapolated once.  Each alpha is estimated once and
    f(xi) is sampled at most once, however many alpha are asked for.

    Every stencil (one per alpha and step) is its own batch.  A density may
    round differently by batch length (the Gaussian's ``einsum`` does), so
    merging stencils would change the estimates in the last digits."""
    x = np.asarray(xi, dtype=float)
    step = [step_scale * max(1.0, abs(v)) for v in xi]

    @cache
    def at_xi():
        return float(_sample(f, x[None, :])[0])

    def difference(offsets, weights, h):
        vals = _sample(f, x + offsets)
        if log:
            vals = np.log(vals)
        return float(weights @ vals) / math.prod(2.0 * v for v in h)

    @cache
    def derivative(alpha):
        axes = [i for i, a in enumerate(alpha) if a]
        if not axes:
            return math.log(at_xi()) if log else 1.0
        signs, weights = _sign_table(len(axes))
        h = [step[i] for i in axes]
        # +-h on alpha's axes and -0.0 elsewhere: x + -0.0 is x bit for
        # bit (a -0.0 coordinate included), and no step off alpha, even an
        # infinite one, touches the stencil.  (s * h) * 0.5 is s * (h / 2)
        # bit for bit, so the fine offsets are the coarse ones halved.
        offsets = np.full((len(signs), len(x)), -0.0)
        offsets[:, axes] = signs * h
        est = difference(offsets, weights, h)
        if richardson:
            est = (4.0 * difference(offsets * 0.5, weights,
                                    [v / 2 for v in h]) - est) / 3.0
        return est if log else est / at_xi()

    return derivative


def _point_and_index(f: DensityOracle, xi, k, step_scale=None):
    """xi as finite floats and k as a multi-index, both of f's dimension;
    a finite-difference step scale, if given, must be positive."""
    xi = _floats(xi, "the point xi")
    k = _validate(k)
    if len(k) != len(xi) or f.p != len(xi):
        raise DomainError("dimension mismatch")
    if step_scale is not None:
        _floats((step_scale,), "step_scale", positive=True)
    return xi, k


def differential_moment(f: DensityOracle, xi, k, *,
                        step_scale=DEFAULT_STEP_SCALE,
                        richardson=True) -> EstimateReport:
    """m^xi_k = D^alpha f / f with alpha the parity pattern of k.

    The step on axis i is step_scale * max(1, |xi_i|).  The default,
    ``DEFAULT_STEP_SCALE``, suits orders |alpha| up to 3.  At order 4 the
    difference divides by (2h)^4 and rounding can reach about 3e-3, as on
    a vanishing cumulant (see ``differential_cumulant``); there
    ``step_scale=1e-2`` brings it under 1e-6 for small coefficients."""
    xi, k = _point_and_index(f, xi, k, step_scale)
    alpha = parity_alpha(k)
    value = _central_differences(f, xi, step_scale, richardson)(alpha)
    return EstimateReport(value, "finite-difference", {
        "k": k, "alpha": alpha, "xi": xi,
        "step_scale": step_scale, "richardson": richardson})


def differential_cumulant(f: DensityOracle, xi, k, *, method="partition",
                          step_scale=DEFAULT_STEP_SCALE,
                          richardson=True) -> EstimateReport:
    """kappa^xi_k, either from the differential moments by the
    moment-cumulant transform (the definition) or as D^alpha log f (the
    square-free shortcut).

    ``DEFAULT_STEP_SCALE`` suits orders |alpha| up to 3.  At order 4
    rounding dominates: a vanishing cumulant can read about 3e-3.  A step
    of 1e-2 for the partition sum, or 1e-1 for the log-derivative, brings
    it under 1e-6 for a density with small coefficients."""
    xi, k = _point_and_index(f, xi, k, step_scale)
    alpha = parity_alpha(k)
    if method == "partition":
        ratio = _central_differences(f, xi, step_scale, richardson)
        # differential moments depend on nu only through its parity
        value = _cumulants(k, lambda nu: ratio(parity_alpha(nu)))
        label = "partition-sum"
    elif method == "logderiv":
        value = _central_differences(f, xi, step_scale, richardson,
                                     log=True)(alpha)
        label = "log-derivative"
    else:
        raise DomainError(f"unknown method {method!r}")
    return EstimateReport(value, label, {
        "k": k, "alpha": alpha, "xi": xi,
        "step_scale": step_scale, "richardson": richardson})


# ---------------------------------------------------------------------------
# local moments and cumulants

@cache
def _gauss_legendre(nodes):
    """The Gauss-Legendre nodes and weights on [-1, 1]; read-only, shared
    by every estimate with this node count."""
    t, w = np.polynomial.legendre.leggauss(nodes)
    t.flags.writeable = w.flags.writeable = False
    return t, w


def _quadrature_grid(window: CubeWindow, nodes: int):
    """The tensor Gauss-Legendre grid on the window, as offsets from its
    centre, and the product weights, both in C order over the axes (the
    last axis varies fastest).  Each offset column is built contiguous and
    the (N, p) array is their transposed view, so reading a column copies
    nothing; each weight is w_i0 * w_i1 * ... multiplied left to right."""
    p = len(window.center)
    t, w = _gauss_legendre(nodes)
    offs = window.eps * t
    columns = np.empty((p, nodes ** p))
    for i in range(p):
        columns[i] = np.tile(np.repeat(offs, nodes ** (p - 1 - i)), nodes ** i)
    weights = w
    for _ in range(p - 1):
        weights = np.multiply.outer(weights, w)
    return columns.T, weights.ravel()


def _local_moments(f: DensityOracle, window: CubeWindow, k, nodes, method,
                   mc_samples, seed):
    """Evaluate f once on the window's tensor Gauss-Legendre grid (or
    seeded Monte Carlo sample) and return the moment function
    nu -> (w . (x^nu f)) / (w . f), x the offset from the centre, with the
    report's label and metadata."""
    center, k = _point_and_index(f, window.center, k)
    if method == "quadrature":
        if len(center) > TENSOR_GRID_MAX_DIM:
            raise DomainError(
                f"tensor quadrature supports p <= {TENSOR_GRID_MAX_DIM}; "
                "use method='mc'")
        nodes = _positive_int(nodes, "nodes")
        offsets, weights = _quadrature_grid(window, nodes)
        meta = {"nodes": nodes}
    elif method == "mc":
        mc_samples = _positive_int(mc_samples, "mc_samples")
        if seed is None:
            text = os.environ.get("HMI_SEED", "0")
            if not text.isdecimal():
                raise DomainError("HMI_SEED must be a non-negative integer, "
                                  f"not {text!r}")
            seed = int(text)
        offsets = np.random.default_rng(seed).uniform(
            -window.eps, window.eps, size=(mc_samples, len(center)))
        weights = np.ones(mc_samples)
        meta = {"samples": mc_samples, "seed": seed}
    else:
        raise DomainError(f"unknown method {method!r}")
    vals = _sample(f, np.asarray(center) + offsets)
    denom = float(weights @ vals)
    # prefix[i]: the product of x_j^nu_j over j < i for the last nu, built
    # from ones left to right as a fresh monomial would be.  _cumulants
    # asks in ``product`` order, so consecutive nu share a long prefix.
    prefix, last = [np.ones(len(offsets))], ()

    def moment(nu):
        nonlocal last
        same = next((i for i, (a, b) in enumerate(zip(nu, last)) if a != b),
                    len(last))
        del prefix[same + 1:]
        for i in range(same, len(nu)):
            prefix.append(prefix[i] * offsets[:, i] ** nu[i] if nu[i]
                          else prefix[i])
        last = nu
        return float(weights @ (prefix[-1] * vals)) / denom

    meta.update({"k": k, "eps": window.eps, "center": center,
                 "method": method})
    label = "tensor-quadrature" if method == "quadrature" else "monte-carlo"
    return moment, label, meta


def local_moment(f: DensityOracle, window: CubeWindow, k, *,
                 nodes=DEFAULT_NODES, method="quadrature",
                 mc_samples=200_000, seed=None) -> EstimateReport:
    """m^A_k: conditional moment of X - xi over the window, by
    tensor-product Gauss-Legendre quadrature (seeded Monte Carlo above
    dimension 4)."""
    moment, label, meta = _local_moments(f, window, k, nodes, method,
                                         mc_samples, seed)
    return EstimateReport(moment(meta["k"]), label, meta)


def local_cumulant(f: DensityOracle, window: CubeWindow, k, *,
                   nodes=DEFAULT_NODES, method="quadrature",
                   mc_samples=200_000, seed=None) -> EstimateReport:
    """kappa^A_k from the local moments by the moment-cumulant transform,
    all of them from one evaluation of f on the grid."""
    moment, label, meta = _local_moments(f, window, k, nodes, method,
                                         mc_samples, seed)
    return EstimateReport(_cumulants(meta["k"], moment), label, meta)


@dataclass(frozen=True)
class LimitProbeReport:
    k: tuple
    xi: tuple
    eps_values: tuple
    scaled_values: tuple     # kappa^A_k / r(eps, k) per eps
    target: float            # differential cumulant kappa^xi_k
    errors: tuple
    converged: bool


def limit_matches_differential(f: DensityOracle, xi, k, eps_values, *,
                               nodes=DEFAULT_NODES, rel_tol=0.05
                               ) -> LimitProbeReport:
    """Evaluate kappa^A_k / r(eps, k) along a decreasing eps sequence and
    report whether it converges to the differential cumulant.  Convergence
    means monotone error decay over at least three levels with the final
    scaled value within rel_tol of the target."""
    xi, k = _point_and_index(f, xi, k)
    eps_values = _floats(eps_values, "eps values", positive=True)
    if len(eps_values) < 3 or any(b >= a for a, b in
                                  zip(eps_values, eps_values[1:])):
        raise DomainError("need at least three strictly decreasing eps")
    target = differential_cumulant(f, xi, k, method="partition").value
    scaled = []
    for eps in eps_values:
        window = CubeWindow(xi, eps)
        kappa = local_cumulant(f, window, k, nodes=nodes).value
        scaled.append(kappa / r_factor(eps, k))
    errors = tuple(abs(s - target) for s in scaled)
    atol = 1e-9 * max(1.0, abs(target))
    decaying = all(b < a or b < atol for a, b in zip(errors, errors[1:]))
    close = errors[-1] <= max(rel_tol * abs(target), atol)
    return LimitProbeReport(k, xi, eps_values, tuple(scaled), target,
                            errors, bool(decaying and close))


# ---------------------------------------------------------------------------
# built-in density families, compiled from their exact specs

def gaussian_density(mean, precision) -> DensityOracle:
    """Normal density with the given mean and precision (inverse
    covariance) matrix, compiled from its ``GaussianSpec``."""
    spec = GaussianSpec(mean, precision)
    mu = np.array(_floats(spec.mean, "the mean"))
    lam = np.array([_floats(row, "the precision") for row in spec.precision])
    sign, logdet = np.linalg.slogdet(lam)
    if sign <= 0:
        raise DomainError("precision must be positive definite")
    lognorm = 0.5 * (logdet - spec.p * math.log(2 * math.pi))

    def fn(pts):
        diff = pts - mu
        quad = np.einsum("ni,ij,nj->n", diff, lam, diff)
        return np.exp(lognorm - 0.5 * quad)

    return DensityOracle(spec.p, fn)


def mec_density(coeffs, p: int) -> DensityOracle:
    """Unnormalized exp of a multilinear log-density sum a_s x^s; every
    estimator here is a ratio, so the missing constant is irrelevant."""
    spec = MECSpec(p, coeffs)
    try:
        terms = [(float(a), [i for i, si in enumerate(s) if si])
                 for s, a in spec.coeffs.items()]
    except OverflowError:
        raise DomainError("MEC coefficient out of float range") from None
    # for short batches: row 0 is the zero the sum starts from, and
    # factors[d][j] is the axis of term j's d-th factor, or p (a row of
    # ones) past its degree, since x * 1.0 is x bit for bit
    start = np.array([0.0] + [a for a, _ in terms])[:, None]
    depth = max((len(axes) for _, axes in terms), default=0)
    factors = np.array([[axes[d] if d < len(axes) else p
                         for _, axes in terms] for d in range(depth)],
                       dtype=np.intp)

    def fn(pts):
        # either way each term is a_s * x_i * x_j * ... left to right and
        # the terms are added to zero in order, so both give the same bits
        if len(pts) > _MEC_SHORT_BATCH:
            g = np.zeros(pts.shape[0])
            for a, axes in terms:
                term = a
                for i in axes:
                    term = term * pts[:, i]
                g += term
            return np.exp(g)
        # a stencil: one array operation per factor depth rather than
        # several per term, so its cost does not grow with the terms
        x = np.ones((p + 1, len(pts)))
        x[:p] = pts.T
        term = np.repeat(start, len(pts), axis=1)
        for axes in factors:
            term[1:] *= x[axes]
        return np.exp(np.add.accumulate(term)[-1])

    return DensityOracle(spec.p, fn)


def product_gaussian_density(means, variances) -> DensityOracle:
    """Product of independent univariate normals: the Gaussian with
    diagonal precision 1 / variance."""
    var = _floats(variances, "variances", positive=True)
    if not hasattr(means, "__len__") or len(means) != len(var):
        raise DomainError("means and variances must have the same length")
    return gaussian_density(means, np.diag(1.0 / np.array(var)))
