"""Numeric differential and local moments/cumulants for black-box densities:
parity maps, scaling factors, finite-difference and tensor-quadrature
estimators, and the convergence probe for the limiting-cumulant theorem.

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
import numbers
import os
from dataclasses import dataclass, field
from functools import cache
from itertools import product
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError
from .partitions import _cumulants, plus_norm

DEFAULT_NODES = 16
DEFAULT_STEP_SCALE = 1e-3
TENSOR_GRID_MAX_DIM = 4


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
                           tuple(float(c) for c in self.center))
        if not self.eps > 0:
            raise DomainError("window half-width must be positive")


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
    if eps <= 0:
        raise DomainError("eps must be positive")
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

    @cache
    def at_xi():
        return float(_sample(f, x[None, :])[0])

    def difference(axes, h):
        signs, weights = _sign_table(len(axes))
        pts = np.repeat(x[None, :], len(signs), axis=0)
        pts[:, axes] += signs * h
        vals = _sample(f, pts)
        if log:
            vals = np.log(vals)
        return float(weights @ vals) / math.prod(2.0 * v for v in h)

    @cache
    def derivative(alpha):
        axes = [i for i, a in enumerate(alpha) if a]
        if not axes:
            return math.log(at_xi()) if log else 1.0
        h = tuple(step_scale * max(1.0, abs(xi[i])) for i in axes)
        est = difference(axes, h)
        if richardson:
            est = (4.0 * difference(axes, tuple(v / 2 for v in h))
                   - est) / 3.0
        return est if log else est / at_xi()

    return derivative


def _point_and_index(f: DensityOracle, xi, k):
    """xi as finite floats and k as a tuple, both of f's dimension."""
    xi = tuple(float(c) for c in xi)
    k = tuple(k)
    if len(k) != len(xi) or f.p != len(xi):
        raise DomainError("dimension mismatch")
    if not all(map(math.isfinite, xi)):
        raise DomainError("the point xi must be finite")
    return xi, k


def differential_moment(f: DensityOracle, xi, k, *,
                        step_scale=DEFAULT_STEP_SCALE,
                        richardson=True) -> EstimateReport:
    """m^xi_k = D^alpha f / f with alpha the parity pattern of k."""
    xi, k = _point_and_index(f, xi, k)
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
    square-free shortcut)."""
    xi, k = _point_and_index(f, xi, k)
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
    p = len(window.center)
    t, w = _gauss_legendre(nodes)
    offs = window.eps * t
    grids = np.meshgrid(*[offs] * p, indexing="ij")
    offsets = np.stack([g.ravel() for g in grids], axis=1)
    weights = np.ones(offsets.shape[0])
    wgrids = np.meshgrid(*[w] * p, indexing="ij")
    for g in wgrids:
        weights *= g.ravel()
    pts = np.asarray(window.center) + offsets
    return pts, offsets, weights


def _mc_grid(window: CubeWindow, samples: int, seed: int):
    p = len(window.center)
    rng = np.random.default_rng(seed)
    offsets = rng.uniform(-window.eps, window.eps, size=(samples, p))
    pts = np.asarray(window.center) + offsets
    weights = np.ones(samples)
    return pts, offsets, weights


def _local_moments(f: DensityOracle, window: CubeWindow, k, nodes, method,
                   mc_samples, seed):
    """Evaluate f once on the window's tensor Gauss-Legendre grid (or
    seeded Monte Carlo sample) and return the moment function
    nu -> (w . (x^nu f)) / (w . f), x the offset from the centre, with the
    report's label and metadata."""
    center, k = _point_and_index(f, window.center, k)
    p = len(center)
    if method == "quadrature":
        if p > TENSOR_GRID_MAX_DIM:
            raise DomainError(
                f"tensor quadrature supports p <= {TENSOR_GRID_MAX_DIM}; "
                "use method='mc'")
        if not (isinstance(nodes, numbers.Integral) and nodes > 0):
            raise DomainError("nodes must be a positive integer")
        pts, offsets, weights = _quadrature_grid(window, nodes)
        meta = {"nodes": nodes}
    elif method == "mc":
        if not (isinstance(mc_samples, numbers.Integral) and mc_samples > 0):
            raise DomainError("mc_samples must be a positive integer")
        if seed is None:
            text = os.environ.get("HMI_SEED", "0")
            if not text.isdecimal():
                raise DomainError("HMI_SEED must be a non-negative integer, "
                                  f"not {text!r}")
            seed = int(text)
        pts, offsets, weights = _mc_grid(window, mc_samples, seed)
        meta = {"samples": mc_samples, "seed": seed}
    else:
        raise DomainError(f"unknown method {method!r}")
    vals = _sample(f, pts)
    denom = float(weights @ vals)

    def moment(nu):
        mono = np.ones(len(pts))
        for i, ki in enumerate(nu):
            if ki:
                mono *= offsets[:, i] ** ki
        return float(weights @ (mono * vals)) / denom

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
    xi = tuple(float(c) for c in xi)
    k = tuple(k)
    eps_values = tuple(float(e) for e in eps_values)
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
# built-in density families

def _vector_and_array(vector, array):
    """Both as float arrays, the first one-dimensional.  Every entry must be
    a finite real number: booleans, strings and nan or infinite entries
    raise ``DomainError``, as in ``logdensity.GaussianSpec``."""
    try:
        entries = [*np.asarray(vector, dtype=object).flat,
                   *np.asarray(array, dtype=object).flat]
        if not all(isinstance(x, numbers.Real) and not isinstance(x, bool)
                   and abs(x) < math.inf for x in entries):
            raise ValueError
        vector = np.asarray(vector, dtype=float)
        array = np.asarray(array, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise DomainError("density parameters must be finite real "
                          "numbers") from None
    if vector.ndim != 1:
        raise DomainError("density parameters must be numeric vectors")
    return vector, array


def gaussian_density(mean, precision) -> DensityOracle:
    """Normal density with the given mean and precision (inverse
    covariance) matrix."""
    mu, lam = _vector_and_array(mean, precision)
    p = mu.shape[0]
    if lam.shape != (p, p) or not np.allclose(lam, lam.T):
        raise DomainError("precision must be a symmetric p x p matrix")
    sign, logdet = np.linalg.slogdet(lam)
    if sign <= 0:
        raise DomainError("precision must be positive definite")
    lognorm = 0.5 * (logdet - p * math.log(2 * math.pi))

    def fn(pts):
        diff = pts - mu
        quad = np.einsum("ni,ij,nj->n", diff, lam, diff)
        return np.exp(lognorm - 0.5 * quad)

    return DensityOracle(p, fn)


def mec_density(coeffs, p: int) -> DensityOracle:
    """Unnormalized exp of a multilinear log-density sum a_s x^s; every
    estimator here is a ratio, so the missing constant is irrelevant."""
    try:
        table = {tuple(s): float(a) for s, a in coeffs.items()}
    except OverflowError:
        raise DomainError("MEC coefficient out of float range") from None
    for s in table:
        if len(s) != p or any(v not in (0, 1) for v in s):
            raise DomainError(f"non-binary index {s} in MEC coefficients")

    def fn(pts):
        g = np.zeros(pts.shape[0])
        for s, a in table.items():
            term = np.full(pts.shape[0], a)
            for i, si in enumerate(s):
                if si:
                    term = term * pts[:, i]
            g += term
        return np.exp(g)

    return DensityOracle(p, fn)


def product_gaussian_density(means, variances) -> DensityOracle:
    """Product of independent univariate normals."""
    mu, var = _vector_and_array(means, variances)
    if mu.shape != var.shape or not np.all(var > 0):
        raise DomainError("means/variances must match, variances positive")
    precision = np.diag(1.0 / var)
    return gaussian_density(mu, precision)
