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
positive and finite: a zero, negative, infinite or nan value anywhere on a
stencil or grid raises ``DomainError`` (exit 1 at the command line).  Each
batch's shape is checked as it comes (``_sample``), and all the samples of
one estimate pass one gate (``_positive``) before any of them is read; a
density may overflow or divide by zero on the way, so its floating-point
warnings are silenced once per estimate while it is sampled.  A finite
difference estimate reads all its stencils off one cached geometry table
(``_stencil_table``) but still sends each stencil as its own batch, and
reads each stencil's sum with one BLAS dot (``ndarray.dot``, the kernel
``@`` calls too, at about half the dispatch cost).  A partition-sum or
local cumulant runs the moment-cumulant transform on a schedule built once
per k (``partitions._cumulants``).
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import cache
from itertools import product
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, _floats, _int, _positive_int
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
    return _parity(_validate(k))


def _parity(k) -> tuple[int, ...]:
    """``parity_alpha`` of a multi-index already read by ``_validate``."""
    return tuple(v % 2 for v in k)


def r_factor(eps: float, k: Sequence[int]) -> float:
    """Leading-order window scale: eps^{|k|_1^+} times 1/(k_i+1) per even
    and 1/(k_i+2) per odd component.  A scale that underflows to zero or
    overflows float range is refused: no ratio could be read by it."""
    (eps,) = _floats((eps,), "eps", positive=True)
    k = _validate(k)
    try:
        out = eps ** plus_norm(k)
    except OverflowError:
        out = math.inf
    for v in k:
        out /= (v + 1) if v % 2 == 0 else (v + 2)
    if not 0.0 < out < math.inf:
        raise DomainError(f"r(eps, k) is out of float range at eps={eps!r}")
    return out


def same_moment_class(u: Sequence[int], k: Sequence[int]) -> bool:
    """Componentwise parity equivalence: differential moments depend on k
    only through the odd/even pattern."""
    u, k = _validate(u), _validate(k)
    if len(u) != len(k):
        raise DomainError("multi-indices must have the same dimension")
    return _parity(u) == _parity(k)


# ---------------------------------------------------------------------------
# density samples and finite differences

def _sample(f: DensityOracle, pts) -> np.ndarray:
    """f on the rows of pts, one value per row."""
    vals = f.batch(pts)
    if vals.shape != (len(pts),):
        raise DomainError(f"density gave shape {vals.shape} for {len(pts)} "
                          "points")
    return vals


def _positive(vals) -> None:
    """The one sample gate: every estimator here is a ratio of density
    samples, so each one must be positive and finite; ``min`` also catches
    a nan."""
    if not vals.min() > 0:
        raise DomainError("non-positive density sample encountered")
    if not vals.max() < math.inf:
        raise DomainError("infinite density sample encountered")


@cache
def _stencil_table(n, every):
    """The geometry of the Richardson-extrapolated central tensor
    differences over n axes: for the one class marking all of them or, with
    ``every``, for each nonzero binary pattern on them in lexicographic
    order.  Read-only, shared by every estimate; returns (signs, mask,
    classes):

    - ``signs``: per class, its coarse rows (+-1 on its axes in ``product``
      order, 0 elsewhere) and then its fine rows (+-0.5), and last a zero
      row, the point xi itself; ``mask`` marks each row's axes;
    - ``classes``: per class, its axes, its weights (each sign row's
      product), and the row spans of its coarse and its fine stencil; the
      classes' spans, in order, run through the rows in order."""
    patterns = [alpha for alpha in product((0, 1), repeat=n)
                if any(alpha) and (every or all(alpha))]
    rows, classes = [], []
    for alpha in patterns:
        axes = [i for i, a in enumerate(alpha) if a]
        coarse = np.array(list(product((1.0, -1.0), repeat=len(axes))))
        spans = []
        for scale in (1.0, 0.5):
            spans.append((len(rows), len(rows) + len(coarse)))
            for signs in coarse:
                row = [0.0] * n
                for i, s in zip(axes, signs):
                    row[i] = scale * s
                rows.append(row)
        weights = coarse.prod(axis=1)
        weights.flags.writeable = False
        classes.append((axes, weights, *spans))
    signs = np.array(rows + [[0.0] * n])
    mask = signs != 0.0
    signs.flags.writeable = mask.flags.writeable = False
    return signs, mask, tuple(classes)


def _central_differences(f: DensityOracle, xi, step_scale, classes,
                         log=False) -> list[float]:
    """D^alpha f / f (or D^alpha log f with ``log``) at xi for each binary
    alpha in ``classes``: the central tensor difference over the axes alpha
    marks, Richardson-extrapolated once, (4 D(h/2) - D(h)) / 3.
    ``classes`` is one class, or the parity classes of every nu <= k in
    ``product`` order, which puts the odd ones in the order the
    moment-cumulant transform first asks for them.  The zero class is 1,
    and a log-derivative never needs f(xi).

    Every stencil is read off one ``_stencil_table``: its offsets are the
    table's signs times the steps, in one array operation, and all its
    points are xi plus them, in one more.  Each stencil is still sent to
    the density as its own batch, in the table's order, and f(xi) last:
    a density may round differently by batch length (the Gaussian's
    ``einsum`` does at p = 2), so merging batches would move the estimates
    in the last digits.  That waits for numeric goldens that hold across
    such rounding (see ROADMAP.md); then it is one call on this table.
    All samples pass one gate before any difference is read."""
    x = np.asarray(xi, dtype=float)
    axes = [i for i, marks in enumerate(zip(*classes)) if any(marks)]
    odd = sum(map(any, classes))
    signs, mask, table = _stencil_table(len(axes), odd > 1)
    step = [step_scale * max(1.0, abs(xi[i])) for i in axes]
    # +-h on a class's axes and -0.0 elsewhere: x + -0.0 is x bit for bit
    # (a -0.0 coordinate included), and no step off the class, even an
    # infinite one, touches the stencil.  (+-0.5) * h is (+-h) * 0.5 bit
    # for bit, so the fine offsets are the coarse ones halved.
    offsets = np.full(signs.shape, -0.0)
    np.multiply(signs, step, out=offsets, where=mask)
    if len(axes) == len(x):
        pts = x + offsets
    else:   # off the table's axes every point is xi
        pts = np.repeat(x[None, :], len(offsets), axis=0)
        pts[:, axes] += offsets
    with_xi = odd > 0 and not log
    vals = np.empty(len(pts) - 1 + with_xi)
    with np.errstate(all="ignore"):
        for _, _, *stencils in table:
            for a, b in stencils:
                vals[a:b] = _sample(f, pts[a:b])
        if with_xi:
            vals[-1:] = _sample(f, pts[-1:])
    if len(vals):
        _positive(vals)
    at_xi = float(vals[-1]) if with_xi else None
    if log:
        vals = np.log(vals)
    estimates = []
    for class_axes, weights, (a, b), (c, d) in table:
        h = [step[i] for i in class_axes]
        est = float(weights.dot(vals[a:b])) / math.prod(2.0 * v for v in h)
        fine = (float(weights.dot(vals[c:d]))
                / math.prod(2.0 * (v / 2) for v in h))
        est = (4.0 * fine - est) / 3.0
        estimates.append(est if log else est / at_xi)
    estimates = iter(estimates)
    return [next(estimates) if any(alpha) else 1.0 for alpha in classes]


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
                        step_scale=DEFAULT_STEP_SCALE) -> EstimateReport:
    """m^xi_k = D^alpha f / f with alpha the parity pattern of k.

    The step on axis i is step_scale * max(1, |xi_i|).  The default,
    ``DEFAULT_STEP_SCALE``, suits orders |alpha| up to 3.  At order 4 the
    difference divides by (2h)^4 and rounding can reach about 3e-3, as on
    a vanishing cumulant (see ``differential_cumulant``); there
    ``step_scale=1e-2`` brings it under 1e-6 for small coefficients."""
    xi, k = _point_and_index(f, xi, k, step_scale)
    alpha = _parity(k)
    (value,) = _central_differences(f, xi, step_scale, [alpha])
    return EstimateReport(value, "finite-difference", {
        "k": k, "alpha": alpha, "xi": xi,
        "step_scale": step_scale, "richardson": True})


def differential_cumulant(f: DensityOracle, xi, k, *, method="partition",
                          step_scale=DEFAULT_STEP_SCALE) -> EstimateReport:
    """kappa^xi_k, either from the differential moments by the
    moment-cumulant transform (the definition, any k) or as D^k log f,
    which is the cumulant only for a square-free k (every entry 0 or 1):
    ``method="logderiv"`` refuses any other k before it samples f.

    ``DEFAULT_STEP_SCALE`` suits orders |alpha| up to 3.  At order 4
    rounding dominates: a vanishing cumulant can read about 3e-3.  A step
    of 1e-2 for the partition sum, or 1e-1 for the log-derivative, brings
    it under 1e-6 for a density with small coefficients."""
    xi, k = _point_and_index(f, xi, k, step_scale)
    if not any(k):
        raise DomainError("empty multiset")
    alpha = _parity(k)
    if method == "partition":
        # differential moments depend on nu only through its parity, and
        # the nu <= k take every parity on k's support
        classes = list(product(*((0, 1) if v else (0,) for v in k)))
        ratio = dict(zip(classes, _central_differences(
            f, xi, step_scale, classes)))
        value = _cumulants(k, lambda nu: ratio[_parity(nu)])
        label = "partition-sum"
    elif method == "logderiv":
        if max(k) > 1:
            raise DomainError("the log-derivative needs a square-free k; "
                              "use method='partition'")
        (value,) = _central_differences(f, xi, step_scale, [alpha],
                                        log=True)
        label = "log-derivative"
    else:
        raise DomainError(f"unknown method {method!r}")
    return EstimateReport(value, label, {
        "k": k, "alpha": alpha, "xi": xi,
        "step_scale": step_scale, "richardson": True})


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
                   mc_samples, seed, cumulant=False):
    """Evaluate f once on the window's tensor Gauss-Legendre grid (or
    seeded Monte Carlo sample) and return the moment function
    nu -> (w . (x^nu f)) / (w . f), x the offset from the centre, with the
    report's label and metadata.  ``nodes``, ``mc_samples`` and ``seed``
    are read whichever method runs, and for a ``cumulant`` an empty
    multiset is refused, all before f is sampled.  x^nu is a product of
    power-table entries x_i ** nu_i taken left to right over the nonzero
    nu_i, the same float operations as a fresh monomial from ones: 1.0 * x
    and x ** 1 are x bit for bit, so the table reads x_i ** 1 as the offset
    column itself and holds each x_i ** e, 2 <= e <= k_i, once per
    estimate."""
    center, k = _point_and_index(f, window.center, k)
    if cumulant and not any(k):
        raise DomainError("empty multiset")
    nodes = _positive_int(nodes, "nodes")
    mc_samples = _positive_int(mc_samples, "mc_samples")
    if seed is not None:
        message = f"seed must be a non-negative integer, not {seed!r}"
        if (seed := _int(seed, message)) < 0:
            raise DomainError(message)
    if method == "quadrature":
        if len(center) > TENSOR_GRID_MAX_DIM:
            raise DomainError(
                f"tensor quadrature supports p <= {TENSOR_GRID_MAX_DIM}; "
                "use method='mc'")
        offsets, weights = _quadrature_grid(window, nodes)
        meta = {"nodes": nodes}
    elif method == "mc":
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
    with np.errstate(all="ignore"):
        vals = _sample(f, np.asarray(center) + offsets)
    _positive(vals)
    denom = float(weights @ vals)
    powers = [[None, offsets[:, i]] + [offsets[:, i] ** e
                                       for e in range(2, v + 1)]
              for i, v in enumerate(k)]

    def moment(nu):
        mono = None
        for i, e in enumerate(nu):
            if e:
                mono = powers[i][e] if mono is None else mono * powers[i][e]
        return float(weights @ (vals if mono is None else mono * vals)) / denom

    meta.update({"k": k, "eps": window.eps, "center": center,
                 "method": method})
    label = "tensor-quadrature" if method == "quadrature" else "monte-carlo"
    return moment, label, meta


def local_moment(f: DensityOracle, window: CubeWindow, k, *,
                 nodes=DEFAULT_NODES, method="quadrature",
                 mc_samples=200_000, seed=None) -> EstimateReport:
    """m^A_k: conditional moment of X - xi over the window, by
    tensor-product Gauss-Legendre quadrature, or by seeded Monte Carlo with
    ``method="mc"``; above dimension 4 quadrature is refused, so only
    ``method="mc"`` runs there."""
    moment, label, meta = _local_moments(f, window, k, nodes, method,
                                         mc_samples, seed)
    return EstimateReport(moment(meta["k"]), label, meta)


def local_cumulant(f: DensityOracle, window: CubeWindow, k, *,
                   nodes=DEFAULT_NODES, method="quadrature",
                   mc_samples=200_000, seed=None) -> EstimateReport:
    """kappa^A_k from the local moments by the moment-cumulant transform,
    all of them from one evaluation of f on the grid."""
    moment, label, meta = _local_moments(f, window, k, nodes, method,
                                         mc_samples, seed, cumulant=True)
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
                               nodes=DEFAULT_NODES) -> LimitProbeReport:
    """Evaluate kappa^A_k / r(eps, k) along a decreasing eps sequence and
    report whether it converges to the differential cumulant.  Convergence
    means monotone error decay over at least three levels with the final
    scaled value within 5% of the target.  ``nodes`` and every r(eps, k)
    are read before f is sampled, so a bad node count or an eps whose scale
    leaves float range is refused first."""
    xi, k = _point_and_index(f, xi, k)
    eps_values = _floats(eps_values, "eps values", positive=True)
    if len(eps_values) < 3 or any(b >= a for a, b in
                                  zip(eps_values, eps_values[1:])):
        raise DomainError("need at least three strictly decreasing eps")
    scales = [r_factor(eps, k) for eps in eps_values]
    nodes = _positive_int(nodes, "nodes")
    target = differential_cumulant(f, xi, k, method="partition").value
    scaled = []
    for eps, scale in zip(eps_values, scales):
        window = CubeWindow(xi, eps)
        kappa = local_cumulant(f, window, k, nodes=nodes).value
        scaled.append(kappa / scale)
    errors = tuple(abs(s - target) for s in scaled)
    atol = 1e-9 * max(1.0, abs(target))
    decaying = all(b < a or b < atol for a, b in zip(errors, errors[1:]))
    close = errors[-1] <= max(0.05 * abs(target), atol)
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
    # for short batches: factors[d][j] is the axis of term j's d-th factor,
    # or p (a row of ones) past its degree, since x * 1.0 is x bit for bit;
    # an empty sum is the one term 0.0, and every term has one row or more
    short = terms or [(0.0, [])]
    start = np.array([a for a, _ in short])[:, None]
    depth = max(len(axes) for _, axes in short) or 1
    factors = np.array([[axes[d] if d < len(axes) else p
                         for _, axes in short] for d in range(depth)],
                       dtype=np.intp)

    def fn(pts):
        # either way each term is a_s * x_i * x_j * ... left to right and
        # the terms are added in order, so both give the same bits
        if len(pts) > _MEC_SHORT_BATCH:
            g = np.zeros(pts.shape[0])
            for a, axes in terms:
                term = a
                for i in axes:
                    term = term * pts[:, i]
                g += term
            return np.exp(g)
        # a stencil: one gather of every factor row and one array operation
        # per factor depth rather than several per term, so its cost does
        # not grow with the terms.  The running sum starts at the first
        # term, not at zero as above: 0.0 + t differs from t only when t is
        # -0.0, that sign of a zero is all it can pass on to the sum, and
        # exp(-0.0) = exp(0.0) = 1.
        x = np.ones((p + 1, len(pts)))
        x[:p] = pts.T
        rows = x[factors]
        term = start * rows[0]
        for row in rows[1:]:
            term *= row
        return np.exp(np.add.accumulate(term)[-1])

    return DensityOracle(spec.p, fn)


def product_gaussian_density(means, variances) -> DensityOracle:
    """Product of independent univariate normals: the Gaussian with
    diagonal precision 1 / variance; a variance so small that its
    reciprocal overflows is refused."""
    var = _floats(variances, "variances", positive=True)
    if not hasattr(means, "__len__") or len(means) != len(var):
        raise DomainError("means and variances must have the same length")
    precision = [1.0 / v for v in var]
    if math.inf in precision:
        raise DomainError(f"variances {list(var)} have a reciprocal out of "
                          "float range")
    return gaussian_density(means, np.diag(precision))
