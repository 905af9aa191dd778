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
batch's shape is checked as it comes, and all the samples of one estimate
pass one gate (``_positive``) before any of them is read; a density may
overflow or divide by zero on the way, so its floating-point warnings are
silenced once per estimate while it is sampled.  Finite samples can still
have a difference or a sum out of float range: an ``EstimateReport`` whose
value is not finite is refused too.

Finite differences: everything an estimate reads that depends only on k
and the method (the parity classes, their axes, the stencils' signs and
mask, the batches, each class's weights and divisors, each nu's ratio) is
one cached plan (``_plan``), as ``partitions._schedule`` is for the
moment-cumulant transform.  A call builds its points, sends each stencil
as its own batch, gates the samples, reads each stencil's sum with one
BLAS dot (``ndarray.dot``, the kernel ``@`` calls too, at about half the
dispatch cost) and runs the transform.

Local moments: the quadrature window is a product grid, so its points are
written once, as p contiguous columns centre_i + eps * t_a, and freed
once sampled; each monomial x^nu is a broadcast product of the per-axis
powers of the node vector eps * t.  Monte Carlo runs the same moment loop
on its sampled offset columns.  A partition-sum or local cumulant runs
the moment-cumulant transform on a schedule built once per k
(``partitions._cumulants``).
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import cache
from itertools import product
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DomainError, _floats, _int, _positive_int
from .logdensity import GaussianSpec, MECSpec
from .partitions import (MAX_ENUMERATION_ORDER, _cumulants, _validate,
                         plus_norm)

DEFAULT_NODES = 16
DEFAULT_STEP_SCALE = 1e-3
TENSOR_GRID_MAX_DIM = 4
_MEC_SHORT_BATCH = 128  # longest batch an MEC density evaluates at once


@dataclass(frozen=True)
class DensityOracle:
    """Strictly positive density on the queried region.  ``fn`` maps an
    (n, p) array of points to an (n,) array of density values.

    Calling the oracle reads one point, a sequence of p reals (at p = 1 a
    number too), and ``batch`` reads an (n, p) array of them.  Both read
    the points as a float array, as ``np.asarray`` does, and check the
    shape of what ``fn`` gives, so points of another dimension or shape,
    points numpy cannot read as floats and values of the wrong shape are
    each refused with ``DomainError``."""
    p: int
    fn: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x) -> float:
        pts = _points(x, self.p, one=True)
        return float(_sample(self.fn, pts, (1,))[0])

    def batch(self, pts) -> np.ndarray:
        pts = _points(pts, self.p)
        return _sample(self.fn, pts, (len(pts),))


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
    """An estimate, the method that gave it and how.  A value that is not
    finite is refused: samples can all be finite while a difference or a
    sum of them leaves float range."""
    value: float
    method: str
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise DomainError(f"the {self.method} estimate is "
                              f"{self.value!r}: the density's differences "
                              "or sums leave float range")


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

def _points(x, p, one=False) -> np.ndarray:
    """x as a float (n, p) array of points, or with ``one`` as the (1, p)
    array of one point, which may come as a vector (or at p = 1 as a
    number); anything else is refused."""
    try:
        pts = np.asarray(x, dtype=float)
    except (TypeError, ValueError):
        pts = None
    if one and pts is not None:
        pts = np.atleast_2d(pts)
    if pts is None or pts.ndim != 2 or pts.shape[1] != p or \
            one and len(pts) != 1:
        what = f"one point of {p}" if one else f"an (n, {p}) array of"
        raise DomainError(f"a density of dimension {p} reads {what} real "
                          "coordinates")
    return pts


def _sample(fn, pts, shape) -> np.ndarray:
    """A density's ``fn`` on the rows of pts, a float (n, p) array, which
    must give one value per row: ``DensityOracle.batch`` less its reading
    of the points."""
    vals = np.asarray(fn(pts), dtype=float)
    if vals.shape != shape:
        raise DomainError(f"density gave shape {vals.shape} for {shape[0]} "
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


class _Plan(NamedTuple):
    """What a finite-difference estimate reads that depends only on k and
    the method, built once (see ``_plan``); its arrays are read-only.

    - ``axes``: the axes the stencils move along;
    - ``signs``: per parity class its coarse rows (+-1 on the class's axes
      in ``product`` order, 0 elsewhere) and then its fine rows (+-0.5),
      and last a zero row, the point xi itself; ``mask`` marks each row's
      axes;
    - ``batches``: per density batch, in the order sent, its row span and
      the shape its samples must have;
    - ``classes``: per class its weights (each sign row's product), the
      spans of its coarse and its fine stencil, and the index of its
      divisor;
    - ``products``: how to form the divisors prod(2 h_i) over each class's
      axes left to right, as ``math.prod`` would: entry j - 1 is (parent,
      position), and divisor j is divisor ``parent`` times the factor on
      ``axes[position]``; divisor 0 is the empty product 1.0, and every
      prefix of a class's axes has its own divisor;
    - ``log``: read D^alpha log f rather than D^alpha f / f;
    - ``slots``: for the partition sum, the index of each nonzero nu <= k
      in the list of ratios, whose entry 0 is the zero class's 1."""
    axes: tuple
    signs: np.ndarray
    mask: np.ndarray
    batches: tuple
    classes: tuple
    products: tuple
    log: bool
    slots: dict


@cache
def _plan(key, method):
    """The plan of ``method`` ("moment", "partition" or "logderiv") at
    ``key``: the parity pattern of k for a moment, k itself otherwise.  A
    moment or a log-derivative reads the one class marking all of key's
    support; the partition sum reads every nonzero binary pattern on it in
    ``product`` order, which puts the odd parity classes of the nu <= k in
    the order the moment-cumulant transform first asks for them, and with
    the zero class first, the rank of a pattern read as a binary number is
    its slot.  Callers read it through ``_plan_of``."""
    axes = tuple(i for i, v in enumerate(key) if v)
    patterns = [alpha for alpha in product((0, 1), repeat=len(axes))
                if any(alpha) and (method == "partition" or all(alpha))]
    rows, classes, divisors, products = [], [], {(): 0}, []
    for alpha in patterns:
        pos = tuple(i for i, a in enumerate(alpha) if a)
        for n in range(1, len(pos) + 1):
            if pos[:n] not in divisors:
                products.append((divisors[pos[:n - 1]], pos[n - 1]))
                divisors[pos[:n]] = len(products)
        coarse = np.array(list(product((1.0, -1.0), repeat=len(pos))))
        spans = []
        for scale in (1.0, 0.5):
            spans.append(slice(len(rows), len(rows) + len(coarse)))
            for signs in coarse:
                row = [0.0] * len(axes)
                for i, s in zip(pos, signs):
                    row[i] = scale * s
                rows.append(row)
        weights = coarse.prod(axis=1)
        weights.flags.writeable = False
        classes.append((weights, *spans, divisors[pos]))
    signs = np.array(rows + [[0.0] * len(axes)])
    mask = signs != 0.0
    signs.flags.writeable = mask.flags.writeable = False
    log = method == "logderiv"
    spans = [s for _, *stencils, _ in classes for s in stencils]
    if classes and not log:     # f(xi) last, once
        spans.append(slice(len(rows), len(rows) + 1))
    batches = tuple((s, (s.stop - s.start,)) for s in spans)
    slots = None
    if method == "partition":
        slots = {nu: int("".join(str(nu[i] % 2) for i in axes), 2)
                 for nu in product(*(range(v + 1) for v in key))}
    return _Plan(axes, signs, mask, batches, tuple(classes),
                 tuple(products), log, slots)


def _plan_of(key, method):
    """``_plan``, cached up to order ``MAX_ENUMERATION_ORDER`` as the
    transform's schedule is (``partitions._cumulants``): a partition plan
    holds one slot per nu <= k, and beyond that order it is built afresh
    on each call."""
    build = _plan if sum(key) <= MAX_ENUMERATION_ORDER else _plan.__wrapped__
    return build(key, method)


def _central_differences(f: DensityOracle, xi, step_scale,
                         plan: _Plan) -> list[float]:
    """The ratios D^alpha f / f (or D^alpha log f with ``plan.log``) at xi
    for the zero class, which is 1, and each of the plan's classes alpha:
    the central tensor difference over the axes alpha marks,
    Richardson-extrapolated once, (4 D(h/2) - D(h)) / 3.

    Everything but the points comes from the plan: the points' offsets are
    its signs times the steps, in one array operation, and the points are
    xi plus them, in one more.  Each stencil is still sent to the density
    as its own batch, in the plan's order, and f(xi) last (a
    log-derivative never needs it), because a density may round
    differently by batch length.  The Gaussian's ``einsum`` does: on
    numpy 2.4.6 it sums each row of a 1- or 2-point batch at p = 2 as
    (t00 + t01) + (t10 + t11), t_ij the form's term at (i, j), and every
    other row, at any p and batch length, as one running sum.  So merging
    batches would move only the estimates of p = 2 Gaussians with a
    non-diagonal precision, in their last digits.  That waits for numeric
    goldens that hold across such rounding (see ROADMAP.md); then it is
    one call on this plan.  The batches' samples are joined into one
    array, which passes one gate, all under the one ``errstate`` that
    silences the density's floating-point warnings, before any difference
    is read.  Each stencil's sum is one BLAS dot (``ndarray.dot``, the
    kernel ``@`` calls too, at about half the dispatch cost)."""
    if not plan.classes:
        return [1.0]
    x = np.asarray(xi, dtype=float)
    step = [step_scale * max(1.0, abs(xi[i])) for i in plan.axes]
    # +-h on a class's axes and -0.0 elsewhere: x + -0.0 is x bit for bit
    # (a -0.0 coordinate included), and no step off the class, even an
    # infinite one, touches the stencil.  (+-0.5) * h is (+-h) * 0.5 bit
    # for bit, so the fine offsets are the coarse ones halved.
    offsets = np.empty(plan.signs.shape)
    offsets.fill(-0.0)
    np.multiply(plan.signs, step, out=offsets, where=plan.mask)
    if len(plan.axes) == len(x):
        pts = x + offsets
    else:   # off the plan's axes every point is xi
        pts = np.repeat(x[None, :], len(offsets), axis=0)
        pts[:, plan.axes] += offsets
    with np.errstate(all="ignore"):
        vals = np.concatenate([_sample(f.fn, pts[span], shape)
                               for span, shape in plan.batches])
        _positive(vals)
    if plan.log:
        vals = np.log(vals)
    else:
        at_xi = float(vals[-1])
    two, half = [1.0], [1.0]
    for parent, i in plan.products:
        two.append(two[parent] * (2.0 * step[i]))
        half.append(half[parent] * (2.0 * (step[i] / 2)))
    if 0.0 in half:     # each is at most two's, so a zero shows here
        raise DomainError(f"step_scale={step_scale!r}: a product of "
                          "steps underflows to zero")
    ratios = [1.0]
    for weights, coarse, fine, d in plan.classes:
        est = float(weights.dot(vals[coarse])) / two[d]
        est_fine = float(weights.dot(vals[fine])) / half[d]
        est = (4.0 * est_fine - est) / 3.0
        ratios.append(est if plan.log else est / at_xi)
    return ratios


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
    value = _central_differences(f, xi, step_scale,
                                 _plan_of(alpha, "moment"))[-1]
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
        plan = _plan_of(k, method)
        ratios = _central_differences(f, xi, step_scale, plan)
        slots = plan.slots
        value = _cumulants(k, lambda nu: ratios[slots[nu]])
        label = "partition-sum"
    elif method == "logderiv":
        if max(k) > 1:
            raise DomainError("the log-derivative needs a square-free k; "
                              "use method='partition'")
        value = _central_differences(f, xi, step_scale,
                                     _plan_of(k, method))[-1]
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


def _tensor_weights(nodes, p):
    """The tensor Gauss-Legendre weights of the (nodes,)*p grid, flat in C
    order: each is w_i0 * w_i1 * ... multiplied left to right."""
    _, w = _gauss_legendre(nodes)
    weights = w
    for _ in range(p - 1):
        weights = np.multiply.outer(weights, w)
    return weights.ravel()


def _local_moments(f: DensityOracle, window: CubeWindow, k, nodes, method,
                   mc_samples, seed, cumulant=False):
    """Evaluate f once on the window's tensor Gauss-Legendre grid (or
    seeded Monte Carlo sample) and return the moment function
    nu -> (w . (x^nu f)) / (w . f), x the offset from the centre, with the
    report's label and metadata.  ``nodes``, ``mc_samples`` and ``seed``
    are read whichever method runs, and for a ``cumulant`` an empty
    multiset is refused, all before f is sampled.

    The quadrature grid is the product of p copies of the nodes eps * t,
    in C order over the axes (the last varies fastest).  Its points are
    written once, as the p contiguous columns centre_i + eps * t_a of one
    F-order (N, p) array, which f reads; they are freed once f has been
    sampled, and the weights are built only then.  The offsets are never
    laid out on the grid: axis i's are the node vector eps * t shaped to
    broadcast along axis i, and x^nu is the broadcast product of the
    per-axis powers x_i ** nu_i, taken left to right over the nonzero
    nu_i, which is the product of full offset columns bit for bit, and
    x^nu f is written into one buffer that every nu shares.  Monte Carlo
    runs the same loop on its sampled offset columns.  The same float
    operations as a fresh monomial from ones: 1.0 * x and x ** 1 are x bit
    for bit, so the power table reads x_i ** 1 as the offsets themselves
    and holds each x_i ** e, 2 <= e <= k_i, once per estimate."""
    center, k = _point_and_index(f, window.center, k)
    if cumulant and not any(k):
        raise DomainError("empty multiset")
    nodes = _positive_int(nodes, "nodes")
    mc_samples = _positive_int(mc_samples, "mc_samples")
    if seed is not None:
        message = f"seed must be a non-negative integer, not {seed!r}"
        if (seed := _int(seed, message)) < 0:
            raise DomainError(message)
    p = len(center)
    if method == "quadrature":
        if p > TENSOR_GRID_MAX_DIM:
            raise DomainError(
                f"tensor quadrature supports p <= {TENSOR_GRID_MAX_DIM}; "
                "use method='mc'")
        t, _ = _gauss_legendre(nodes)
        offs = window.eps * t
        pts = np.empty((nodes ** p, p), order="F")
        for i, c in enumerate(center):
            pts[:, i].reshape(nodes ** i, nodes, -1)[...] = (c + offs)[:, None]
        axes = [offs.reshape([nodes if j == i else 1 for j in range(p)])
                for i in range(p)]
        shape = (nodes,) * p
        meta = {"nodes": nodes}
    elif method == "mc":
        if seed is None:
            text = os.environ.get("HMI_SEED", "0")
            if not text.isdecimal():
                raise DomainError("HMI_SEED must be a non-negative integer, "
                                  f"not {text!r}")
            seed = int(text)
        offsets = np.random.default_rng(seed).uniform(
            -window.eps, window.eps, size=(mc_samples, p))
        pts = np.asarray(center) + offsets
        axes = list(offsets.T)
        shape = (mc_samples,)
        meta = {"samples": mc_samples, "seed": seed}
    else:
        raise DomainError(f"unknown method {method!r}")
    with np.errstate(all="ignore"):
        vals = _sample(f.fn, pts, (len(pts),))
        del pts
        _positive(vals)
        weights = (_tensor_weights(nodes, p) if method == "quadrature"
                   else np.ones(mc_samples))
        denom = float(weights @ vals)
    if not denom < math.inf:
        raise DomainError("the density's mass on the window leaves float "
                          "range")
    grid = vals.reshape(shape)
    powers = [[None, x] + [x ** e for e in range(2, v + 1)]
              for x, v in zip(axes, k)]
    weighed = np.empty(shape)   # x^nu f, one buffer for every nu

    def moment(nu):
        mono = None
        for i, e in enumerate(nu):
            if e:
                mono = powers[i][e] if mono is None else mono * powers[i][e]
        if mono is None:
            return float(weights @ vals) / denom
        np.multiply(mono, grid, out=weighed)
        return float(weights @ weighed.ravel()) / denom

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
    with np.errstate(all="ignore"):
        value = moment(meta["k"])
    return EstimateReport(value, label, meta)


def local_cumulant(f: DensityOracle, window: CubeWindow, k, *,
                   nodes=DEFAULT_NODES, method="quadrature",
                   mc_samples=200_000, seed=None) -> EstimateReport:
    """kappa^A_k from the local moments by the moment-cumulant transform,
    all of them from one evaluation of f on the grid."""
    moment, label, meta = _local_moments(f, window, k, nodes, method,
                                         mc_samples, seed, cumulant=True)
    with np.errstate(all="ignore"):
        value = _cumulants(meta["k"], moment)
    return EstimateReport(value, label, meta)


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
    leaves float range is refused first.  A scaled value, or its distance
    to the target, that leaves float range is refused too."""
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
        if not math.isfinite(scaled[-1] - target):
            raise DomainError("kappa^A_k / r(eps, k) or its distance to the "
                              f"target leaves float range at eps={eps!r}")
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
    covariance) matrix, compiled from its ``GaussianSpec``.

    The precision is scaled by -1/2 once, here, so a batch is one
    subtraction, one ``einsum`` of -1/2 (x - mu)' Lambda (x - mu), and
    ``+= lognorm`` and ``exp`` in place.  A power of two scales each of
    the form's terms and sums exactly, so every sample has the bits of
    exp(lognorm - 0.5 * quad), quad the unscaled form, with one exception:
    where quad's terms overflow to +inf and -inf, quad is nan and so is
    that sample, while the scaled terms, half the size, may not overflow
    and give exp of a huge negative number, 0.0.  The sample gate refuses
    both with the same message."""
    spec = GaussianSpec(mean, precision)
    mu = np.array(_floats(spec.mean, "the mean"))
    lam = np.array([_floats(row, "the precision") for row in spec.precision])
    sign, logdet = np.linalg.slogdet(lam)
    if sign <= 0:
        raise DomainError("precision must be positive definite")
    lognorm = 0.5 * (logdet - spec.p * math.log(2 * math.pi))
    half = -0.5 * lam

    def fn(pts):
        diff = pts - mu
        out = np.einsum("ni,ij,nj->n", diff, half, diff)
        del diff
        out += lognorm
        return np.exp(out, out=out)

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
                term = a    # drops the last term's array before the next
                for n, i in enumerate(axes):
                    if n:   # in place: one temporary per term
                        term *= pts[:, i]
                    else:
                        term = term * pts[:, i]
                g += term
            return np.exp(g, out=g)
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
