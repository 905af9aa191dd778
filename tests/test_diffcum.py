"""Numeric differential and local moments/cumulants against closed-form
Gaussian oracles, scaling-factor goldens, and the convergence probe; the
density builders against the exact specs they compile."""
import math
import random
import warnings
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from hmi import (DensityOracle, CubeWindow, parity_alpha, r_factor,
                 same_moment_class, differential_moment,
                 differential_cumulant, local_moment, local_cumulant,
                 limit_matches_differential, gaussian_density, mec_density,
                 product_gaussian_density, GaussianSpec, MECSpec,
                 gaussian_log_poly, mec_polynomial, mec_support_complex,
                 make_complex, stanley_reisner, differentiate,
                 is_hierarchical)
from hmi.diffcum import _stencil_table
from hmi.errors import DomainError
from hmi.partitions import _cumulants

from oracles import (cumulant_by_set_partitions, density_log_poly,
                     exact_derivative_ratio, exact_differential_cumulant)


RHO = 0.5
PREC = np.linalg.inv(np.array([[1.0, RHO], [RHO, 1.0]]))
STD_LOG = density_log_poly({"family": "gaussian", "mean": [0.0, 0.0],
                            "precision": PREC.tolist()})


def std_pair():
    return gaussian_density((0.0, 0.0), PREC)


# ---------------------------------------------------------------------------
# scaling factors and parity

def test_r_factor_golden():
    eps = 0.3
    assert r_factor(eps, (1, 2, 0)) == pytest.approx(eps ** 4 / 9)
    assert r_factor(eps, (1, 1)) == pytest.approx(eps ** 4 / 9)
    assert r_factor(eps, (2, 0)) == pytest.approx(eps ** 2 / 3)
    assert r_factor(eps, (0, 0)) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        r_factor(0.0, (1,))


@pytest.mark.parametrize("eps, k", [
    (1e-200, (1, 1)), (1e-100, (1, 1, 1, 1)), (1e10, (40,)),
    (1e300, (2,)), (1e-162, (2,))])
def test_r_factor_out_of_float_range_refused(eps, k):
    # r(1e-200, (1,1)) underflows to 0.0, which the limit probe would
    # divide by, and r(1e10, (40,)) overflows
    with pytest.raises(DomainError, match="float range"):
        r_factor(eps, k)


def test_limit_probe_refuses_a_scale_out_of_range_before_any_sample():
    sizes = []

    def fn(pts):
        sizes.append(len(pts))
        return np.ones(len(pts))

    with pytest.raises(DomainError, match="float range"):
        limit_matches_differential(DensityOracle(2, fn), (0.1, 0.2), (1, 1),
                                   [1e-100, 1e-150, 1e-200])
    assert sizes == []


def test_parity_and_moment_classes():
    assert parity_alpha((1, 2, 3)) == (1, 0, 1)
    assert same_moment_class((1, 2), (3, 0))
    assert not same_moment_class((1, 2), (2, 1))
    with pytest.raises(DomainError):
        same_moment_class((1,), (1, 2))


# ---------------------------------------------------------------------------
# differential moments/cumulants vs the closed-form Gaussian

POINTS = [(0.0, 0.0), (0.6, -0.4), (1.2, 0.8)]
BINARY = [(1, 0), (0, 1), (1, 1)]


@pytest.mark.parametrize("xi", POINTS)
@pytest.mark.parametrize("k", BINARY)
def test_differential_moment_matches_oracle(xi, k):
    f = std_pair()
    got = differential_moment(f, xi, k).value
    want = float(exact_derivative_ratio(STD_LOG, k, xi))
    assert got == pytest.approx(want, abs=1e-6)


@pytest.mark.parametrize("xi", POINTS)
@pytest.mark.parametrize("k", BINARY)
def test_differential_cumulant_matches_log_oracle(xi, k):
    f = std_pair()
    want = float(exact_differential_cumulant(STD_LOG, k, xi))
    part = differential_cumulant(f, xi, k, method="partition").value
    logd = differential_cumulant(f, xi, k, method="logderiv").value
    assert part == pytest.approx(want, abs=1e-6)
    assert logd == pytest.approx(want, abs=1e-6)


def test_parity_reduction_for_non_binary_k():
    # differential moments depend on k only through the parity pattern
    f = std_pair()
    xi = (0.3, -0.2)
    assert differential_moment(f, xi, (3, 0)).value == \
        pytest.approx(differential_moment(f, xi, (1, 0)).value)
    assert differential_moment(f, xi, (2, 2)).value == \
        pytest.approx(differential_moment(f, xi, (0, 0)).value)


def test_differential_cumulant_20_is_one_minus_score_squared():
    # kappa^xi_(2,0) = m_(2,0) - m_(1,0)^2 with m_(2,0) -> 1 by parity
    f = std_pair()
    xi = (0.6, -0.4)
    score = float(exact_derivative_ratio(STD_LOG, (1, 0), xi))
    got = differential_cumulant(f, xi, (2, 0), method="partition").value
    assert got == pytest.approx(1.0 - score ** 2, abs=1e-6)


def _seeded_density(rng, family, p):
    pick = rng.choice
    if family == "gaussian":
        lam = [[0.0] * p for _ in range(p)]
        for i in range(p):
            lam[i][i] = pick((1.5, 2.0, 3.25))
            for j in range(i):
                lam[i][j] = lam[j][i] = pick((-0.5, -0.3, 0.2, 0.7))
        return {"family": family, "precision": lam,
                "mean": [pick((-0.5, 0.0, 0.1, 1.25)) for _ in range(p)]}
    if family == "product":
        return {"family": family,
                "means": [pick((-0.5, 0.0, 0.1, 1.25)) for _ in range(p)],
                "variances": [pick((0.5, 1.0, 2.0, 3.0)) for _ in range(p)]}
    return {"family": family, "p": p,
            "coeffs": {"".join(map(str, s)): f"{rng.randint(-5, 5)}/"
                       f"{rng.randint(1, 4)}"
                       for s in product((0, 1), repeat=p) if any(s)}}


def _sympy_log_density(obj, xs):
    """log f up to its constant, from the JSON by sympy's own arithmetic;
    ``sp.Rational`` reads a float as the binary value it holds."""
    if obj["family"] == "mec":
        return sum(sp.Rational(a) * sp.Mul(*(x for x, c in zip(xs, key)
                                             if c == "1"))
                   for key, a in obj["coeffs"].items())
    if obj["family"] == "product":
        return -sum((x - sp.Rational(m)) ** 2 / (2 * sp.Rational(v))
                    for x, m, v in zip(xs, obj["means"], obj["variances"]))
    d = sp.Matrix([x - sp.Rational(m) for x, m in zip(xs, obj["mean"])])
    lam = sp.Matrix(obj["precision"]).applyfunc(sp.Rational)
    return -(d.T * lam * d)[0] / 2


@pytest.mark.parametrize("family", ["gaussian", "product", "mec"])
def test_exact_oracle_matches_sympy(family):
    # the CLI oracle's D^alpha f / f and kappa^xi_k against sympy's
    # derivatives of exp(g) and of g, exact, on seeded densities of each
    # family: at a binary k the cumulant is D^k log f
    rng = random.Random(f"oracle/{family}")
    for _ in range(3):
        p = rng.randint(2, 3)
        obj = _seeded_density(rng, family, p)
        xs = sp.symbols(f"x1:{p + 1}")
        g = _sympy_log_density(obj, xs)
        poly = density_log_poly(obj)
        xi = [rng.choice((-0.75, -0.5, 0.0, 0.25, 1.5)) for _ in range(p)]
        at = dict(zip(xs, map(sp.Rational, xi)))
        for alpha in product((0, 1), repeat=p):
            f, log = sp.exp(g), g
            for x in (x for x, a in zip(xs, alpha) if a):
                f, log = f.diff(x), log.diff(x)
            assert exact_derivative_ratio(poly, alpha, xi) == \
                Fraction(str((f / sp.exp(g)).subs(at)))
            if any(alpha):
                assert exact_differential_cumulant(poly, alpha, xi) == \
                    Fraction(str(log.subs(at)))


def _dominant_precision(rng, p):
    lam = [[0.0] * p for _ in range(p)]
    for i in range(p):
        for j in range(i):
            lam[i][j] = lam[j][i] = round(rng.uniform(-0.5, 0.5), 3)
    for i in range(p):
        lam[i][i] = 1.0 + sum(abs(v) for v in lam[i])
    return lam


@pytest.mark.parametrize("seed", range(6))
def test_logderiv_is_the_cumulant_only_at_square_free_k(seed):
    # D^k log f is the cumulant at a square-free k, where it must agree
    # with the partition sum; at any other k it is not, and the
    # log-derivative refuses before it samples the density
    rng = random.Random(seed)
    for p in (1, 2, 3):
        gauss = gaussian_density([rng.uniform(-1, 1) for _ in range(p)],
                                 _dominant_precision(rng, p))
        mec = mec_density({s: round(rng.uniform(-0.5, 0.5), 3)
                           for s in product((0, 1), repeat=p)
                           if any(s) and rng.random() < 0.7}, p)
        xi = tuple(round(rng.uniform(-1, 1), 3) for _ in range(p))
        for f in (gauss, mec):
            for k in product((0, 1), repeat=p):
                if any(k):
                    part = differential_cumulant(f, xi, k).value
                    logd = differential_cumulant(f, xi, k,
                                                 method="logderiv").value
                    assert abs(part - logd) <= 1e-6, (p, k)
    sizes = []

    def fn(pts):
        sizes.append(len(pts))
        return np.ones(len(pts))

    for k in [(2, 0), (3, 0), (2, 1), (1, 2, 0)]:
        f = DensityOracle(len(k), fn)
        with pytest.raises(DomainError, match="square-free"):
            differential_cumulant(f, (0.1,) * len(k), k, method="logderiv")
    assert sizes == []


def test_unknown_method_rejected():
    with pytest.raises(DomainError):
        differential_cumulant(std_pair(), (0, 0), (1, 1), method="bogus")


# ---------------------------------------------------------------------------
# local moments

def test_local_moment_golden_ratio():
    f = std_pair()
    rep = local_moment(f, CubeWindow((0.0, 0.0), 0.1), (1, 1))
    ratio = rep.value / r_factor(0.1, (1, 1))
    assert ratio == pytest.approx(2.0 / 3.0, rel=0.05)


def test_local_moment_flat_density_exact_constants():
    # a density that is constant on the window: local moments equal the
    # r-factors exactly (up to quadrature error)
    f = DensityOracle(2, lambda pts: np.ones(pts.shape[0]))
    w = CubeWindow((0.0, 0.0), 0.5)
    for k in [(2, 0), (0, 2), (2, 2), (1, 1), (4, 0)]:
        want = 1.0
        for v in k:
            want *= 0.5 ** v / (v + 1) if v % 2 == 0 else 0.0
        got = local_moment(f, w, k).value
        assert got == pytest.approx(want, abs=1e-12)


def test_local_moment_mc_agrees_with_quadrature():
    f = std_pair()
    w = CubeWindow((0.1, -0.2), 0.3)
    quad = local_moment(f, w, (2, 0)).value
    mc = local_moment(f, w, (2, 0), method="mc", seed=42).value
    assert mc == pytest.approx(quad, rel=0.02)
    # seeded: identical on rerun
    mc2 = local_moment(f, w, (2, 0), method="mc", seed=42).value
    assert mc == mc2


def test_local_moment_env_seed(monkeypatch):
    f = std_pair()
    w = CubeWindow((0.0, 0.0), 0.2)
    monkeypatch.setenv("HMI_SEED", "7")
    a = local_moment(f, w, (1, 1), method="mc", mc_samples=5000).value
    b = local_moment(f, w, (1, 1), method="mc", mc_samples=5000).value
    assert a == b
    monkeypatch.setenv("HMI_SEED", "8")
    c = local_moment(f, w, (1, 1), method="mc", mc_samples=5000).value
    assert a != c
    assert local_moment(f, w, (1, 1), method="mc",
                        mc_samples=50).metadata["seed"] == 8
    for bad in ("abc", "-1", ""):
        monkeypatch.setenv("HMI_SEED", bad)
        with pytest.raises(DomainError, match="HMI_SEED"):
            local_moment(f, w, (1, 1), method="mc", mc_samples=50)


def fresh_monomial_moments(f, window, options):
    """The local moment function with every x^nu rebuilt from ones, one
    axis at a time.  The tensor grid is built here on its own, as an (N, p)
    C-order array from ``meshgrid`` with each weight multiplied in axis by
    axis, so a change to the estimators' grid layout or to the array the
    density reads shows as a changed bit."""
    p, eps = len(window.center), window.eps
    if "nodes" in options:
        t, w = np.polynomial.legendre.leggauss(options["nodes"])
        grids = np.meshgrid(*[eps * t] * p, indexing="ij")
        offsets = np.stack([g.ravel() for g in grids], axis=1)
        weights = np.ones(len(offsets))
        for g in np.meshgrid(*[w] * p, indexing="ij"):
            weights *= g.ravel()
    else:
        offsets = np.random.default_rng(options["seed"]).uniform(
            -eps, eps, size=(options["mc_samples"], p))
        weights = np.ones(options["mc_samples"])
    vals = f.batch(np.asarray(window.center) + offsets)
    denom = float(weights @ vals)

    def moment(nu):
        mono = np.ones(len(offsets))
        for i, ki in enumerate(nu):
            if ki:
                mono *= offsets[:, i] ** ki
        return float(weights @ (mono * vals)) / denom
    return moment


PRECISION4 = ((2.0, 0.3, 0.1, -0.2), (0.3, 1.5, 0.2, 0.1),
              (0.1, 0.2, 1.0, 0.3), (-0.2, 0.1, 0.3, 1.8))
MEC4 = {(1, 1, 0, 0): -0.5, (0, 1, 1, 0): 0.4, (1, 1, 1, 0): 0.3,
        (1, 0, 0, 0): 0.2, (0, 0, 1, 1): -0.3, (1, 0, 0, 1): 0.25}


def local_density(kind, p):
    """The p-variate corner of a fixed Gaussian or MEC density."""
    if kind == "gaussian":
        return gaussian_density((0.2, -0.1, 0.0, 0.1)[:p],
                                [row[:p] for row in PRECISION4[:p]])
    return mec_density({s[:p]: a for s, a in MEC4.items()
                        if not any(s[p:])}, p)


@pytest.mark.parametrize("kind", ["gaussian", "mec"])
@pytest.mark.parametrize("options", [
    {"nodes": 6}, {"method": "mc", "mc_samples": 3000, "seed": 5}],
    ids=["quadrature", "mc"])
def test_local_moments_bit_identical_to_fresh_monomials(kind, options):
    # the estimators read each monomial off a per-axis power table and lay
    # the grid out column by column; every value must still equal the one
    # built from scratch on a C-order grid, to the last bit
    for p in range(1, 5):
        f = local_density(kind, p)
        w = CubeWindow((0.1, -0.2, 0.3, -0.15)[:p], 0.4)
        moment = fresh_monomial_moments(f, w, options)
        for k in product(range(4 if p < 4 else 3), repeat=p):
            assert local_moment(f, w, k, **options).value == moment(k)
            if any(k):
                assert (local_cumulant(f, w, k, **options).value
                        == _cumulants(k, moment))


def test_local_cumulant_refuses_empty_multiset_before_any_sample():
    # the refusal comes before the 65,536 grid points are sampled; the
    # local moment at k = 0 is m_0 = 1 and still samples the grid
    sizes = []

    def fn(pts):
        sizes.append(len(pts))
        return np.ones(len(pts))

    f, w = DensityOracle(4, fn), CubeWindow((0.0,) * 4, 0.1)
    for options in ({}, {"method": "mc", "mc_samples": 100}):
        with pytest.raises(DomainError, match="empty multiset"):
            local_cumulant(f, w, (0, 0, 0, 0), **options)
    assert sizes == []
    assert local_moment(f, w, (0, 0, 0, 0)).value == 1.0
    assert sizes == [16 ** 4]


def test_local_cumulant_centered_window():
    # kappa^A_(1,1) = m_(1,1) - m_(1,0) m_(0,1); at the symmetric origin the
    # odd moments are tiny, so the cumulant is close to the moment
    f = std_pair()
    w = CubeWindow((0.0, 0.0), 0.1)
    kappa = local_cumulant(f, w, (1, 1)).value
    m11 = local_moment(f, w, (1, 1)).value
    assert kappa == pytest.approx(m11, rel=1e-3)


@pytest.mark.parametrize("center, k", [
    ((0.3, -0.2), (2, 1)), ((0.2, 0.1, -0.3), (1, 2, 1))])
def test_local_cumulant_evaluates_density_once(center, k):
    p = len(center)
    base = gaussian_density((0.0,) * p, np.eye(p) + 0.3)
    batches = []

    def counted(pts):
        batches.append(len(pts))
        return base.batch(pts)

    w = CubeWindow(center, 0.4)
    got = local_cumulant(DensityOracle(p, counted), w, k, nodes=8).value
    assert batches == [8 ** p]
    want = cumulant_by_set_partitions(
        k, lambda nu: local_moment(base, w, nu, nodes=8).value)
    assert got == pytest.approx(want, rel=1e-12)


def stencil_points(xi, axes, h):
    """The central-difference stencil built point by point: xi with +-h_i
    added on each axis i of alpha, one row per sign row in ``product``
    order, every other coordinate copied from xi."""
    rows = []
    for signs in product((1.0, -1.0), repeat=len(axes)):
        row = list(xi)
        for s, i, v in zip(signs, axes, h):
            row[i] = xi[i] + s * v
        rows.append(row)
    return np.array(rows)


def expected_batches(xi, alphas, step_scale, log):
    """The batches the finite differences send for the parity classes
    alphas, in the order they are first asked for: per class a coarse
    stencil, then the half-step one, and last, for a ratio D^alpha f / f
    with an odd class, f(xi) once; a log-derivative never asks for it."""
    batches = []
    for alpha in alphas:
        axes = [i for i, a in enumerate(alpha) if a]
        if axes:
            h = [step_scale * max(1.0, abs(xi[i])) for i in axes]
            batches.append(stencil_points(xi, axes, h))
            batches.append(stencil_points(xi, axes, [v / 2 for v in h]))
    if batches and not log:
        batches.append(np.array([xi]))
    return batches


def first_parity_classes(k):
    """The parity classes of the nonzero nu <= k in the order the
    moment-cumulant transform asks for them: ``product`` order."""
    order = []
    for nu in product(*(range(v + 1) for v in k)):
        alpha = parity_alpha(nu)
        if any(nu) and alpha not in order:
            order.append(alpha)
    return order


@pytest.mark.parametrize("xi, k, step_scale", [
    ((-0.0,), (1,), 1e-3), ((0.7,), (2,), 1e-3), ((-1.4,), (3,), 1e-2),
    ((0.6, -0.0), (1, 1), 1e-3), ((2.5, 0.3), (2, 1), 1e-3),
    ((-0.0, 1.3, -2.5), (1, 1, 1), 1e-3), ((0.4, -0.0, 0.2), (2, 1, 3), 1e-3),
    ((0.2, -0.0, 1.5, -0.4), (1, 1, 1, 1), 1e-2),
    ((-0.3, 0.1, -0.0, 0.9), (1, 2, 0, 1), 1e-3),
    # the step on axis 0 overflows to inf: off alpha it must leave 1e308 as
    # it is, on alpha it puts +-inf on the stencil
    ((1e308, 0.5), (0, 1), 2.0), ((1e308, -0.0), (1, 1), 2.0)])
@pytest.mark.parametrize("log", [True, False])
def test_stencil_points_pinned(xi, k, step_scale, log):
    # every batch the finite differences send to the density, bit for bit
    # and in order, against stencils built point by point: for the ratios
    # (the moment and the partition sum) or for the log-derivative, which
    # refuses a k that is not square-free before any sample
    p = len(xi)
    batches = []

    def counted(pts):
        batches.append(np.array(pts))
        return np.exp(np.tanh(pts) @ np.linspace(0.5, -0.5, p))

    f = DensityOracle(p, counted)
    alpha = parity_alpha(k)
    if log:
        calls = [(lambda: differential_cumulant(
            f, xi, k, method="logderiv", step_scale=step_scale), [alpha])]
    else:
        calls = [
            (lambda: differential_moment(f, xi, k, step_scale=step_scale),
             [alpha]),
            (lambda: differential_cumulant(f, xi, k, step_scale=step_scale),
             first_parity_classes(k))]
    for call, alphas in calls:
        batches.clear()
        if log and max(k) > 1:
            with pytest.raises(DomainError, match="square-free"):
                call()
            assert batches == []
            continue
        call()
        want = expected_batches(xi, alphas, step_scale, log)
        assert [b.shape for b in batches] == [w.shape for w in want]
        for got, w in zip(batches, want):
            assert got.tobytes() == w.tobytes()


@pytest.mark.parametrize("xi, k, classes", [
    ((0.3, -0.2, 0.1), (1, 1, 1), 7), ((0.3, -0.2), (2, 1), 3)])
def test_partition_cumulant_samples_density_at_xi_once(xi, k, classes):
    # each odd parity class of the nu <= k is estimated once, by a coarse
    # and a fine stencil, and all share one sample of f(xi), the last
    # batch: for (1,1,1) that is 7 * 2 + 1 = 15 batches
    p = len(xi)
    base = gaussian_density((0.0,) * p, np.eye(p) + 0.3)
    batches = []

    def counted(pts):
        batches.append(np.array(pts))
        return base.batch(pts)

    got = differential_cumulant(DensityOracle(p, counted), xi, k).value
    assert len(batches) == 2 * classes + 1
    assert sum(len(b) == 1 and tuple(b[0]) == xi for b in batches) == 1
    assert tuple(batches[-1][0]) == xi
    want = cumulant_by_set_partitions(
        k, lambda nu: differential_moment(base, xi, nu).value)
    assert got == pytest.approx(want, rel=1e-12)


def reference_difference(f, xi, alpha, step_scale, log):
    """D^alpha f / f (D^alpha log f with ``log``, alpha nonzero) at xi,
    built point by point: one batch per stencil from ``stencil_points``,
    each sign row's product as its weight, the divisor prod(2 h_i), and one
    Richardson step (4 D(h/2) - D(h)) / 3."""
    axes = [i for i, a in enumerate(alpha) if a]
    if not axes:
        return 1.0
    weights = np.array([math.prod(s)
                        for s in product((1.0, -1.0), repeat=len(axes))])

    def difference(h):
        vals = f.batch(stencil_points(xi, axes, h))
        if log:
            vals = np.log(vals)
        return float(weights @ vals) / math.prod(2.0 * v for v in h)

    h = [step_scale * max(1.0, abs(xi[i])) for i in axes]
    est = (4.0 * difference([v / 2 for v in h]) - difference(h)) / 3.0
    return est if log else est / float(f.batch(np.array([xi]))[0])


def _spd(p, seed):
    a = np.random.default_rng(seed).uniform(-1, 1, (p, p))
    m = a @ a.T + p * np.eye(p)
    return (m + m.T) / 2


BIT_CASES = [
    (gaussian_density((0.3,), [[1.5]]), (-0.7,), [(1,), (2,), (3,)]),
    (gaussian_density((0.1, -0.4), _spd(2, 1)), (0.6, -0.0),
     [(1, 1), (0, 1), (2, 1), (3, 2)]),
    (gaussian_density((0.2, 0.0, -0.5), _spd(3, 2)), (1.3, -0.2, 0.4),
     [(1, 1, 1), (1, 0, 1), (2, 1, 3), (0, 2, 0)]),
    (gaussian_density((0.0, 0.1, 0.2, 0.3), _spd(4, 3)),
     (0.2, -0.0, 1.5, -0.4), [(1, 1, 1, 1), (1, 2, 0, 1), (0, 0, 1, 1)]),
    (mec_density({(1, 1, 0): 0.3, (0, 1, 1): -0.2, (1, 0, 0): 0.1,
                  (1, 0, 1): 0.05}, 3), (0.3, -0.4, 0.5),
     [(1, 1, 1), (2, 0, 1), (3, 1, 0)]),
    (product_gaussian_density((0.5, -1.0), (2.0, 0.5)), (-2.5, 0.3),
     [(1, 1), (2, 3), (1, 0)])]


@pytest.mark.parametrize("f, xi, ks", BIT_CASES,
                         ids=["gauss1", "gauss2", "gauss3", "gauss4", "mec3",
                              "product2"])
@pytest.mark.parametrize("log", [True, False])
def test_estimates_equal_point_by_point_reference(f, xi, ks, log):
    # every estimate is read off the stencil table bit for bit as the
    # point-by-point central difference gives it: the ratios (the moment
    # and the partition sum) or the log-derivative, which refuses a k that
    # is not square-free
    for step_scale in (1e-3, 1e-2):
        options = {"step_scale": step_scale}
        for k in ks:
            if log and max(k) > 1:
                with pytest.raises(DomainError, match="square-free"):
                    differential_cumulant(f, xi, k, method="logderiv",
                                          **options)
            elif log:
                assert differential_cumulant(f, xi, k, method="logderiv",
                                             **options).value == \
                    reference_difference(f, xi, k, step_scale, True)
            else:
                ratio = {nu: reference_difference(f, xi, parity_alpha(nu),
                                                  step_scale, False)
                         for nu in product(*(range(v + 1) for v in k))}
                assert differential_moment(f, xi, k, **options).value == \
                    ratio[k]
                partition = differential_cumulant(f, xi, k, **options).value
                assert partition == _cumulants(k, ratio.__getitem__)
                assert partition == _cumulants(
                    k, lambda nu: differential_moment(f, xi, nu,
                                                      **options).value)


@pytest.mark.parametrize("bad", [-1.0, 0.0, np.nan, np.inf])
def test_bad_sample_in_last_fine_stencil_rejected(bad):
    # k = (1,1,1) reads seven classes: 14 stencils in table order, the
    # last one the fine stencil of the class (1,1,1), and then f(xi); the
    # stencil's last point must still be gated, an infinite one too
    base = gaussian_density((0.0,) * 3, np.eye(3) + 0.3)
    batches = []

    def spoiled(pts):
        batches.append(len(pts))
        vals = base.batch(pts)
        if len(batches) == 14:
            vals[-1] = bad
        return vals

    match = "infinite" if bad == np.inf else "non-positive"
    with pytest.raises(DomainError, match=match):
        differential_cumulant(DensityOracle(3, spoiled), (0.3, -0.2, 0.1),
                              (1, 1, 1))
    assert batches == [2, 2, 2, 2, 4, 4, 2, 2, 4, 4, 4, 4, 8, 8, 1]


def test_stencil_table_is_read_only_and_shared():
    f = gaussian_density((0.0,) * 3, np.eye(3) + 0.3)
    differential_cumulant(f, (0.3, -0.2, 0.1), (1, 1, 1))
    table = _stencil_table(3, True)
    before = _stencil_table.cache_info()
    differential_cumulant(f, (1.5, 0.4, -2.0), (1, 1, 1), step_scale=1e-2)
    after = _stencil_table.cache_info()
    assert after.currsize == before.currsize and after.hits > before.hits
    assert _stencil_table(3, True) is table
    signs, mask, classes = table
    for array in (signs, mask, *(weights for _, weights, *_ in classes)):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_stencil_sum_dot_equals_matmul(n):
    # each stencil sum is read with weights.dot, the BLAS dot that
    # weights @ vals calls as well; a numpy that splits the two kernels
    # fails here rather than in the numeric goldens
    ((_, weights, *_),) = _stencil_table(n, False)[2]
    assert len(weights) == 2 ** n
    rng = np.random.default_rng(n)
    for spread in (1.0, 1e-6):
        for _ in range(500):
            vals = 1.0 + spread * rng.uniform(-0.9, 0.9, 3 * len(weights))
            a = int(rng.integers(0, 2 * len(weights) + 1))
            v = vals[a:a + len(weights)]
            assert float(weights.dot(v)) == float(weights @ v)


def test_dimension_and_method_validation():
    f = std_pair()
    with pytest.raises(DomainError):
        local_moment(f, CubeWindow((0.0,), 0.1), (1,))
    for k, xi in [((1,), (0.0, 0.0)), ((1, 1, 1), (0.0, 0.0)),
                  ((1,), (0.0,))]:
        with pytest.raises(DomainError, match="dimension"):
            differential_moment(f, xi, k)
        with pytest.raises(DomainError, match="dimension"):
            differential_cumulant(f, xi, k)
    w = CubeWindow((0.0, 0.0), 0.1)
    for kwargs in [{"nodes": 0}, {"nodes": 2.5},
                   {"method": "mc", "mc_samples": 0}]:
        with pytest.raises(DomainError, match="positive integer"):
            local_moment(f, w, (1, 1), **kwargs)
        with pytest.raises(DomainError, match="positive integer"):
            local_cumulant(f, w, (1, 1), **kwargs)
    with pytest.raises(DomainError):
        local_moment(f, CubeWindow((0.0, 0.0), 0.1), (1, 1),
                     method="bogus")
    with pytest.raises(DomainError):
        CubeWindow((0.0, 0.0), 0.0)
    f5 = product_gaussian_density([0.0] * 5, [1.0] * 5)
    with pytest.raises(DomainError, match="mc"):
        local_moment(f5, CubeWindow((0.0,) * 5, 0.1), (1,) * 5)


def test_nan_half_width_rejected():
    with pytest.raises(DomainError, match="half-width"):
        CubeWindow((0.0, 0.0), float("nan"))


def test_empty_multiset_refused_before_any_sample():
    # the log-derivative used to return log f(xi) for k = 0
    sizes = []

    def fn(pts):
        sizes.append(len(pts))
        return np.ones(len(pts))

    for method in ("partition", "logderiv"):
        with pytest.raises(DomainError, match="empty multiset"):
            differential_cumulant(DensityOracle(2, fn), (0.0, 0.0), (0, 0),
                                  method=method)
    assert sizes == []


@pytest.mark.parametrize("bad", [float("inf"), float("nan")])
def test_non_finite_point_rejected(bad):
    # inf - inf on the stencil would warn before the sample gate fired
    f, xi = std_pair(), (0.0, bad)
    with pytest.raises(DomainError, match="finite"):
        differential_moment(f, xi, (1, 1))
    for method in ("partition", "logderiv"):
        with pytest.raises(DomainError, match="finite"):
            differential_cumulant(f, xi, (1, 1), method=method)
    with pytest.raises(DomainError, match="finite"):
        local_cumulant(f, CubeWindow(xi, 0.1), (1, 1))


@pytest.mark.parametrize("call, match", [
    (lambda f: differential_moment(f, (0.0, 0.0), (-1, 1)), "multi-index"),
    (lambda f: differential_moment(f, (0.0, 0.0), (1.5, 1)), "multi-index"),
    (lambda f: differential_cumulant(f, (0.0, 0.0), (-1, 1),
                                     method="logderiv"), "multi-index"),
    (lambda f: differential_cumulant(f, (0.0, 0.0), (1.5, 1)),
     "multi-index"),
    (lambda f: local_moment(f, CubeWindow((0.0, 0.0), 0.1), (-1, 1)),
     "multi-index"),
    (lambda f: differential_moment(f, ("a", 0.0), (1, 1)), "point xi"),
    (lambda f: differential_cumulant(f, (None, 0.0), (1, 1)), "point xi"),
    (lambda f: differential_moment(f, 0.0, (1, 1)), "point xi"),
    (lambda f: differential_moment(f, (True, 0.0), (1, 1)), "point xi"),
    (lambda f: CubeWindow(("0", 0.0), 0.1), "centre"),
    (lambda f: CubeWindow((0.0, 0.0), "0.1"), "half-width"),
    (lambda f: CubeWindow((0.0, 0.0), float("inf")), "half-width"),
    (lambda f: limit_matches_differential(f, (0.0, 0.0), (1, 1),
                                          [0.4, "x", 0.1]), "eps values"),
    (lambda f: limit_matches_differential(f, (0.0, 0.0), (1, 1), 0.4),
     "eps values"),
    (lambda f: differential_moment(f, (0.0, 0.0), (1, 1), step_scale=0),
     "step_scale"),
    (lambda f: differential_cumulant(f, (0.0, 0.0), (1, 1),
                                     step_scale=float("nan")), "step_scale"),
    (lambda f: differential_cumulant(f, (0.0, 0.0), (1, 1),
                                     method="logderiv", step_scale=-1e-3),
     "step_scale"),
    (lambda f: local_moment(f, CubeWindow((0.0, 0.0), 0.1), (1, 1),
                            nodes=True), "nodes"),
    (lambda f: local_cumulant(f, CubeWindow((0.0, 0.0), 0.1), (1, 1),
                              nodes="16"), "nodes"),
    (lambda f: local_moment(f, CubeWindow((0.0, 0.0), 0.1), (1, 1),
                            method="mc", mc_samples=True), "mc_samples"),
    (lambda f: local_cumulant(f, CubeWindow((0.0, 0.0), 0.1), (1, 1),
                              method="mc", mc_samples=100.0), "mc_samples"),
    (lambda f: local_moment(f, CubeWindow((0.0, 0.0), 0.1), (1, 1),
                            method="mc", seed=-1), "seed"),
    (lambda f: local_moment(f, CubeWindow((0.0, 0.0), 0.1), (1, 1),
                            method="mc", seed=1.5), "seed"),
    (lambda f: local_cumulant(f, CubeWindow((0.0, 0.0), 0.1), (1, 1),
                              method="mc", seed="x"), "seed"),
    (lambda f: local_cumulant(f, CubeWindow((0.0, 0.0), 0.1), (1, 1),
                              method="mc", seed=True), "seed"),
    (lambda f: local_moment(f, CubeWindow((0.0, 0.0), 0.1), (1, 1),
                            nodes=4, mc_samples=-5), "mc_samples"),
    (lambda f: local_moment(f, CubeWindow((0.0, 0.0), 0.1), (1, 1),
                            seed="x"), "seed"),
    (lambda f: local_moment(f, CubeWindow((0.0, 0.0), 0.1), (1, 1),
                            method="mc", nodes="abc"), "nodes"),
    (lambda f: limit_matches_differential(f, (0.1, 0.2), (1, 1),
                                          (0.4, 0.2, 0.1), nodes=0), "nodes"),
    (lambda f: parity_alpha((0.5, -1, True)), "multi-index"),
    (lambda f: parity_alpha(3), "multi-index"),
    (lambda f: same_moment_class(5, 1), "multi-index"),
    (lambda f: same_moment_class((1, 2), (1.5, -2)), "multi-index"),
], ids=["moment-k-negative", "moment-k-float", "logderiv-k-negative",
        "partition-k-float", "local-k-negative", "xi-string", "xi-none",
        "xi-scalar", "xi-bool", "centre-string", "eps-string", "eps-inf",
        "eps-values-string", "eps-values-scalar", "step-zero", "step-nan",
        "step-negative", "nodes-bool", "nodes-string", "mc-samples-bool",
        "mc-samples-float", "seed-negative", "seed-float", "seed-string",
        "seed-bool", "quadrature-mc-samples-negative",
        "quadrature-seed-string", "mc-nodes-string", "limit-nodes-zero",
        "parity-entries", "parity-scalar",
        "class-scalars", "class-entries"])
def test_bad_estimator_arguments_rejected(call, match):
    # each used to be read silently (k = (-1, 1) as (1, 1), an infinite
    # half-width, an argument of the method not chosen), to be read after
    # the density was sampled, or to end in a TypeError, ValueError or
    # ZeroDivisionError; each is refused before any batch is drawn
    base, batches = std_pair(), []

    def counted(pts):
        batches.append(len(pts))
        return base.batch(pts)

    with pytest.raises(DomainError, match=match):
        call(DensityOracle(2, counted))
    assert batches == []


@pytest.mark.parametrize("fn", [
    lambda pts: 1.0, lambda pts: np.ones((len(pts), 1)),
    lambda pts: np.ones(len(pts) + 1), lambda pts: np.ones(0)],
    ids=["scalar", "column", "one-too-many", "empty"])
def test_density_of_wrong_shape_rejected(fn):
    # each used to end in a numpy ValueError or TypeError, or to be read
    f = DensityOracle(2, fn)
    with pytest.raises(DomainError, match="shape"):
        differential_cumulant(f, (0.0, 0.0), (1, 1))
    with pytest.raises(DomainError, match="shape"):
        local_cumulant(f, CubeWindow((0.0, 0.0), 0.1), (1, 1), nodes=2)


def test_non_positive_density_rejected():
    f = DensityOracle(1, lambda pts: pts[:, 0])    # negative left of 0
    with pytest.raises(DomainError, match="non-positive"):
        local_moment(f, CubeWindow((0.0,), 0.5), (1,))
    with pytest.raises(DomainError, match="non-positive"):
        differential_cumulant(f, (0.0,), (1,), method="logderiv")
    # NaN passes a `<= 0` test, so a NaN density must be caught as well
    nan = DensityOracle(1, lambda pts: np.full(len(pts), np.nan))
    with pytest.raises(DomainError, match="non-positive"):
        local_moment(nan, CubeWindow((0.0,), 0.5), (1,))
    with pytest.raises(DomainError, match="non-positive"):
        local_cumulant(nan, CubeWindow((0.0,), 0.5), (2,))
    for method in ("partition", "logderiv"):
        with pytest.raises(DomainError, match="non-positive"):
            differential_cumulant(nan, (0.0,), (1,), method=method)
    with pytest.raises(DomainError, match="non-positive"):
        differential_moment(nan, (0.0,), (1,))
    # positive at xi, but negative (or nan) at one point of the stencil
    # xi -+ h, h = 1e-3: the finite differences must not read it
    stencil_negative = (f, (0.0005,))
    stencil_nan = (DensityOracle(1, lambda pts: np.where(
        pts[:, 0] > -1e-4, 1.0 + pts[:, 0], np.nan)), (0.0,))
    for g, xi in (stencil_negative, stencil_nan):
        assert g.batch(np.array([xi]))[0] > 0
        with pytest.raises(DomainError, match="non-positive"):
            differential_moment(g, xi, (1,))
        for method in ("partition", "logderiv"):
            with pytest.raises(DomainError, match="non-positive"):
                differential_cumulant(g, xi, (1,), method=method)


def test_infinite_density_rejected():
    # +inf passes a `> 0` test, and a ratio of infinities is nan: an
    # all-inf density, one infinite point of a stencil (xi + h, h = 1e-3,
    # f(xi) finite) and one infinite node of the grid are each refused by
    # every estimator
    everywhere = DensityOracle(1, lambda pts: np.full(len(pts), np.inf))
    stencil = DensityOracle(1, lambda pts: np.where(
        pts[:, 0] > 5e-4, np.inf, 1.0 + pts[:, 0]))
    grid = DensityOracle(1, lambda pts: np.where(
        pts[:, 0] == pts[:, 0].max(), np.inf, 1.0 + pts[:, 0]))
    assert stencil(0.0) == 1.0
    window = CubeWindow((0.0,), 0.5)
    for f in (everywhere, stencil):
        with pytest.raises(DomainError, match="infinite"):
            differential_moment(f, (0.0,), (1,))
        for method in ("partition", "logderiv"):
            with pytest.raises(DomainError, match="infinite"):
                differential_cumulant(f, (0.0,), (1,), method=method)
    for f in (everywhere, grid):
        for method in ("quadrature", "mc"):
            with pytest.raises(DomainError, match="infinite"):
                local_moment(f, window, (1,), method=method)
            with pytest.raises(DomainError, match="infinite"):
                local_cumulant(f, window, (2,), method=method)


def test_overflow_is_refused_without_a_warning():
    # exp(800 x1) overflows near (1, 1), and 1 / 1e-320 overflows: each is
    # one DomainError, and numpy warns of neither on the way
    mec = mec_density({(1, 0): 800}, 2)
    window = CubeWindow((1.0, 1.0), 0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="infinite"):
            differential_cumulant(mec, (1.0, 1.0), (1, 0))
        with pytest.raises(DomainError, match="infinite"):
            local_cumulant(mec, window, (1, 1))
        with pytest.raises(DomainError, match=r"variances \[1e-320\]"):
            product_gaussian_density([0.0], [1e-320])


# ---------------------------------------------------------------------------
# limit probe

def test_limit_probe_converges_for_binary_k():
    rep = limit_matches_differential(std_pair(), (0.0, 0.0), (1, 1),
                                     [0.4, 0.2, 0.1])
    assert rep.converged
    assert rep.target == pytest.approx(2.0 / 3.0, abs=1e-6)
    ratios = [a / b for a, b in zip(rep.errors, rep.errors[1:])]
    assert all(2.5 <= r <= 6 for r in ratios)


def test_limit_probe_diverges_for_k20_off_origin():
    rep = limit_matches_differential(std_pair(), (0.6, -0.4), (2, 0),
                                     [0.4, 0.2, 0.1])
    assert not rep.converged
    # the scaled values tend to 1, not to kappa^xi
    assert rep.scaled_values[-1] == pytest.approx(1.0, rel=0.01)
    assert abs(rep.target - 1.0) > 0.05


def test_limit_probe_validation():
    with pytest.raises(DomainError):
        limit_matches_differential(std_pair(), (0, 0), (1, 1), [0.4, 0.2])
    with pytest.raises(DomainError):
        limit_matches_differential(std_pair(), (0, 0), (1, 1),
                                   [0.1, 0.2, 0.4])


# ---------------------------------------------------------------------------
# density families

def test_gaussian_density_normalization():
    f = gaussian_density((0.0,), ((1.0,),))
    xs = np.linspace(-8, 8, 4001).reshape(-1, 1)
    mass = np.trapezoid(f.batch(xs), xs[:, 0])
    assert mass == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(DomainError):
        gaussian_density((0.0, 0.0), ((1.0, 2.0), (2.0, 1.0)))


@pytest.mark.parametrize("means, variances", [
    ([0.0], [True]), (["0"], [1.0]), ([np.nan], [1.0]), ([0.0], [np.inf]),
    ([0.0], [np.bool_(True)]), ([10 ** 400], [1.0])],
    ids=["bool", "string", "nan", "inf", "numpy-bool", "huge-int"])
def test_density_parameters_must_be_finite_reals(means, variances):
    # np.asarray(..., dtype=float) reads True as 1 and "0" as 0.0
    with pytest.raises(DomainError, match="finite real numbers"):
        product_gaussian_density(means, variances)
    with pytest.raises(DomainError, match="finite real numbers"):
        gaussian_density(means, [[v] for v in variances])


def test_density_parameters_accept_fractions_and_arrays():
    f = product_gaussian_density([Fraction(1, 2)], np.array([2]))
    g = gaussian_density(np.array([0.5]), [[Fraction(1, 2)]])
    assert f(0.0) == g(0.0)


def test_mec_density_matches_exp_of_polynomial():
    f = mec_density({(1, 1): -0.5, (1, 0): 1.0}, 2)
    pt = np.array([[0.7, 1.3]])
    want = np.exp(-0.5 * 0.7 * 1.3 + 0.7)
    assert f.batch(pt)[0] == pytest.approx(want)
    with pytest.raises(DomainError):
        mec_density({(2, 0): 1.0}, 2)


def mec_by_terms(coeffs, pts):
    """exp(sum a_s x^s) one term at a time: each term a_s * x_i * x_j ...
    left to right, added to zero in the spec's order."""
    g = np.zeros(len(pts))
    for s, a in coeffs.items():
        term = float(a)
        for i in (i for i, si in enumerate(s) if si):
            term = term * pts[:, i]
        g += term
    return np.exp(g)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_mec_density_bit_identical_to_term_loop(p):
    # short batches (stencils) and long ones (grids) are evaluated two ways;
    # both must give the per-term loop's bits, however many terms there are
    rng = np.random.default_rng(p)
    subsets = list(product((0, 1), repeat=p))
    specials = np.array([-0.0, 0.0, 1e200, -1e-300])
    with np.errstate(over="ignore", invalid="ignore"):
        for n_terms in range(len(subsets) + 1):
            picked = rng.permutation(len(subsets))[:n_terms]
            coeffs = {subsets[j]: float(rng.uniform(-2, 2)) for j in picked}
            f = mec_density(coeffs, p)
            for n in (0, 1, 8, 128, 129, 700):
                pts = rng.normal(size=(n, p))
                if n:
                    pts.flat[rng.integers(0, pts.size, 4)] = specials
                for layout in (pts, np.asfortranarray(pts)):
                    got = f.batch(layout)
                    assert got.tobytes() == mec_by_terms(coeffs,
                                                         layout).tobytes()


def test_product_gaussian_diff_cumulant_cross_terms_vanish():
    f = product_gaussian_density([0.5, -1.0], [1.0, 2.0])
    got = differential_cumulant(f, (0.2, 0.3), (1, 1)).value
    assert got == pytest.approx(0.0, abs=1e-6)


# ---------------------------------------------------------------------------
# the builders compile the exact specs

# a computed inverse is symmetric only up to rounding
INVERSE = np.linalg.inv(np.array([[2.0, 0.3, 0.1], [0.3, 1.5, 0.2],
                                  [0.1, 0.2, 1.0]]))
GAUSSIAN = (GaussianSpec, gaussian_density)
MEC = (MECSpec, lambda p, coeffs: mec_density(coeffs, p))


@pytest.mark.parametrize("builders, args", [
    (GAUSSIAN, (5, ((1,),))),
    (GAUSSIAN, ((0,), 5)),
    (GAUSSIAN, ((0,), (5,))),
    (GAUSSIAN, ((), ())),
    (GAUSSIAN, ((0, 0), ((1, 0),))),
    (GAUSSIAN, ((0, True), ((1, 0), (0, 1)))),
    (GAUSSIAN, ((0, np.bool_(True)), ((1, 0), (0, 1)))),
    (GAUSSIAN, ((0, "0"), ((1, 0), (0, 1)))),
    (GAUSSIAN, ((0, 0), ((1, np.nan), (np.nan, 1)))),
    (GAUSSIAN, ((0, 0), ((np.inf, 0), (0, 1)))),
    (GAUSSIAN, ((0, 0), ((1, 2), (3, 1)))),
    (GAUSSIAN, ((0, 0, 0), INVERSE)),
    ((gaussian_density,), ((10 ** 400,), ((1,),))),
    ((gaussian_density,), ((0, 0), ((1, 2), (2, 1)))),
    ((product_gaussian_density,), ([0.0], 5)),
    ((product_gaussian_density,), (5, [1.0])),
    ((product_gaussian_density,), ([0.0, 0.0], [1.0])),
    ((product_gaussian_density,), ([], [])),
    ((product_gaussian_density,), ([0.0], [0.0])),
    ((product_gaussian_density,), ([0.0], [True])),
    ((product_gaussian_density,), ([0.0], [np.bool_(True)])),
    ((product_gaussian_density,), ([0.0], ["1"])),
    ((product_gaussian_density,), ([0.0], [np.nan])),
    ((product_gaussian_density,), ([0.0], [np.inf])),
    ((product_gaussian_density,), ([0.0], [10 ** 400])),
    ((product_gaussian_density,), ([10 ** 400], [1.0])),
    ((product_gaussian_density,), (["0"], [1.0])),
    (MEC, (2, {(1, 1): np.nan})),
    (MEC, (2, {(1, 1): np.inf})),
    (MEC, (2, {(1, 1): "abc"})),
    (MEC, (2, {(1, 1): True})),
    (MEC, (2, [((1, 1), 0.5)])),
    (MEC, (2.0, {(1, 1): 0.5})),
    (MEC, (True, {(1,): 0.5})),
    (MEC, ("2", {(1, 1): 0.5})),
    (MEC, (2, {(2, 0): 0.5})),
    (MEC, (2, {(1, 1, 0): 0.5})),
    (MEC, (1, {1: 0.5})),
    ((MEC[1],), (1, {(1,): 10 ** 400})),
    (MEC, (-1, {})),
    (MEC, (0, {(): 1.0})),
], ids=["mean-scalar", "precision-scalar", "precision-row-scalar",
        "no-variables", "precision-shape", "bool", "numpy-bool", "string",
        "nan", "inf", "asymmetric", "inverse-3x3", "huge-int",
        "indefinite", "variances-scalar", "means-scalar",
        "variances-length", "product-empty", "variance-zero",
        "variance-bool", "variance-numpy-bool", "variance-string",
        "variance-nan", "variance-inf", "variance-huge-int",
        "mean-huge-int", "mean-string", "mec-nan", "mec-inf", "mec-string",
        "mec-bool", "mec-coeffs-list", "mec-p-float", "mec-p-bool",
        "mec-p-string", "mec-non-binary",
        "mec-index-length", "mec-index-scalar", "mec-huge-int",
        "mec-p-negative", "mec-p-zero"])
def test_bad_density_parameters_rejected(builders, args):
    for build in builders:
        with pytest.raises(DomainError):
            build(*args)


def test_symmetrised_inverse_precision_accepted():
    lam = (INVERSE + INVERSE.T) / 2
    assert GaussianSpec((0, 0, 0), lam).p == 3
    assert gaussian_density((0, 0, 0), lam)((0.1, 0.2, 0.3)) > 0


@st.composite
def mec_specs(draw):
    """A random complex Delta on p <= 4 vertices, given by its generating
    faces, and an MEC spec with a positive rational coefficient on each
    of them.  Coefficients of at most 1/8 keep the partition sum's
    fourth-order finite differences within 1e-6 of zero; every
    non-vanishing cumulant is still above 1/256."""
    p = draw(st.integers(1, 4))
    subsets = [s for s in product((0, 1), repeat=p) if any(s)]
    facets = draw(st.lists(st.sampled_from(subsets), min_size=1,
                           max_size=4, unique=True))
    coeff = st.fractions(Fraction(1, 32), Fraction(1, 8), max_denominator=32)
    coeffs = {s: draw(coeff) for s in facets}
    return MECSpec(p, coeffs), facets


def _log_density_gap(f, poly, rng):
    """log f(x) - log f(y) against the exact polynomial's g(x) - g(y) at
    two seeded points, relative to the size of g."""
    x, y = ([rng.uniform(-1.5, 1.5) for _ in range(f.p)] for _ in range(2))
    gx, gy = (poly.evaluate([Fraction(v) for v in pt]) for pt in (x, y))
    got = math.log(f(x)) - math.log(f(y))
    return abs(got - float(gx - gy)) / (1 + abs(gx) + abs(gy))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(mec_specs(), st.integers(0, 2 ** 32))
def test_mec_spec_drives_both_sides_of_the_dictionary(drawn, seed):
    spec, facets = drawn
    p = spec.p
    delta = make_complex(p, [[i + 1 for i in range(p) if s[i]]
                             for s in facets])
    g = mec_polynomial(spec)
    assert mec_support_complex(spec) == delta and is_hierarchical(g, delta)
    f = mec_density(spec.coeffs, p)
    rng = random.Random(seed)
    xi = tuple(rng.uniform(0.5, 1.5) for _ in range(p))
    # the central difference is exact on a multilinear log-density, so the
    # log-derivative takes a wide step; the partition sum differentiates
    # exp(g), and 1e-2 balances its truncation against rounding
    steps = {"partition": 1e-2, "logderiv": 1e-1}
    vanishing = []
    for alpha in product((0, 1), repeat=p):
        if not any(alpha):
            continue
        in_delta = any(all(a <= s for a, s in zip(alpha, facet))
                       for facet in facets)
        assert differentiate(g, alpha).is_zero() == (not in_delta)
        for method, step in steps.items():
            value = differential_cumulant(f, xi, alpha, method=method,
                                          step_scale=step).value
            assert (abs(value) <= 1e-6) == (not in_delta), (alpha, method)
        if not in_delta:
            vanishing.append(frozenset(i + 1 for i in range(p) if alpha[i]))
    minimal = {a for a in vanishing if not any(b < a for b in vanishing)}
    assert minimal == set(stanley_reisner(delta).generator_sets())
    assert _log_density_gap(f, g, rng) <= 1e-12


@st.composite
def gaussian_specs(draw):
    """Rational mean and a diagonally dominant rational precision."""
    p = draw(st.integers(1, 4))
    rational = st.fractions(-2, 2, max_denominator=8)
    mean = [draw(rational) for _ in range(p)]
    lam = [[Fraction(0)] * p for _ in range(p)]
    for i in range(p):
        for j in range(i):
            lam[i][j] = lam[j][i] = draw(rational)
    for i in range(p):
        lam[i][i] = 1 + sum(abs(v) for v in lam[i])
    return GaussianSpec(mean, lam)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(gaussian_specs(), st.integers(0, 2 ** 32))
def test_gaussian_spec_compiles_to_its_log_polynomial(spec, seed):
    f = gaussian_density(spec.mean, spec.precision)
    assert _log_density_gap(f, gaussian_log_poly(spec),
                            random.Random(seed)) <= 1e-12
