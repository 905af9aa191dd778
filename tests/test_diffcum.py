"""Numeric differential and local moments/cumulants against closed-form
Gaussian oracles, scaling-factor goldens, and the convergence probe."""
from fractions import Fraction

import numpy as np
import pytest

from hmi import (DensityOracle, CubeWindow, parity_alpha, r_factor,
                 same_moment_class, differential_moment,
                 differential_cumulant, local_moment, local_cumulant,
                 limit_matches_differential, gaussian_density, mec_density,
                 product_gaussian_density)
from hmi.errors import DomainError

from oracles import (gaussian_derivative_ratio, gaussian_log_derivative,
                     cumulant_by_set_partitions)


RHO = 0.5
PREC = np.linalg.inv(np.array([[1.0, RHO], [RHO, 1.0]]))


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
    want = gaussian_derivative_ratio((0, 0), PREC, k, xi)
    assert got == pytest.approx(want, abs=1e-6)


@pytest.mark.parametrize("xi", POINTS)
@pytest.mark.parametrize("k", BINARY)
def test_differential_cumulant_matches_log_oracle(xi, k):
    f = std_pair()
    want = gaussian_log_derivative((0, 0), PREC, k, xi)
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
    score = gaussian_derivative_ratio((0, 0), PREC, (1, 0), xi)
    got = differential_cumulant(f, xi, (2, 0), method="partition").value
    assert got == pytest.approx(1.0 - score ** 2, abs=1e-6)


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


@pytest.mark.parametrize("xi, k, classes", [
    ((0.3, -0.2, 0.1), (1, 1, 1), 7), ((0.3, -0.2), (2, 1), 3)])
def test_partition_cumulant_samples_density_at_xi_once(xi, k, classes):
    # each odd parity class of the nu <= k is estimated once, by a coarse
    # and a fine stencil, and all share one sample of f(xi): for (1,1,1)
    # that is 7 * 2 + 1 = 15 batches
    p = len(xi)
    base = gaussian_density((0.0,) * p, np.eye(p) + 0.3)
    batches = []

    def counted(pts):
        batches.append(np.array(pts))
        return base.batch(pts)

    got = differential_cumulant(DensityOracle(p, counted), xi, k).value
    assert len(batches) == 2 * classes + 1
    assert sum(len(b) == 1 and tuple(b[0]) == xi for b in batches) == 1
    want = cumulant_by_set_partitions(
        k, lambda nu: differential_moment(base, xi, nu).value)
    assert got == pytest.approx(want, rel=1e-12)


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


def test_product_gaussian_diff_cumulant_cross_terms_vanish():
    f = product_gaussian_density([0.5, -1.0], [1.0, 2.0])
    got = differential_cumulant(f, (0.2, 0.3), (1, 1)).value
    assert got == pytest.approx(0.0, abs=1e-6)
