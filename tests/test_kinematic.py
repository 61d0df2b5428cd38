"""Euler characteristic densities, tail curves, and quantile inversion."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import optimize, stats

from scbands import (
    ECDensityModel,
    LKCVector,
    QuantileNoSolutionError,
    ec_density,
    eec,
    tgkf_quantile,
)

GAUSS = ECDensityModel.gaussian()


def test_density_order_zero_is_upper_tail():
    for u in (-1.0, 0.0, 0.7, 2.5):
        assert_allclose(ec_density(GAUSS, 0, u), stats.norm.sf(u), rtol=1e-12)
    t9 = ECDensityModel.student_t(9)
    for u in (0.0, 1.3, 3.0):
        assert_allclose(ec_density(t9, 0, u), stats.t.sf(u, 9), rtol=1e-12)


def test_density_order_one_gaussian_closed_form():
    for u in (0.0, 1.0, 2.4):
        assert_allclose(
            ec_density(GAUSS, 1, u),
            np.exp(-0.5 * u * u) / (2.0 * np.pi),
            rtol=1e-12,
        )


def test_density_order_two_gaussian_closed_form():
    for u in (0.5, 1.5, 3.0):
        expect = u * np.exp(-0.5 * u * u) / (2.0 * np.pi) ** 1.5
        assert_allclose(ec_density(GAUSS, 2, u), expect, rtol=1e-12)


def test_t_density_approaches_gaussian_for_huge_dof():
    big = ECDensityModel.student_t(1e6)
    for d in (0, 1, 2):
        for u in (0.5, 2.0, 3.5):
            assert_allclose(
                ec_density(big, d, u), ec_density(GAUSS, d, u), rtol=1e-4
            )


def test_t_density_heavier_tail_than_gaussian():
    t5 = ECDensityModel.student_t(5)
    for d in (0, 1):
        assert ec_density(t5, d, 3.0) > ec_density(GAUSS, d, 3.0)


def test_eec_frozen_value():
    # independently computed: sf(3) + 2 pi exp(-4.5) / (2 pi)
    assert_allclose(
        eec(LKCVector(1.0, (2.0 * np.pi,)), GAUSS, 3.0),
        0.0124588945698724,
        atol=1e-12,
    )


def test_eec_linear_in_the_curvatures():
    t19 = ECDensityModel.student_t(19)
    u = 2.7
    a = eec(LKCVector(1.0, (3.0,)), t19, u)
    b = eec(LKCVector(0.0, (2.0,)), t19, u)
    combined = eec(LKCVector(1.0, (5.0,)), t19, u)
    assert_allclose(combined, a + b, rtol=1e-14)


def test_eec_two_dimensional_terms():
    t12 = ECDensityModel.student_t(12)
    u = 2.2
    full = eec(LKCVector(1.0, (4.0, 2.5)), t12, u)
    manual = (
        ec_density(t12, 0, u)
        + 4.0 * ec_density(t12, 1, u)
        + 2.5 * ec_density(t12, 2, u)
    )
    assert_allclose(full, manual, rtol=1e-14)


def test_eec_vanishes_in_the_far_tail():
    assert eec(LKCVector(1.0, (10.0,)), GAUSS, 40.0) < 1e-12


def test_quantile_zero_curvature_matches_t_quantile():
    # with no curvature content the band equation is the pointwise one
    for alpha in (0.01, 0.05, 0.1):
        for nu in (5, 19, 99):
            q = tgkf_quantile(LKCVector(1.0, (0.0,)), ECDensityModel.student_t(nu), alpha)
            assert_allclose(q, stats.t.isf(alpha / 2.0, nu), atol=1e-8)


def test_quantile_zero_curvature_gaussian():
    for alpha in (0.01, 0.05, 0.1):
        q = tgkf_quantile(LKCVector(1.0, (0.0,)), GAUSS, alpha)
        assert_allclose(q, stats.norm.isf(alpha / 2.0), atol=1e-8)


def test_quantile_against_independent_root_finder():
    lkc = LKCVector(1.0, (2.0 * np.pi,))
    t19 = ECDensityModel.student_t(19)
    alpha = 0.05
    q = tgkf_quantile(lkc, t19, alpha)
    bracket = optimize.brentq(
        lambda u: eec(lkc, t19, u) - alpha / 2.0, 1.0, 50.0, xtol=1e-12
    )
    assert_allclose(q, bracket, atol=1e-9)
    # the returned point solves the tail equation
    assert_allclose(eec(lkc, t19, q), alpha / 2.0, rtol=1e-9)


def test_quantile_monotone_in_curvature_and_level():
    t30 = ECDensityModel.student_t(30)
    qs = [
        tgkf_quantile(LKCVector(1.0, (l1,)), t30, 0.05) for l1 in (0.0, 2.0, 8.0, 20.0)
    ]
    assert all(a < b for a, b in zip(qs, qs[1:]))
    by_alpha = [
        tgkf_quantile(LKCVector(1.0, (5.0,)), t30, a) for a in (0.01, 0.05, 0.2)
    ]
    assert by_alpha[0] > by_alpha[1] > by_alpha[2]


def test_quantile_two_dimensional_consistency():
    # 2-D curvature vector still solves the same tail equation
    lkc = LKCVector(1.0, (3.0, 1.5))
    t40 = ECDensityModel.student_t(40)
    q = tgkf_quantile(lkc, t40, 0.05)
    assert_allclose(eec(lkc, t40, q), 0.025, rtol=1e-9)


def test_quantile_rejects_bad_level():
    lkc = LKCVector(1.0, (2.0,))
    for alpha in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(QuantileNoSolutionError):
            tgkf_quantile(lkc, GAUSS, alpha)


def test_quantile_unreachable_tail_level():
    # tiny domain: the tail curve never reaches alpha/2 = 0.25
    with pytest.raises(QuantileNoSolutionError):
        tgkf_quantile(LKCVector(0.0, (0.01,)), GAUSS, 0.5)


def test_density_model_validation():
    with pytest.raises(ValueError, match="family"):
        ECDensityModel("cauchy")
    with pytest.raises(ValueError):
        ECDensityModel.student_t(0.5)
    with pytest.raises(ValueError, match="dof"):
        ECDensityModel("gaussian", 7)


def test_density_order_zero_is_bitwise_scipy_stats():
    # rho_0 calls scipy.special directly; scipy.stats' sf is the same call,
    # so the values (and every tgkf quantile) must agree bit for bit.
    u = np.concatenate([np.linspace(-60.0, 60.0, 20001), [-np.inf, np.inf, 0.0, -0.0]])
    assert np.array_equal(ec_density(GAUSS, 0, u), stats.norm.sf(u))
    for dof in (1, 2, 3.5, 7, 49, 1e3, 1e6, 1e12):
        model = ECDensityModel.student_t(dof)
        assert np.array_equal(ec_density(model, 0, u), stats.t.sf(u, dof)), dof
        assert ec_density(model, 0, 2.5) == stats.t.sf(2.5, dof)
        assert isinstance(ec_density(model, 0, 2.5), float)
