"""Euler characteristic densities, tail curves, and quantile inversion."""

import re
import signal
from contextlib import contextmanager

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import optimize, stats

from scbands import (
    ECDensityModel,
    FunctionalSample,
    Grid1D,
    LKCVector,
    ModelSpec,
    QuantileNoSolutionError,
    eec,
    gen_model,
    lkc_estimate,
    normed_residuals,
    scb_one_sample,
    substream,
    tgkf_quantile,
)
from scbands import kinematic
from scbands.kinematic import ec_density

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
    # rho_2's constant tends to 1 without cancellation, up to the largest
    # finite dof, so the 2-D quantile converges to the Gaussian one
    lkc = LKCVector(1, (10.0, 5.0))
    assert tgkf_quantile(lkc, GAUSS, 0.05) == 3.0579081964679062
    for dof in (1e10, 1e14, 1e15, 1e16, 1e100, 1e300, 1.7e308):
        huge = ECDensityModel.student_t(dof)
        for u in (0.5, 2.0, 3.5):
            assert_allclose(ec_density(huge, 2, u), ec_density(GAUSS, 2, u), rtol=1e-8)
        assert abs(tgkf_quantile(lkc, huge, 0.05) - 3.0579081964679062) <= 1e-8, dof


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
    # L0 = 1 throughout: eec(1, a) + eec(1, b) - eec(1, 0) = eec(1, a + b)
    t19 = ECDensityModel.student_t(19)
    u = 2.7
    a = eec(LKCVector(1.0, (3.0,)), t19, u)
    b = eec(LKCVector(1.0, (2.0,)), t19, u)
    base = eec(LKCVector(1.0, (0.0,)), t19, u)
    combined = eec(LKCVector(1.0, (5.0,)), t19, u)
    assert_allclose(combined, a + b - base, rtol=1e-14)


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


@contextmanager
def _fails_after(seconds):
    """Raise TimeoutError in the block after the given wall time, so a
    solver that loops forever fails its test instead of hanging the suite."""

    def stop(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("dof, l1, alpha", [(2, 1e6, 0.05), (2, 1e3, 1e-6), (3, 1e10, 1e-6)])
def test_quantile_beyond_the_spacing_of_doubles_returns(dof, l1, alpha):
    # Roots from 9e6 to 4.5e8: adjacent doubles there are more than 1e-9
    # apart, so the bisection ends on the spacing, not on the tolerance.
    lkc, model = LKCVector(1, (l1,)), ECDensityModel.student_t(dof)
    with _fails_after(5.0):
        q = tgkf_quantile(lkc, model, alpha)
    assert q > 4.5e6
    assert_allclose(eec(lkc, model, q), alpha / 2.0, rtol=1e-9)


def test_band_quantile_beyond_the_spacing_of_doubles_returns():
    # Three white-noise curves on 2,000 points: L1 is about 1265 and the
    # t field has 2 degrees of freedom, so the alpha=1e-6 root is near 6e8.
    sample = FunctionalSample(
        substream(5).standard_normal((3, 2000)), Grid1D(np.linspace(0.0, 1.0, 2000))
    )
    with _fails_after(5.0):
        band = scb_one_sample(sample, "tgkf", 1e-6)
    lkc = lkc_estimate(normed_residuals(sample))
    assert_allclose(eec(lkc, ECDensityModel.student_t(2), band.quantile), 5e-7, rtol=1e-9)


def test_quantile_rejects_two_dimensional_dof_below_two():
    # For nu < 2 rho_2 grows like u^(2-nu), so a 2-D EEC with L2 > 0 has no
    # last crossing: bisection alone returns 1.004 here, yet EEC(1e3) = 0.507.
    for dof in (1, 1.5):
        with pytest.raises(QuantileNoSolutionError, match=r"needs dof >= 2 \(at least 3"):
            tgkf_quantile(LKCVector(1, (0.001, 0.01)), ECDensityModel.student_t(dof), 0.5)
    # Two surfaces give dof 1: the band names that cause, not a tail that never drops.
    surfaces = gen_model(ModelSpec("C", resolution=20), 2, substream(0))
    with pytest.raises(QuantileNoSolutionError, match="at least 3 surfaces"):
        scb_one_sample(surfaces, "tgkf")
    # 1-D domains, L2 = 0 and dof 2 are solved as before.
    t1 = ECDensityModel.student_t(1)
    for lkc in (LKCVector(1, (0.001,)), LKCVector(1, (0.001, 0.0))):
        assert eec(lkc, t1, tgkf_quantile(lkc, t1, 0.5)) == pytest.approx(0.25, rel=1e-9)
    t2, lkc = ECDensityModel.student_t(2), LKCVector(1, (0.001, 0.01))
    assert eec(lkc, t2, tgkf_quantile(lkc, t2, 0.5)) == pytest.approx(0.25, rel=1e-9)


def test_quantile_rejects_bad_level():
    lkc = LKCVector(1.0, (2.0,))
    for alpha in (0.0, 1.0, -0.2, 1.7, float("nan"), "0.05", True, None):
        with pytest.raises(QuantileNoSolutionError, match=r"alpha must lie in \(0, 1\)"):
            tgkf_quantile(lkc, GAUSS, alpha)


def test_lkc_vector_needs_a_positive_euler_characteristic():
    # L0 >= 1 keeps EEC(0) >= 1/2 > alpha/2, so the solver needs no EEC(0) test
    for l0 in (0, 0.0, np.int64(0)):
        with pytest.raises(ValueError, match="^L0 must be positive, got 0$"):
            LKCVector(l0, (0.01,))


@pytest.mark.parametrize(
    "curvatures, model",
    [
        ((2.0,), GAUSS),
        ((40.0,), ECDensityModel.student_t(7)),
        ((0.0,), ECDensityModel.student_t(3)),
        ((4.0, 2.5), GAUSS),
        ((10.0, 60.0), ECDensityModel.student_t(12)),
        ((1.0, 0.5), ECDensityModel.student_t(4)),
    ],
)
def test_quantile_evaluates_each_u_once_and_never_zero(monkeypatch, curvatures, model):
    lkc, seen = LKCVector(1, curvatures), []

    def recording_eec(lkc, model, u):
        seen.append(u)
        return eec(lkc, model, u)

    monkeypatch.setattr(kinematic, "eec", recording_eec)
    for alpha in (1e-8, 0.05, 0.6, 0.99):
        seen.clear()
        tgkf_quantile(lkc, model, alpha)
        assert 0.0 not in seen
        assert len(set(seen)) == len(seen), sorted(seen)


def test_lockstep_solve_evaluates_each_row_at_each_u_once_and_never_zero(monkeypatch):
    # the rows share the doubling steps' hi; each row's bisection probes its
    # own brackets, so no row sees a u twice, and none sees u = 0
    curvatures = [(2.0,), (40.0,), (0.0,), (7.5,), (1e4,)]
    vectors, seen = [LKCVector(1, c) for c in curvatures], []

    def recording_eec(lkc, model, u):
        rows = np.broadcast_arrays(*lkc.curvatures, u)
        seen.extend(zip(*(np.atleast_1d(a).tolist() for a in rows)))
        return eec(lkc, model, u)

    monkeypatch.setattr(kinematic, "eec", recording_eec)
    for model in (GAUSS, ECDensityModel.student_t(5)):
        for alpha in (1e-8, 0.05, 0.6):
            seen.clear()
            expected = [kinematic.tgkf_quantile(v, model, alpha) for v in vectors]
            alone = len(seen)
            seen.clear()
            assert list(tgkf_quantile(vectors, model, alpha)) == expected
            assert len(seen) == alone and len(set(seen)) == len(seen)
            assert all(u != 0.0 for *_, u in seen)


@pytest.mark.parametrize("lkc", [[], [LKCVector(1, (1.0,)), LKCVector(1, (1.0, 2.0))],
                                 [(1.0,)], 3.0, "L1"])
def test_quantile_rows_must_be_lkc_vectors_of_one_dimension(lkc):
    with pytest.raises(ValueError, match="^lkc must be an LKCVector or a sequence of "
                                         "LKCVectors of one dimension, got "):
        tgkf_quantile(lkc, GAUSS, 0.05)


def test_quantile_tail_cap():
    # nu = 1 makes rho_1 the constant 1 / (2 pi): with L1 / (2 pi) >= alpha/2
    # the EEC never drops below alpha/2, and the doubling stops at 2^40
    t1 = ECDensityModel.student_t(1)
    assert eec(LKCVector(1, (1.0,)), t1, 2.0**39) > 0.025
    with pytest.raises(QuantileNoSolutionError, match="^EEC tail failed to drop below alpha/2$"):
        tgkf_quantile(LKCVector(1, (1.0,)), t1, 0.05)


def test_density_order_above_two_rejected():
    for model in (GAUSS, ECDensityModel.student_t(5)):
        with pytest.raises(ValueError, match=r"^EC densities are defined for d in 0..2, got 3$"):
            ec_density(model, 3, 1.0)


def test_density_model_validation():
    with pytest.raises(ValueError, match="family"):
        ECDensityModel("cauchy")
    with pytest.raises(ValueError):
        ECDensityModel.student_t(0.5)
    with pytest.raises(ValueError, match="dof"):
        ECDensityModel("gaussian", 7)
    for dof in (True, "5", None, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="student_t needs a finite dof >= 1"):
            ECDensityModel.student_t(dof)
    assert ECDensityModel.student_t(np.int64(5)) == ECDensityModel("student_t", 5.0)


def test_lkc_vector_validation():
    # L0 is an integer-valued number, the curvatures finite non-negative numbers
    for l0 in (1.5, 0.5, True, "1", None):
        with pytest.raises(ValueError, match="L0 must be an integer"):
            LKCVector(l0, (2.0,))
    with pytest.raises(ValueError, match="L0 must be positive"):
        LKCVector(-1, (2.0,))
    for curv in ((True,), ("2",), (None,), (-0.1,), (float("inf"),), (1.0, float("nan"))):
        with pytest.raises(ValueError, match="curvatures must be finite non-negative numbers"):
            LKCVector(1, curv)
    for curv in ((), (1.0, 2.0, 3.0)):
        with pytest.raises(ValueError, match="only 1-D and 2-D domains"):
            LKCVector(1, curv)
    # a lone number or None where the curvature list belongs is named too
    for curv in (2.0, None, "12"):
        with pytest.raises(ValueError, match=re.escape(f"curvatures must be a list, got {curv!r}")):
            LKCVector(1, curv)
    lkc = LKCVector(1.0, (np.float64(2.0), 3))
    assert (lkc.l0, lkc.curvatures) == (1, (2.0, 3.0))
    assert type(lkc.l0) is int and all(type(c) is float for c in lkc.curvatures)
    assert LKCVector(np.int64(1), (2.0,)).l0 == 1


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
