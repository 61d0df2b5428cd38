"""Band construction: one-sample, two-sample, and scale-space surfaces."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy import stats

from scbands import (
    METHOD_NAMES,
    DegenerateVarianceError,
    FunctionalSample,
    Grid1D,
    Grid2D,
    ModelSpec,
    ScaleGrid,
    band_to_dict,
    covers,
    gaussian_kernel,
    gen_model,
    normed_residuals,
    scb_one_sample,
    scb_scale_space,
    scb_two_sample,
    substream,
    two_sample_residuals,
    weight_matrix,
)
from scbands.bootstrap import BootstrapConfig, boots_t_quantile, mult_t_quantile


def test_two_constant_rows_band_arithmetic():
    # rows 0 and 2: center 1, sd sqrt(2), flat field, one degree of freedom
    g = Grid1D(np.array([0.0, 0.5, 1.0]))
    s = FunctionalSample(np.array([[0.0, 0.0, 0.0], [2.0, 2.0, 2.0]]), g)
    band = scb_one_sample(s, method="tgkf", alpha=0.05)
    q = stats.t.isf(0.025, 1)
    assert_allclose(band.center, 1.0)
    assert_allclose(band.quantile, q, atol=1e-8)
    # sd / sqrt(N) = sqrt(2) / sqrt(2) = 1
    assert_allclose(band.lower, 1.0 - band.quantile, rtol=1e-12)
    assert_allclose(band.upper, 1.0 + band.quantile, rtol=1e-12)


def test_band_boundary_is_covered():
    g = Grid1D(np.array([0.0, 0.5, 1.0]))
    s = FunctionalSample(np.array([[0.0, 0.0, 0.0], [2.0, 2.0, 2.0]]), g)
    band = scb_one_sample(s, method="tgkf", alpha=0.05)
    assert covers(band, band.upper.copy())
    assert covers(band, band.center)
    assert not covers(band, band.upper + 1e-9)
    # one point outside is enough to fail
    broken = band.center.copy()
    broken[1] = band.lower[1] - 1e-9
    assert not covers(band, broken)


def test_band_affine_equivariance():
    s = gen_model(ModelSpec("A", resolution=80), 30, rng=substream(40, 0))
    base = scb_one_sample(s, method="tgkf", alpha=0.05)
    moved = FunctionalSample(-2.0 * s.values + 7.0, s.grid)
    other = scb_one_sample(moved, method="tgkf", alpha=0.05)
    assert_allclose(other.quantile, base.quantile, rtol=1e-10)
    assert_allclose(other.center, -2.0 * base.center + 7.0, rtol=1e-10)
    # scaling by -2 doubles the halfwidth and swaps the sides
    assert_allclose(other.upper, -2.0 * base.lower + 7.0, rtol=1e-10)
    assert_allclose(other.lower, -2.0 * base.upper + 7.0, rtol=1e-10)


def test_every_method_produces_a_band():
    s = gen_model(ModelSpec("A", resolution=60), 20, rng=substream(41, 0))
    for method in METHOD_NAMES:
        band = scb_one_sample(s, method=method, alpha=0.05, replicates=150, seed=3)
        assert band.method == method
        assert np.isfinite(band.quantile) and band.quantile > 0
        assert (band.lower <= band.center).all()
        assert (band.center <= band.upper).all()


def test_band_seed_controls_resampling():
    s = gen_model(ModelSpec("A", resolution=60), 20, rng=substream(42, 0))
    a = scb_one_sample(s, method="rmult-t", replicates=200, seed=1)
    b = scb_one_sample(s, method="rmult-t", replicates=200, seed=1)
    c = scb_one_sample(s, method="rmult-t", replicates=200, seed=2)
    assert a.quantile == b.quantile
    assert a.quantile != c.quantile
    # the closed-form method ignores the seed entirely
    x = scb_one_sample(s, method="tgkf", seed=1)
    y = scb_one_sample(s, method="tgkf", seed=99)
    assert x.quantile == y.quantile


def test_rough_process_band_sanity():
    s = gen_model(ModelSpec("B"), 100, rng=substream(43, 0))
    band = scb_one_sample(s, method="tgkf", alpha=0.05)
    # wide enough for a rough field, far below a Bonferroni level
    assert 2.7 < band.quantile < 3.3
    assert band.quantile < stats.t.isf(0.025 / 200, 99)


def test_unknown_method_rejected():
    s = gen_model(ModelSpec("A", resolution=40), 10, rng=substream(44, 0))
    with pytest.raises(ValueError, match="unknown method"):
        scb_one_sample(s, method="jackknife")


def test_degenerate_sample_rejected():
    g = Grid1D(np.linspace(0.0, 1.0, 10))
    vals = np.vstack([np.zeros(10), np.r_[np.zeros(5), np.ones(5)]])
    sample = FunctionalSample(vals, g)
    plain = BootstrapConfig(replicates=20, seed=1, studentized=False)
    # Every entry point shares one zero-sd check and names the first bad point.
    for estimate in (
        lambda: scb_one_sample(sample, method="tgkf"),
        lambda: scb_one_sample(sample, method="gauss-sim", replicates=20),
        lambda: boots_t_quantile(sample, plain),
        lambda: mult_t_quantile(sample, "rademacher", plain),
        lambda: normed_residuals(sample),
        lambda: scb_two_sample(sample, sample, method="tgkf"),
        lambda: two_sample_residuals(sample, sample),
    ):
        with pytest.raises(DegenerateVarianceError, match="sd is zero at grid point 0"):
            estimate()


def test_two_sample_band_swap_antisymmetry():
    y = gen_model(ModelSpec("A", resolution=80), 30, rng=substream(45, 0))
    x = gen_model(ModelSpec("A", resolution=80), 20, rng=substream(45, 1))
    ab = scb_two_sample(y, x, method="tgkf", alpha=0.05)
    ba = scb_two_sample(x, y, method="tgkf", alpha=0.05)
    assert_allclose(ab.quantile, ba.quantile, rtol=1e-10)
    assert_allclose(ab.center, -ba.center, atol=1e-12)
    assert_allclose(ab.upper, -ba.lower, rtol=1e-10, atol=1e-12)


def test_two_sample_identical_groups_centered_at_zero():
    y = gen_model(ModelSpec("A", resolution=80), 25, rng=substream(46, 0))
    band = scb_two_sample(y, y, method="tgkf", alpha=0.05)
    assert_allclose(band.center, 0.0, atol=1e-14)
    assert covers(band, np.zeros(80))


def test_two_sample_grid_mismatch():
    y = gen_model(ModelSpec("A", resolution=80), 10, rng=substream(47, 0))
    x = gen_model(ModelSpec("A", resolution=81), 10, rng=substream(47, 1))
    with pytest.raises(ValueError, match="grid"):
        scb_two_sample(y, x)


def test_two_sample_bootstrap_not_offered():
    # the bootstrap-t in either form is refused; the multipliers are drawn
    # per group, so every other method gives a band
    y = gen_model(ModelSpec("A", resolution=40), 10, rng=substream(48, 0))
    x = gen_model(ModelSpec("A", resolution=40), 10, rng=substream(48, 1))
    for method in ("boots-t", "boots"):
        with pytest.raises(ValueError, match=r"two-sample bands support every method but"):
            scb_two_sample(y, x, method=method)
    for method in ("gmult-t", "gmult", "rmult-t", "rmult", "gauss-sim"):
        assert 1.5 < scb_two_sample(y, x, method=method, replicates=200).quantile < 6.0


def test_scale_space_band_over_lattice():
    measure = (np.arange(100) + 0.5) / 100.0
    rng = substream(49, 0)
    raw = FunctionalSample(
        np.sin(2 * np.pi * measure) + 0.3 * rng.standard_normal((40, 100)),
        Grid1D(measure),
    )
    sg = ScaleGrid(Grid1D(measure), np.linspace(0.02, 0.1, 5))
    band = scb_scale_space(raw, gaussian_kernel(), sg, method="tgkf", alpha=0.05)
    assert isinstance(band.grid, Grid2D)
    assert band.center.shape == (500,)
    assert (band.lower < band.upper).all()
    # the smoothed truth should be well inside for this sample size
    truth = weight_matrix(gaussian_kernel(), measure, sg) @ np.sin(2 * np.pi * measure)
    assert covers(band, truth)


def test_scale_space_single_bandwidth_is_curve_band():
    measure = (np.arange(60) + 0.5) / 60.0
    rng = substream(50, 0)
    raw = FunctionalSample(0.5 * rng.standard_normal((25, 60)), Grid1D(measure))
    sg = ScaleGrid(Grid1D(np.linspace(0.05, 0.95, 30)), np.array([0.07]))
    band = scb_scale_space(raw, gaussian_kernel(), sg, method="tgkf")
    assert isinstance(band.grid, Grid1D)
    assert band.center.shape == (30,)


def test_band_serialization_round_values():
    g = Grid1D(np.array([0.0, 0.5, 1.0]))
    s = FunctionalSample(np.array([[0.0, 0.0, 0.0], [2.0, 2.0, 2.0]]), g)
    band = scb_one_sample(s, method="tgkf", alpha=0.05)
    doc = band_to_dict(band)
    assert doc["method"] == "tgkf"
    assert doc["alpha"] == 0.05
    assert_allclose(doc["center"], [1.0, 1.0, 1.0])
    assert_allclose(doc["quantile"], band.quantile)
    assert doc["grid"]["points"] == [0.0, 0.5, 1.0]


def test_column_major_samples_get_numpys_statistics():
    # The mean field is computed on copies that keep the caller's layout:
    # numpy sums a contiguous axis pairwise, so a row-major copy of a
    # column-major sample would move the sums by an ulp.
    spec = ModelSpec("A", resolution=60)
    y, x = (np.asfortranarray(gen_model(spec, n, substream(41, n)).values) for n in (20, 17))
    assert not np.array_equal(y.mean(axis=0), np.ascontiguousarray(y).mean(axis=0))
    grid = gen_model(spec, 2, substream(41, 2)).grid
    sy, sx = FunctionalSample(y, grid), FunctionalSample(x, grid)
    mean, sd = y.mean(axis=0), y.std(axis=0, ddof=1)
    assert_array_equal(scb_one_sample(sy, "tgkf").center, mean)
    assert_array_equal(normed_residuals(sy).values, (y - mean) / sd)
    c = 20 / 17
    pooled = np.sqrt((1.0 + 1.0 / c) * y.var(axis=0, ddof=1) + (1.0 + c) * x.var(axis=0, ddof=1))
    center, scale, _, groups = two_sample_residuals(sy, sx)
    assert_array_equal(center, mean - x.mean(axis=0))
    assert_array_equal(scale, pooled)
    assert_array_equal(groups[0].values, np.sqrt(1.0 + 1.0 / c) * (y - mean) / pooled)
