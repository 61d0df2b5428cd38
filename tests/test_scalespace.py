"""Kernel smoothing of discrete measurements onto a location-bandwidth lattice."""

import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from scbands import (
    FunctionalSample,
    Grid1D,
    Grid2D,
    ScaleGrid,
    gaussian_kernel,
    scb_one_sample,
    scb_scale_space,
    smooth_sample,
    weight_matrix,
)


@pytest.fixture
def setup():
    measure = (np.arange(20) + 0.5) / 20.0
    locs = Grid1D(np.linspace(0.05, 0.95, 12))
    sg = ScaleGrid(locs, np.array([0.04, 0.08, 0.16]))
    rng = np.random.default_rng(14)
    raw = FunctionalSample(rng.standard_normal((6, 20)), Grid1D(measure))
    return measure, sg, raw


def test_weights_are_convex(setup):
    measure, sg, _ = setup
    w = weight_matrix(gaussian_kernel(), measure, sg)
    assert w.shape == (36, 20)
    assert_allclose(w.sum(axis=1), 1.0, rtol=1e-12)
    assert (w >= 0.0).all()


def test_smoothing_is_linear(setup):
    measure, sg, raw = setup
    rng = np.random.default_rng(15)
    other = FunctionalSample(rng.standard_normal((6, 20)), raw.grid)
    k = gaussian_kernel()
    combo = FunctionalSample(2.0 * raw.values - 3.0 * other.values, raw.grid)
    lhs = smooth_sample(combo, k, sg).values
    rhs = 2.0 * smooth_sample(raw, k, sg).values - 3.0 * smooth_sample(other, k, sg).values
    assert_allclose(lhs, rhs, atol=1e-12)


def test_smoothing_commutes_with_averaging(setup):
    measure, sg, raw = setup
    k = gaussian_kernel()
    smoothed_mean = smooth_sample(raw, k, sg).values.mean(axis=0)
    mean_smoothed = weight_matrix(k, measure, sg) @ raw.values.mean(axis=0)
    assert_allclose(smoothed_mean, mean_smoothed, atol=1e-12)


def test_smoothed_values_stay_inside_data_range(setup):
    measure, sg, raw = setup
    out = smooth_sample(raw, gaussian_kernel(), sg)
    for row_in, row_out in zip(raw.values, out.values):
        assert row_out.max() <= row_in.max() + 1e-12
        assert row_out.min() >= row_in.min() - 1e-12


def test_constant_rows_are_fixed_points(setup):
    measure, sg, _ = setup
    raw = FunctionalSample(np.full((2, 20), 5.5), Grid1D(measure))
    out = smooth_sample(raw, gaussian_kernel(), sg)
    assert_allclose(out.values, 5.5, rtol=1e-12)


def test_spike_row_reproduces_kernel_profile(setup):
    measure, sg, _ = setup
    spike = np.zeros((1, 20))
    spike[0, 7] = 1.0
    out = smooth_sample(FunctionalSample(spike, Grid1D(measure)), gaussian_kernel(), sg)
    x, h = out.grid.lattice_coords()
    # normalized kernel weight of measurement point 7 at each (s, h)
    num = np.exp(-0.5 * ((x - measure[7]) / h) ** 2)
    den = np.exp(
        -0.5 * ((x[:, None] - measure[None, :]) / h[:, None]) ** 2
    ).sum(axis=1)
    assert_allclose(out.values[0], num / den, atol=1e-12)


def test_single_bandwidth_yields_curve_sample(setup):
    measure, _, raw = setup
    locs = Grid1D(np.linspace(0.05, 0.95, 12))
    sg = ScaleGrid(locs, np.array([0.08]))
    out = smooth_sample(raw, gaussian_kernel(), sg)
    assert isinstance(out.grid, Grid1D)
    assert out.values.shape == (6, 12)
    assert_allclose(out.grid.points, locs.points)


def test_bandwidth_lattice_axis(setup):
    measure, sg, raw = setup
    out = smooth_sample(raw, gaussian_kernel(), sg)
    assert isinstance(out.grid, Grid2D)
    assert_allclose(out.grid.y_points, sg.h_points)
    assert_allclose(out.grid.x_points, sg.s_points.points)


def test_two_bandwidths_rejected(setup):
    measure, _, raw = setup
    with pytest.raises(ValueError, match="at least 3"):
        sg = ScaleGrid(Grid1D(np.linspace(0.05, 0.95, 12)), np.array([0.05, 0.1]))
        smooth_sample(raw, gaussian_kernel(), sg)


def test_scale_grid_validation(malformed):
    locs = Grid1D(np.linspace(0.0, 1.0, 5))
    with pytest.raises(ValueError):
        ScaleGrid(locs, np.array([0.1, 0.05, 0.2]))
    with pytest.raises(ValueError, match="^bandwidths must be positive, got 0$"):
        ScaleGrid(locs, np.array([0.0, 0.1, 0.2]))
    with pytest.raises(ValueError, match="^bandwidths must be positive, got -0.1$"):
        ScaleGrid(locs, [-0.1])
    with pytest.raises(ValueError, match="^h_points contains non-finite entries$"):
        ScaleGrid(locs, [0.1, 0.2, np.inf])
    # bools and strings are not bandwidths, whether listed or in an array
    for bad in ([True, 2, 3], np.array([True, False, True]), ["0", "0.5", "1"], ["a", 1, 2]):
        message = f"h_points must hold real numbers, got {bad!r}"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            ScaleGrid(locs, bad)
    for bad, message in malformed(np.array([0.05, 0.1, 0.2]), "h_points",
                                  "a one-dimensional sequence"):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            ScaleGrid(locs, bad)
    # integer and float32 arrays, and one bandwidth, still build
    for good in (np.arange(1, 4), np.array([0.05, 0.1, 0.2], dtype=np.float32), [0.05]):
        sg = ScaleGrid(locs, good)
        assert sg.h_points.dtype == float
        assert_allclose(sg.h_points, np.asarray(good, dtype=float), rtol=0)


def test_scale_grid_needs_a_list_of_bandwidths():
    # a lone bandwidth used to be reported as an empty list
    locs = Grid1D(np.linspace(0.0, 1.0, 5))
    with pytest.raises(ValueError, match="^h_points needs at least 1 point, got 0$"):
        ScaleGrid(locs, [])
    for bad in (0.05, [[0.05, 0.1]]):
        with pytest.raises(ValueError, match="^h_points must be a one-dimensional sequence$"):
            ScaleGrid(locs, bad)


def test_weight_matrix_rejects_bad_points_and_kernels(setup, malformed):
    measure, sg, _ = setup
    kernel = gaussian_kernel()
    # measurement points follow the grids' points rule, with at least 2 of them
    for pts, message in (
        ([0.5], "needs at least 2 points, got 1"),
        (np.zeros((4, 5)), "must be a one-dimensional sequence"),
        ([[0.1, 0.2], [0.3]], "must be a one-dimensional sequence"),
        (["a", "b", "c"], "must hold real numbers, got ['a', 'b', 'c']"),
        ([True, 0.5, 1], "must hold real numbers, got [True, 0.5, 1]"),
        ([0.5, 0.2, 0.9], "must be strictly increasing"),
        ([0.2, np.nan], "contains non-finite entries"),
    ):
        message = re.escape(f"measurement points {message}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            weight_matrix(kernel, pts, sg)
    for pts, message in malformed(measure, "measurement points", "a one-dimensional sequence"):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            weight_matrix(kernel, pts, sg)
    # the kernel returns one real weight per (location, measurement point) pair
    shape = "an array of shape (12, 20)"
    outputs = malformed(np.ones((12, 20)), "kernel output at h=0.04", shape)
    for out in (1.0, np.ones(20), np.ones((1, 20)), np.ones((20, 12))):
        outputs.append((out, f"kernel output at h=0.04 must be {shape}"))
    for out, message in outputs:
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            weight_matrix(lambda offsets, h, out=out: out, measure, sg)
    listed = weight_matrix(kernel, [0, 1], sg)
    assert_array_equal(listed, weight_matrix(kernel, np.array([0.0, 1.0]), sg))
    with pytest.raises(ValueError, match="^kernel output at h=0.04 contains non-finite entries$"):
        weight_matrix(lambda offsets, h: np.full_like(offsets, np.nan), measure, sg)
    with pytest.raises(ValueError, match="^kernel weights sum to zero at h=0.04$"):
        weight_matrix(lambda offsets, h: 0.0 * offsets, measure, sg)


def test_smoothing_needs_curves(setup):
    _, sg, raw = setup
    surfaces = FunctionalSample(np.zeros((2, 9)), Grid2D([0.0, 0.5, 1.0], [0.0, 0.5, 1.0]))
    for bad in (surfaces, raw.values):
        with pytest.raises(ValueError, match="^smooth_sample needs a FunctionalSample on a 1-D"):
            smooth_sample(bad, gaussian_kernel(), sg)


def test_scale_grid_builds_its_lattice_once():
    locs = Grid1D(np.linspace(0.0, 1.0, 5))
    sg = ScaleGrid(locs, [0.04, 0.08, 0.16])
    assert sg.grid is sg.grid
    assert ScaleGrid(locs, [0.08]).grid is locs
    with pytest.raises(ValueError, match="^h_points needs one or at least 3 bandwidths, got 2$"):
        ScaleGrid(locs, [0.05, 0.1])


def test_a_tiny_bandwidth_smooths_to_the_identity_without_a_warning(setup):
    # offsets / h is finite but its square overflows: each weight off the
    # diagonal is exp(-inf) = 0, so the smoothing is the identity
    _, _, raw = setup
    sg = ScaleGrid(raw.grid, [1e-170])
    assert_array_equal(smooth_sample(raw, gaussian_kernel(), sg).values, raw.values)
    band, plain = scb_scale_space(raw, gaussian_kernel(), sg), scb_one_sample(raw)
    assert band.quantile == plain.quantile
    assert_array_equal(band.upper, plain.upper)
    # at 5e-324 the quotient itself overflows
    assert_array_equal(weight_matrix(gaussian_kernel(), raw.grid.points,
                                     ScaleGrid(raw.grid, [5e-324])), np.eye(20))
