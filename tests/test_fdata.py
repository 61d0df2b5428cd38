"""Grids, sample containers, residual transforms, and stream plumbing."""

import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from scbands import (
    DegenerateVarianceError,
    FunctionalSample,
    Grid1D,
    Grid2D,
    ceiling_rank_quantile,
    normed_residuals,
    substream,
)
from scbands.fdata import _mean_field, gradient, grids_equal
from scbands.rng import child_sequence


def test_grid1d_basic():
    g = Grid1D(np.linspace(0.0, 1.0, 11))
    assert g.n_points == 11
    assert_allclose(g.points[0], 0.0)
    assert_allclose(g.points[-1], 1.0)
    # the grid's lattice has one axis: its nodes are the points themselves
    assert g.axes == (g.points,) and type(g.n_points) is int
    (coords,) = g.lattice_coords()
    assert_array_equal(coords, g.points)
    assert_allclose(g.trapezoid_weights(), np.r_[0.05, [0.1] * 9, 0.05], rtol=1e-15)


def test_grid1d_rejects_unsorted_points():
    with pytest.raises(ValueError, match="strictly increasing"):
        Grid1D(np.array([0.0, 0.5, 0.4, 1.0]))


def test_grid1d_rejects_duplicates():
    with pytest.raises(ValueError):
        Grid1D(np.array([0.0, 0.3, 0.3, 1.0]))


def test_grid_points_must_be_finite_and_one_dimensional(malformed):
    with pytest.raises(ValueError, match="^points must be a one-dimensional sequence$"):
        Grid1D(np.zeros((3, 3)))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="^y_points contains non-finite entries$"):
            Grid2D([0.0, 0.5, 1.0], [0.0, 0.5, bad])
    # bools, strings and ints past the largest double are not coordinates,
    # whether listed or in an array
    for bad in ([True, 2, 3], np.array([True, False, True]), ["0", "0.5", "1"], ["a", 1, 2],
                [0, 1, 10**400]):
        message = f"points must hold real numbers, got {bad!r}"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            Grid1D(bad)
        with pytest.raises(ValueError, match="^y_" + re.escape(message) + "$"):
            Grid2D([0.0, 0.5, 1.0], bad)
    # a ragged nested list is not a sequence of points
    with pytest.raises(ValueError, match="^points must be a one-dimensional sequence$"):
        Grid1D([[0, 1], [2]])
    with pytest.raises(ValueError, match="^x_points must be a one-dimensional sequence$"):
        Grid2D([[0.0], [0.5, 1.0]], [0.0, 0.5, 1.0])
    points = np.array([0.0, 0.5, 1.0])
    for bad, message in malformed(points, "points", "a one-dimensional sequence"):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            Grid1D(bad)
        for args, axis in (((bad, points), "x_"), ((points, bad), "y_")):
            with pytest.raises(ValueError, match="^" + re.escape(axis + message) + "$"):
                Grid2D(*args)
    # numeric arrays of any integer or float dtype still build
    for good in (np.arange(4), np.array([0.0, 0.5, 1.0], dtype=np.float32), [0, 0.5, np.int8(1)]):
        grid = Grid1D(good)
        assert grid.points.dtype == float
        assert_array_equal(grid.points, np.asarray(good, dtype=float))


def test_grid2d_lattice_row_major():
    g = Grid2D(np.array([0.0, 1.0, 2.0]), np.array([0.0, 0.5, 1.0]))
    assert g.n_points == 9
    x, y = g.lattice_coords()
    # y varies fastest within an x-row of the flattened lattice
    assert_array_equal(x[:6], [0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
    assert_array_equal(y[:6], [0.0, 0.5, 1.0, 0.0, 0.5, 1.0])
    assert g.axes == (g.x_points, g.y_points) and (g.n_x, g.n_y) == (3, 3)
    assert_array_equal(g.trapezoid_weights(), np.outer([0.5, 1.0, 0.5], [0.25, 0.5, 0.25]).ravel())


def test_grid2d_needs_three_points_per_axis():
    with pytest.raises(ValueError, match="at least 3"):
        Grid2D(np.array([0.0, 1.0, 2.0]), np.array([0.0, 0.5]))


def test_sample_shape_validation(malformed):
    g = Grid1D(np.linspace(0.0, 1.0, 40))
    with pytest.raises(ValueError, match="columns"):
        FunctionalSample(np.zeros((3, 7)), g)
    with pytest.raises(ValueError):
        FunctionalSample(np.zeros(40), g)
    for bad in (np.nan, np.inf, -np.inf):
        values = np.zeros((3, 40))
        values[1, 7] = bad
        with pytest.raises(ValueError, match="^values contains non-finite entries$"):
            FunctionalSample(values, g)
    # a ragged list is no matrix
    g3 = Grid1D([0.0, 0.5, 1.0])
    with pytest.raises(ValueError, match="^values must be an N x P matrix$"):
        FunctionalSample([[1, 2, 3], [1, 2]], g3)
    # strings and bools, a bool among numbers too, are not read as numbers
    for bad in (np.array([["1", "2", "3"]]), np.ones((2, 3), dtype=bool), [["a", 2, 3], [1, 2, 3]],
                [[True, 2, 3]], [[1, 2, 3], [1, np.False_, 3]], [np.array([1, 2, 3]), [1, 2, True]]):
        message = f"values must hold real numbers, got {bad!r}"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            FunctionalSample(bad, g3)
    for bad, message in malformed(np.zeros((3, 3)), "values", "an N x P matrix"):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            FunctionalSample(bad, g3)
    for good in (np.arange(6).reshape(2, 3), np.ones((2, 3), dtype=np.float32), [[1, 2.5, 3]],
                 [np.arange(3), (np.int8(1), np.float32(2), 3)]):
        assert_array_equal(FunctionalSample(good, g3).values, np.asarray(good, dtype=float))


def test_pointwise_mean_and_sd():
    g = Grid1D(np.array([0.0, 1.0, 2.0]))
    s = FunctionalSample(np.array([[0.0, 1.0, 4.0], [2.0, 3.0, 0.0]]), g)
    center, sd, rate = _mean_field(np.copy(s.values))
    assert_allclose(center, [1.0, 2.0, 2.0])
    # ddof=1: sd of {0,2} is sqrt(2), of {4,0} is 2 sqrt(2)
    assert_allclose(sd, [np.sqrt(2.0), np.sqrt(2.0), 2.0 * np.sqrt(2.0)])
    assert rate == np.sqrt(2.0)


def test_gradient_exact_on_linear_rows():
    # second-order differences reproduce affine functions exactly
    g = Grid1D(np.linspace(0.0, 2.0, 31))
    rows = np.vstack([3.0 * g.points - 1.0, -0.5 * g.points + 4.0])
    (grad,) = gradient(FunctionalSample(rows, g))
    assert grad.shape == (2, 31)
    assert_allclose(grad[0], 3.0, atol=1e-12)
    assert_allclose(grad[1], -0.5, atol=1e-12)


def test_gradient_2d_exact_on_planes():
    g = Grid2D(np.linspace(0.0, 1.0, 9), np.linspace(0.0, 2.0, 7))
    x, y = g.lattice_coords()
    dx, dy = gradient(FunctionalSample((2.0 * x - 5.0 * y)[None, :], g))
    assert dx.shape == dy.shape == (1, 63)
    assert_allclose(dx, 2.0, atol=1e-12)
    assert_allclose(dy, -5.0, atol=1e-12)


def test_normed_residuals_identities():
    rng = np.random.default_rng(42)
    g = Grid1D(np.linspace(0.0, 1.0, 25))
    s = FunctionalSample(rng.standard_normal((8, 25)), g)
    r = normed_residuals(s).values
    assert_allclose(r.sum(axis=0), 0.0, atol=1e-12)
    # squared column norm is exactly N - 1 after sd normalization
    assert_allclose((r**2).sum(axis=0), 7.0, rtol=1e-12)


def test_normed_residuals_scale_invariant():
    rng = np.random.default_rng(3)
    g = Grid1D(np.linspace(0.0, 1.0, 15))
    vals = rng.standard_normal((6, 15))
    a = normed_residuals(FunctionalSample(vals, g)).values
    b = normed_residuals(FunctionalSample(2.5 * vals - 7.0, g)).values
    assert_allclose(a, b, atol=1e-12)


def test_normed_residuals_degenerate_column():
    g = Grid1D(np.linspace(0.0, 1.0, 4))
    vals = np.array([[1.0, 0.0, 0.0, 0.0], [1.0, 1.0, 2.0, 3.0]])
    with pytest.raises(DegenerateVarianceError, match="grid point 0"):
        normed_residuals(FunctionalSample(vals, g))


def test_grids_equal():
    a = Grid1D(np.linspace(0.0, 1.0, 10))
    b = Grid1D(np.linspace(0.0, 1.0, 10))
    c = Grid1D(np.linspace(0.0, 1.0, 11))
    assert grids_equal(a, b)
    assert not grids_equal(a, c)
    assert not grids_equal(a, Grid2D(a.points, a.points))
    assert grids_equal(Grid2D(a.points, c.points), Grid2D(b.points, c.points))
    assert not grids_equal(Grid2D(a.points, c.points), Grid2D(a.points, a.points))


def test_ceiling_rank_quantile_small_cases():
    draws = np.arange(1.0, 11.0)
    assert ceiling_rank_quantile(draws, 0.05) == 10.0
    assert ceiling_rank_quantile(draws, 0.5) == 5.0
    assert ceiling_rank_quantile(draws, 0.25) == 8.0
    # order of the input draws must not matter
    rng = np.random.default_rng(0)
    shuffled = rng.permutation(draws)
    assert ceiling_rank_quantile(shuffled, 0.25) == 8.0


def test_ceiling_rank_quantile_rejects_bad_input(malformed):
    with pytest.raises(ValueError, match="at least one draw"):
        ceiling_rank_quantile([], 0.05)
    for alpha in (1.5, 0.0, -1.0, 1.0, np.nan):
        with pytest.raises(ValueError, match="alpha must lie in"):
            ceiling_rank_quantile(np.arange(1.0, 11.0), alpha)
    with pytest.raises(ValueError, match="^draws contains non-finite entries$"):
        ceiling_rank_quantile([1.0, np.nan, 3.0], 0.05)
    for bad, message in malformed(np.arange(1.0, 11.0), "draws", "a one-dimensional sequence"):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            ceiling_rank_quantile(bad, 0.05)


def test_substream_reproducible_and_distinct():
    a = substream(11, 4, 0, 3).standard_normal(5)
    b = substream(11, 4, 0, 3).standard_normal(5)
    c = substream(11, 4, 0, 4).standard_normal(5)
    d = substream(12, 4, 0, 3).standard_normal(5)
    assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_child_sequence_feeds_substream():
    seq = child_sequence(7, 1, 2)
    x = substream(seq).standard_normal(4)
    y = substream(7, 1, 2).standard_normal(4)
    assert_array_equal(x, y)


def test_seeds_and_stream_paths_are_non_negative_integers():
    # a seed of 2.7 used to address the stream of seed 2, "3" and True
    # those of 3 and 1
    for bad in (2.7, "3", True, None):
        with pytest.raises(ValueError, match=f"^seed must be an integer, got {bad!r}$"):
            substream(bad)
        with pytest.raises(ValueError, match=f"^stream path entry must be an integer, got {bad!r}"):
            child_sequence(3, 1, bad)
    with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
        substream(-1, 0)
    with pytest.raises(ValueError, match="^stream path entry must be non-negative, got -2$"):
        substream(3, -2)
    draws = substream(3, 1).standard_normal(4)
    for seed, path in ((3.0, 1), (np.int64(3), np.uint8(1)), (3, 1.0)):
        assert_array_equal(substream(seed, path).standard_normal(4), draws)
    # a SeedSequence seed is still a branch of its stream tree
    branch = np.random.SeedSequence(3, spawn_key=(1,))
    assert_array_equal(substream(branch).standard_normal(4), draws)


def _two_step_sequence(seed, *path):
    """The child sequence of (seed, *path) built through the seed's root sequence."""
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(int(seed))
    key = tuple(root.spawn_key) + tuple(int(p) for p in path)
    return np.random.SeedSequence(entropy=root.entropy, spawn_key=key)


@pytest.mark.parametrize(
    "seed",
    [0, 11, 2**40 + 3, np.random.SeedSequence(99, spawn_key=(4, 1))],
    ids=["zero", "int", "big-int", "seed-sequence"],
)
@pytest.mark.parametrize("path", [(), (3,), (9, 1, 250, 2)], ids=["root", "one", "four"])
def test_substream_equals_the_two_step_construction(seed, path):
    # an integer seed's child sequence is built from (entropy, path) directly
    expected = _two_step_sequence(seed, *path)
    seq = child_sequence(seed, *path)
    assert (seq.entropy, seq.spawn_key) == (expected.entropy, expected.spawn_key)
    assert_array_equal(seq.generate_state(8), expected.generate_state(8))
    draws = np.random.Generator(np.random.Philox(expected)).standard_normal(16)
    assert_array_equal(substream(seed, *path).standard_normal(16), draws)
