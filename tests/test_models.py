"""Synthetic process generators used by the simulation experiments."""

import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from scbands import (
    FunctionalSample,
    Grid1D,
    Grid2D,
    ModelSpec,
    add_observation_noise,
    gen_model,
    gen_model_block,
    model_mean,
    substream,
)
from scbands.fdata import grids_equal
from scbands.models import (
    _model_parts,
    bernstein_basis,
    bump_basis_1d,
    bump_basis_2d,
    model_amplitude,
)


def test_mean_curve_values():
    s = np.array([0.0, 0.25, 1.0])
    mu = model_mean("A", s)
    assert_allclose(mu, np.sin(8 * np.pi * s) * np.exp(-3 * s), rtol=1e-15)
    assert_allclose(mu[0], 0.0, atol=1e-15)
    # the two curve models share one mean
    assert_array_equal(model_mean("B", s), mu)


def test_mean_surface_values():
    x = np.array([0.0, 0.5, 1.0])
    y = np.array([1.0, 0.2, 0.5])
    assert_allclose(model_mean("C", x, y), x * y, rtol=1e-15)


def test_amplitude_profiles_positive():
    s = np.linspace(0.0, 1.0, 50)
    amp = model_amplitude("A", s)
    assert (amp > 0).all()
    assert_allclose(amp, ((0.6 - s) ** 2 + 1.0) / 6.0, rtol=1e-15)
    x = np.linspace(0.0, 1.0, 10)
    assert (model_amplitude("C", x, x) > 0).all()


def test_bernstein_basis_partition_of_unity():
    s = np.linspace(0.0, 1.0, 33)
    b = bernstein_basis(s)
    assert b.shape == (7, 33)
    assert_allclose(b.sum(axis=0), 1.0, rtol=1e-12)
    assert (b >= 0).all()


def test_bump_basis_shapes_and_peaks():
    s = np.linspace(0.0, 1.0, 200)
    b = bump_basis_1d(s)
    assert b.shape == (21, 200)
    # each bump peaks at its own center
    centers = np.arange(1, 22) / 21.0
    peak_locs = s[np.argmax(b, axis=1)]
    assert_allclose(peak_locs, centers, atol=1 / 199)
    b2 = bump_basis_2d(s[:36], s[:36])
    assert b2.shape == (36, 36)


def test_generated_sample_mean_and_grid():
    spec = ModelSpec("A", resolution=120)
    s = gen_model(spec, 4000, rng=substream(60, 0))
    assert isinstance(s.grid, Grid1D)
    assert s.values.shape == (4000, 120)
    mu = model_mean("A", s.grid.points)
    err = np.abs(s.values.mean(axis=0) - mu)
    # mean error scales like amplitude / sqrt(N)
    assert (err < 5.0 * model_amplitude("A", s.grid.points) / np.sqrt(4000)).all()


def test_generated_sample_sd_matches_amplitude():
    # the heavy-tailed t law has no fourth moment, so its empirical sd
    # needs a wider window than the other coefficient laws
    for k, (law, rtol) in enumerate(
        [("gaussian", 0.05), ("t3", 0.15), ("chisq", 0.06)]
    ):
        spec = ModelSpec("B", coef_law=law, resolution=100)
        s = gen_model(spec, 10000, rng=substream(61, k))
        sd = s.values.std(axis=0, ddof=1)
        assert_allclose(sd, model_amplitude("B", s.grid.points), rtol=rtol)


def test_surface_model_lattice():
    spec = ModelSpec("C", resolution=20)
    s = gen_model(spec, 50, rng=substream(62, 0))
    assert isinstance(s.grid, Grid2D)
    assert s.values.shape == (50, 400)
    x, y = s.grid.lattice_coords()
    err = np.abs(s.values.mean(axis=0) - x * y)
    assert (err < 5.0 * model_amplitude("C", x, y) / np.sqrt(50)).all()


def test_generation_is_reproducible():
    spec = ModelSpec("B", coef_law="chisq", nu=7)
    a = gen_model(spec, 10, rng=substream(63, 0))
    b = gen_model(spec, 10, rng=substream(63, 0))
    c = gen_model(spec, 10, rng=substream(63, 1))
    assert_array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_midpoint_design_grid():
    spec = ModelSpec("A", resolution=100, midpoint_grid=True)
    s = gen_model(spec, 2, rng=substream(64, 0))
    assert_allclose(s.grid.points, (np.arange(100) + 0.5) / 100.0)
    default = ModelSpec("A", resolution=100).make_grid()
    assert default.points[0] == 0.0 and default.points[-1] == 1.0
    surface = ModelSpec("C", resolution=5, midpoint_grid=True).make_grid()
    assert_array_equal(surface.x_points, (np.arange(5) + 0.5) / 5)
    assert_array_equal(surface.y_points, (np.arange(5) + 0.5) / 5)


def test_observation_noise_variance():
    spec = ModelSpec("A", resolution=50)
    clean = gen_model(spec, 3000, rng=substream(65, 0))
    noisy = add_observation_noise(clean, 0.5, rng=substream(65, 1))
    diff = noisy.values - clean.values
    assert_allclose(diff.std(ddof=1), 0.5, rtol=0.05)
    assert_allclose(diff.mean(), 0.0, atol=0.02)
    same = add_observation_noise(clean, 0.0, rng=substream(65, 2))
    assert_array_equal(same.values, clean.values)


def test_observation_noise_rejects_negative_sd():
    clean = gen_model(ModelSpec("A", resolution=30), 5, rng=substream(66, 0))
    with pytest.raises(ValueError, match="non-negative"):
        add_observation_noise(clean, -0.1, substream(66, 1))


@pytest.mark.filterwarnings("error")
def test_noise_that_overflows_gets_the_named_error_without_a_numpy_warning():
    huge = FunctionalSample(np.full((3, 30), 1.7e308), Grid1D(np.linspace(0.0, 1.0, 30)))
    with pytest.raises(ValueError, match="^values contains non-finite entries$"):
        add_observation_noise(huge, 1e308, substream(66, 2))


def test_spec_validation():
    for name in ("D", ["A"], None):
        with pytest.raises(ValueError, match=f"^unknown model {re.escape(repr(name))}$"):
            ModelSpec(name)
    with pytest.raises(ValueError, match="law"):
        ModelSpec("A", coef_law="poisson")
    with pytest.raises(ValueError):
        ModelSpec("A", resolution=2)
    with pytest.raises(ValueError):
        gen_model(ModelSpec("A"), 0, substream(67, 0))
    with pytest.raises(ValueError, match="^chi-square dof must be at least 1$"):
        ModelSpec("A", coef_law="chisq", nu=0)
    s = np.linspace(0.0, 1.0, 5)
    for profile in (model_mean, model_amplitude):
        with pytest.raises(ValueError, match="^unknown model 'D'$"):
            profile("D", s)
        with pytest.raises(ValueError, match=r"^unknown model \['A'\]$"):
            profile(["A"], s)
        # a wrong coordinate count is named, not an unpacking error
        with pytest.raises(ValueError, match="^model A takes 1 coordinate array, got 2$"):
            profile("A", s, s)
        with pytest.raises(ValueError, match="^model C takes 2 coordinate arrays, got 1$"):
            profile("C", s)
        with pytest.raises(ValueError, match="^model B takes 1 coordinate array, got 0$"):
            profile("B")


def test_midpoint_grid_is_a_boolean():
    # a JSON "false" used to read as True and draw on the midpoint grid
    for flag in ("false", "true", 0, 1, None):
        with pytest.raises(ValueError, match=f"^midpoint_grid must be true or false, got {flag!r}"):
            ModelSpec("B", midpoint_grid=flag)
    for flag in (True, np.bool_(True)):
        spec = ModelSpec("B", midpoint_grid=flag)
        assert spec.midpoint_grid is True and spec == ModelSpec("B", midpoint_grid=True)


def test_draw_counts_are_integers():
    # 2.5 paths used to draw 2, and replicates=True one sample
    spec = ModelSpec("A", resolution=30)
    with pytest.raises(ValueError, match="^n must be an integer, got 2.5$"):
        gen_model(spec, 2.5, substream(68))
    for bad in (True, 1.5, "3"):
        with pytest.raises(ValueError, match=f"^replicates must be an integer, got {bad!r}$"):
            gen_model_block(spec, 3, substream(68), bad)
    block = gen_model_block(spec, np.int64(3), substream(68), 2.0)
    assert block.tobytes() == gen_model_block(spec, 3, substream(68), 2).tobytes()


def test_model_parts_are_cached_and_read_only():
    parts = _model_parts(ModelSpec("B", resolution=33))
    misses = _model_parts.cache_info().misses
    # an equal spec (resolution coerced from 33.0) hits the same entry
    assert _model_parts(ModelSpec("B", resolution=33.0)) is parts
    assert _model_parts.cache_info().misses == misses
    grid, basis, mu, amp = parts
    for arr in (grid.points, basis, mu, amp):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
    # specs that differ only in the grid get their own entries
    finer = _model_parts(ModelSpec("B", resolution=34))
    midpoints = _model_parts(ModelSpec("B", resolution=33, midpoint_grid=True))
    assert finer is not parts and midpoints is not parts
    assert finer[0].n_points == 34
    assert_array_equal(midpoints[0].points, (np.arange(33) + 0.5) / 33)
    assert not np.array_equal(midpoints[1], basis)


@pytest.mark.parametrize(
    "spec",
    [
        ModelSpec("A", resolution=50),
        ModelSpec("B", coef_law="t3", resolution=64, midpoint_grid=True),
        ModelSpec("C", coef_law="chisq", nu=3, resolution=9),
        ModelSpec("C", coef_law="t3", resolution=9, midpoint_grid=True),
    ],
    ids=["A", "B", "C", "C-midpoint"],
)
def test_gen_model_equals_uncached_formula(spec):
    grid = spec.make_grid()
    if spec.model == "C":
        x, y = grid.lattice_coords()
        basis, mu, amp = bump_basis_2d(x, y), model_mean("C", x, y), model_amplitude("C", x, y)
    else:
        s = grid.points
        basis = bernstein_basis(s) if spec.model == "A" else bump_basis_1d(s)
        mu, amp = model_mean(spec.model, s), model_amplitude(spec.model, s)
    basis = basis / np.linalg.norm(basis, axis=0)
    gen = substream(68, 0)
    shape = (7, basis.shape[0])
    if spec.coef_law == "gaussian":
        coeffs = gen.standard_normal(shape)
    elif spec.coef_law == "t3":
        coeffs = gen.standard_t(3, shape) / np.sqrt(3.0)
    else:
        coeffs = (gen.chisquare(spec.nu, shape) - spec.nu) / np.sqrt(2.0 * spec.nu)
    expected = mu + amp * (coeffs @ basis)
    for _ in range(2):  # the first call may fill the cache, the second reads it
        sample = gen_model(spec, 7, substream(68, 0))
        assert sample.values.tobytes() == expected.tobytes()
        assert grids_equal(sample.grid, grid)


def test_gen_model_block_stacks_gen_model():
    # A block of R samples is R successive gen_model draws from its one
    # stream, bit for bit, under every coefficient law.
    for law in ("gaussian", "t3", "chisq"):
        spec = ModelSpec("B", coef_law=law, resolution=50)
        block = gen_model_block(spec, 4, substream(69, 1), 3)
        assert block.shape == (3, 4, 50)
        gen = substream(69, 1)
        for r in range(3):
            assert block[r].tobytes() == gen_model(spec, 4, gen).values.tobytes()
        one = gen_model_block(spec, 4, substream(69, 2), 1)
        assert one[0].tobytes() == gen_model(spec, 4, substream(69, 2)).values.tobytes()
