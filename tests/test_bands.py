"""Band construction: one-sample, two-sample, and scale-space surfaces."""

import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy import stats

import scbands.bands
from scbands import (
    METHOD_NAMES,
    DegenerateVarianceError,
    FunctionalSample,
    Grid1D,
    Grid2D,
    ModelSpec,
    SCBand,
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


def test_band_boundary_is_covered(malformed):
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
    with pytest.raises(ValueError, match=re.escape("truth has shape (4,), band has (3,)")):
        covers(band, np.zeros(4))
    for bad, message in malformed(band.center, "truth", "a one-dimensional sequence"):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            covers(band, bad)


def test_band_arrays_match_the_grid_and_are_ordered(malformed):
    g = Grid1D(np.array([0.0, 0.5, 1.0]))
    center, half = np.array([1.0, 2.0, 3.0]), np.full(3, 0.5)
    with pytest.raises(ValueError, match="^upper does not match the grid size$"):
        SCBand(center, center - half, np.ones(4), 2.0, "tgkf", 0.05, g)
    with pytest.raises(ValueError, match="^center must be a one-dimensional sequence$"):
        SCBand(np.ones((3, 1)), center - half, center + half, 2.0, "tgkf", 0.05, g)
    with pytest.raises(ValueError, match="^band must satisfy lower <= center <= upper$"):
        SCBand(center, center + half, center - half, 2.0, "tgkf", 0.05, g)
    arrays = {"center": center, "lower": center - half, "upper": center + half}
    for name, good in arrays.items():
        for bad, message in malformed(good, name, "a one-dimensional sequence"):
            with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
                SCBand(**{**arrays, name: bad}, quantile=2.0, method="tgkf", alpha=0.05, grid=g)


def test_band_arrays_are_read_only_copies():
    g = Grid1D(np.array([0.0, 0.5, 1.0]))
    center, half = np.array([1.0, 2.0, 3.0]), np.full(3, 0.5)
    upper = center + half
    band = SCBand(center, center - half, upper, 2.0, "tgkf", 0.05, g)
    # neither writing to the band's arrays nor to the arrays passed in can
    # break lower <= center <= upper after validation
    with pytest.raises(ValueError, match="read-only"):
        band.upper[0] = -1.0
    upper[0] = -1.0
    assert_array_equal(band.upper, [1.5, 2.5, 3.5])
    for name in ("center", "lower", "upper"):
        assert not getattr(band, name).flags.writeable


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
    # a resampling seed is a non-negative integer: 1.5 no longer gives seed 1's band
    for bad in (1.5, "1", True):
        with pytest.raises(ValueError, match=f"^seed must be an integer, got {bad!r}$"):
            scb_one_sample(s, method="rmult-t", replicates=200, seed=bad)
    assert scb_one_sample(s, method="rmult-t", replicates=200, seed=1.0).quantile == a.quantile
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
    # On a lattice the message names the node's (x, y) coordinates.
    surface = substream(3, 0).standard_normal((4, 20))
    surface[:, 7] = 2.0
    lattice = Grid2D(np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 4))
    with pytest.raises(DegenerateVarianceError,
                       match=re.escape("pointwise sd is zero at grid point 7 (x=0.25, y=1)")):
        scb_one_sample(FunctionalSample(surface, lattice))


@pytest.mark.parametrize("two_sample", [False, True], ids=["one-sample", "two-sample"])
def test_equal_curves_have_zero_sd_when_their_mean_rounds(two_sample):
    # Three curves equal to 0.1 at a grid point have a mean 1 ulp above 0.1,
    # so their sd came out about 1e-17 instead of 0, and the tgkf band got a
    # half-width of 3e-16 there (quantile 31.07) instead of an error.
    g = Grid1D(np.linspace(0.0, 1.0, 5))
    y, x = substream(9, 0).standard_normal((3, 5)), substream(9, 1).standard_normal((4, 5))
    methods = [m for m in METHOD_NAMES if not (two_sample and m.startswith("boots"))]
    name = "pooled" if two_sample else "pointwise"

    def build(method="tgkf"):
        samples = [FunctionalSample(y, g), FunctionalSample(x, g)][: 1 + two_sample]
        return (scb_two_sample if two_sample else scb_one_sample)(*samples, method, replicates=50)

    for value in (0.1, 1.0 / 3.0, 1e-300, 1e300):
        y[:, 2] = x[:, 2] = value
        for method in methods:
            with pytest.raises(DegenerateVarianceError,
                               match=re.escape(f"{name} sd is zero at grid point 2 (s=0.5)")):
                build(method)
    # Curves that differ by one ulp there still vary, and so do two groups
    # that are equal within one group only.
    y[:, 2] = [1.0, 1.0 + 2.0**-52, 1.0]
    x[:, 2] = np.arange(4.0)
    assert build().upper[2] > build().lower[2]
    if two_sample:
        y[:, 2] = 0.1
        assert build().upper[2] > build().lower[2]


@pytest.mark.parametrize("method, kernel", [("rmult-t", "mult_t_quantile"),
                                            ("boots-t", "boots_t_quantile")])
def test_one_sample_kernels_read_the_normed_residuals(monkeypatch, method, kernel):
    # A one-sample resampling kernel reads one FunctionalSample, the normed
    # residuals, never the raw sample or a 1-tuple of groups.
    sample = gen_model(ModelSpec("A", resolution=30), 12, rng=substream(48, 0))
    seen = []
    real = getattr(scbands.bands, kernel)

    def spy(data, *args):
        seen.append(data)
        return real(data, *args)

    monkeypatch.setattr(scbands.bands, kernel, spy)
    scb_one_sample(sample, method, replicates=50)
    (data,) = seen
    assert isinstance(data, FunctionalSample)
    assert_array_equal(data.values, normed_residuals(sample).values)


# 2^e for e across the magnitudes of double samples: steps of 2 up to
# 2^-500, where the pointwise variance loses precision and then underflows,
# steps of 24 octaves in between, and steps of 1/8 over the top 4 octaves,
# where it overflows. At integer e the scaling is exact.
_EXPONENTS = np.r_[np.arange(-560, -500, 2), np.arange(-500, 508, 24),
                   np.arange(508, 512.01, 0.125)]
_FIELD_ERROR = re.compile(r"(pointwise|pooled) sd (is not finite|underflows) at grid point ")


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "method, two_sample",
    [(m, False) for m in METHOD_NAMES]
    + [(m, True) for m in METHOD_NAMES if not m.startswith("boots")],
)
def test_scaled_samples_give_the_scaled_band_or_a_named_error(method, two_sample):
    # Every column varies, so the band of 2^e times the sample is 2^e times
    # the band, with the same quantile, unless the field names the scale
    # that cannot studentize: no kernel forms second moments of raw values.
    g = Grid1D(np.linspace(0.0, 1.0, 20))
    y = np.random.default_rng(0).standard_normal((6, 20))
    x = np.random.default_rng(1).standard_normal((5, 20))

    def band(scale):
        samples = [FunctionalSample(v * scale, g) for v in ((y, x) if two_sample else (y,))]
        build = scb_two_sample if two_sample else scb_one_sample
        return build(*samples, method, 0.05, 200, 1)

    ref = band(1.0)
    for e in _EXPONENTS:
        try:
            scaled = band(2.0**e)
        except ValueError as exc:
            assert type(exc) is ValueError and _FIELD_ERROR.match(str(exc)), (e, exc)
            continue
        assert_allclose(np.r_[scaled.quantile, scaled.lower / 2.0**e, scaled.upper / 2.0**e],
                        np.r_[ref.quantile, ref.lower, ref.upper], rtol=1e-9, err_msg=str(e))


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


def test_band_size_and_grid_checks():
    # the one field builder checks one or two samples before any quantile
    g = Grid1D(np.linspace(0.0, 1.0, 10))
    one = FunctionalSample(np.ones((1, 10)), g)
    two = FunctionalSample(substream(46).standard_normal((2, 10)), g)
    moved = FunctionalSample(two.values, Grid1D(np.linspace(0.0, 2.0, 10)))
    with pytest.raises(ValueError, match="^a band needs at least 2 curves$"):
        scb_one_sample(one)
    for y, x in ((one, two), (two, one)):
        with pytest.raises(ValueError, match="^both groups need at least 2 curves$"):
            scb_two_sample(y, x)
    with pytest.raises(ValueError, match="^grid mismatch between the two samples$"):
        scb_two_sample(two, moved)


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
