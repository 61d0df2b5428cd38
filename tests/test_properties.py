"""Property tests: invariants that hold for every input, checked with hypothesis.

Example counts are small and the search is derandomized, so the suite stays
fast and every run checks the same examples.
"""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from scbands import (
    ECDensityModel,
    ExperimentConfig,
    FunctionalSample,
    Grid1D,
    Grid2D,
    LKCVector,
    ModelSpec,
    QuantileNoSolutionError,
    SCBand,
    eec,
    gen_model,
    lambda_hat,
    lkc_1d,
    lkc_2d,
    normed_residuals,
    read_sample,
    scb_one_sample,
    scb_two_sample,
    substream,
    tgkf_quantile,
    two_sample_residuals,
    write_sample,
)
from scbands.experiments import _Pipeline
from scbands.fdata import _gradient, _mean_field, _trapezoid_weights, gradient
from scbands.lkc import _lambda, _lkc_1d, _lkc_2d
from scbands.sampleio import _scan

FEW = settings(max_examples=12, deadline=None, derandomize=True)

# |a| in [0.25, 8] with either sign, b in [-20, 20].
scales = st.floats(0.25, 8.0).flatmap(lambda a: st.sampled_from([a, -a]))
shifts = st.floats(-20.0, 20.0)


@pytest.mark.parametrize(
    "method", ["tgkf", "boots-t", "boots", "gmult-t", "gmult", "rmult-t", "rmult", "gauss-sim"]
)
@FEW
@given(a=scales, b=shifts, seed=st.integers(0, 2**32 - 1))
def test_band_affine_equivariance(method, a, b, seed):
    # The band of a Y + b is a center + b with |a| times the half-width, and
    # the quantile is the same: the statistics are studentized or scale
    # with |a|, and a seeded method draws from the same stream.
    sample = gen_model(ModelSpec("A", resolution=30), 12, substream(seed, 0))
    moved = FunctionalSample(a * sample.values + b, sample.grid)
    base = scb_one_sample(sample, method, 0.1, replicates=100, seed=seed)
    other = scb_one_sample(moved, method, 0.1, replicates=100, seed=seed)
    assert_allclose(other.quantile, base.quantile, rtol=1e-9)
    scale = 1e-12 * (abs(a) + abs(b))
    assert_allclose(other.center, a * base.center + b, rtol=1e-9, atol=scale)
    assert_allclose(
        other.upper - other.center, abs(a) * (base.upper - base.center), rtol=1e-9, atol=scale
    )


@FEW
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 30), m=st.integers(3, 30),
       alpha=st.floats(0.01, 0.3))
def test_two_sample_swap_antisymmetry(seed, n, m, alpha):
    # Swapping the groups negates the center and mirrors the band; the
    # pooled sd, the curvatures and so the tGKF quantile are symmetric.
    spec = ModelSpec("A", resolution=40)
    y, x = gen_model(spec, n, substream(seed, 0)), gen_model(spec, m, substream(seed, 1))
    ab = scb_two_sample(y, x, "tgkf", alpha)
    ba = scb_two_sample(x, y, "tgkf", alpha)
    assert_allclose(ba.quantile, ab.quantile, rtol=1e-12)
    assert np.array_equal(ba.center, -ab.center)
    scale = 1e-12 * np.abs(ab.upper - ab.lower).max()
    assert_allclose(ba.lower, -ab.upper, rtol=1e-12, atol=scale)
    assert_allclose(ba.upper, -ab.lower, rtol=1e-12, atol=scale)


def _solve(curvatures, model, alpha):
    try:
        return tgkf_quantile(LKCVector(1, curvatures), model, alpha)
    except QuantileNoSolutionError:
        assume(False)


models = st.one_of(
    st.just(ECDensityModel.gaussian()),
    st.sampled_from([3, 9, 49, 500]).map(ECDensityModel.student_t),
)
curvature_vectors = st.lists(st.floats(0.0, 60.0), min_size=1, max_size=2).map(tuple)


@FEW
@given(lkc=curvature_vectors, model=models, alpha=st.floats(0.005, 0.45),
       step=st.floats(1e-4, 0.45))
def test_tgkf_quantile_non_increasing_in_alpha(lkc, model, alpha, step):
    # The solver is exact to 1e-9, so the order can only break within it.
    assert _solve(lkc, model, alpha + step) <= _solve(lkc, model, alpha) + 1e-9


@FEW
@given(lkc=curvature_vectors, model=models, alpha=st.floats(0.005, 0.5),
       axis=st.integers(0, 1), step=st.floats(1e-3, 40.0))
def test_tgkf_quantile_non_decreasing_in_each_curvature(lkc, model, alpha, axis, step):
    larger = list(lkc)
    larger[axis % len(lkc)] += step
    assert _solve(tuple(larger), model, alpha) >= _solve(lkc, model, alpha) - 1e-9


@FEW
@given(lkc=curvature_vectors, model=models, alpha=st.floats(0.005, 0.5))
def test_tgkf_quantile_is_the_largest_root(lkc, model, alpha):
    # The band needs the last crossing of alpha/2: the EEC crosses it
    # within the solver's 1e-9 of q and stays below it to the right. (That
    # tolerance does not give eec(q) = alpha/2 to rtol 1e-9 on steep tails:
    # Gaussian, L1 = 55, alpha = 0.5 is off by 1.2e-9 relative.)
    q = _solve(lkc, model, alpha)
    full = LKCVector(1, lkc)
    assert eec(full, model, q - 1e-9) >= alpha / 2.0 > eec(full, model, q + 1e-9)
    assert np.all(eec(full, model, q + np.geomspace(1e-6, 50.0, 40)) < alpha / 2.0)


# Every finite double, subnormals and the largest magnitudes included.
finite = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)
edge = st.sampled_from([5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                        -1.7976931348623157e308, -0.0, 0.1, 1 / 3])
values = st.one_of(finite, edge)


def _bits(x):
    return np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)


@FEW
@given(data=st.data(), two_d=st.booleans(), n=st.integers(1, 4))
def test_sample_csv_round_trip_is_bit_exact(tmp_path_factory, data, two_d, n):
    if two_d:
        grid = Grid2D(np.array([-1e300, 0.0, 3e-310]), np.array([0.0, 1 / 3, 7.0, 1e308]))
    else:
        grid = Grid1D(np.array([-5e-324, 0.0, 5e-324, 0.1, 1.7976931348623157e308]))
    vals = data.draw(arrays(np.float64, (n, grid.n_points), elements=values))
    path = tmp_path_factory.mktemp("csv") / "sample.csv"
    write_sample(path, FunctionalSample(vals, grid))
    back = read_sample(path)
    assert np.array_equal(_bits(back.values), _bits(vals))
    with open(path, newline="") as fh:  # numpy's reader gives the line scan's bits
        next(fh)
        assert np.array_equal(_bits(_scan(fh, grid.n_points)), _bits(vals))
    if two_d:
        assert np.array_equal(_bits(back.grid.x_points), _bits(grid.x_points))
        assert np.array_equal(_bits(back.grid.y_points), _bits(grid.y_points))
    else:
        assert np.array_equal(_bits(back.grid.points), _bits(grid.points))


_entries = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def _group_stacks(draw):
    """Two (R, N, P) and (R, M, P) stacks with N, M >= 2."""
    r, n, m, p = (draw(st.integers(lo, hi)) for lo, hi in ((1, 3), (2, 20), (2, 20), (1, 7)))
    return tuple(draw(arrays(np.float64, (r, k, p), elements=_entries)) for k in (n, m))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(groups=_group_stacks(), plain=st.booleans(), column_major=st.booleans())
def test_in_place_mean_field_is_bitwise_numpy(groups, plain, column_major):
    # the mean field consumes copies that keep the layout (numpy sums a
    # contiguous N axis pairwise); numpy's mean, std and var read the originals
    y, x = (g[0] for g in groups) if plain else groups  # plain: (N, P), no replicate axis
    if column_major:  # the N axis contiguous, as in a Fortran-ordered (N, P) sample
        y, x = (np.swapaxes(np.swapaxes(g, -1, -2).copy(), -1, -2) for g in (y, x))
    n, m = y.shape[-2], x.shape[-2]
    center, scale, rate, ((mean, factor),) = _mean_field(np.copy(y))
    assert np.array_equal(_bits(center), _bits(y.mean(axis=-2)))
    assert np.array_equal(_bits(mean), _bits(y.mean(axis=-2))) and factor == 1.0
    assert np.array_equal(_bits(scale), _bits(y.std(axis=-2, ddof=1)))
    assert rate == np.sqrt(n)
    c = n / m
    var = (1.0 + 1.0 / c) * y.var(axis=-2, ddof=1) + (1.0 + c) * x.var(axis=-2, ddof=1)
    center, scale, rate, groups = _mean_field(np.copy(y), np.copy(x))
    assert np.array_equal(_bits(center), _bits(y.mean(axis=-2) - x.mean(axis=-2)))
    assert np.array_equal(_bits(scale), _bits(np.sqrt(var)))
    assert rate == np.sqrt(n + m - 2)
    # each group's mean, and the factor of its residual group (the two-sample band's weights)
    for (mean, factor), g, k in zip(groups, (y, x), (1.0 + 1.0 / c, 1.0 + c)):
        assert np.array_equal(_bits(mean), _bits(g.mean(axis=-2)))
        assert factor == np.sqrt(k)


@FEW
@given(values=arrays(np.float64, st.tuples(st.integers(2, 9), st.integers(3, 12)),
                     elements=_entries))
def test_curve_lambda_hat_is_bitwise_the_gradient_variance(values):
    grid = Grid1D(np.geomspace(1.0, 3.0, values.shape[1]))
    sample = FunctionalSample(values, grid)
    expected = gradient(sample)[0].var(axis=0, ddof=1)
    assert np.array_equal(_bits(lambda_hat(sample)), _bits(expected))


@st.composite
def _grids(draw):
    """A Grid1D or Grid2D of 3 to 9 unevenly spaced points per axis."""
    steps = st.lists(st.floats(1e-3, 10.0), min_size=2, max_size=8)
    axes = [np.cumsum([draw(st.floats(-5.0, 5.0))] + draw(steps))
            for _ in range(draw(st.integers(1, 2)))]
    return Grid1D(*axes) if len(axes) == 1 else Grid2D(*axes)


@FEW
@given(grid=_grids(), data=st.data())
def test_lattice_is_its_point_fields(grid, data):
    # axes and n_points are the fields' arrays and node count, the weights
    # the per-axis trapezoid weights (their outer product in 2-D), and the
    # gradient numpy's per axis, all bit for bit
    points = [getattr(grid, f.name) for f in fields(grid)]
    assert len(grid.axes) == len(points) and all(a is p for a, p in zip(grid.axes, points))
    assert grid.n_points == np.prod([p.size for p in points]) and type(grid.n_points) is int
    per_axis = [_trapezoid_weights(p) for p in points]
    weights = per_axis[0] if len(points) == 1 else np.outer(*per_axis).ravel()
    assert np.array_equal(_bits(grid.trapezoid_weights()), _bits(weights))
    coords = np.meshgrid(*points, indexing="ij")
    assert all(np.array_equal(a, c.ravel()) for a, c in zip(grid.lattice_coords(), coords))
    values = data.draw(arrays(np.float64, (2, grid.n_points), elements=_entries))
    cube = values.reshape(2, *(p.size for p in points))
    for k, part in enumerate(gradient(FunctionalSample(values, grid))):
        expected = np.gradient(cube, points[k], axis=k + 1, edge_order=2).reshape(2, -1)
        assert np.array_equal(_bits(part), _bits(expected))


_DTYPES = {
    np.int64: st.integers(-1000, 1000),
    np.float32: st.floats(-1e6, 1e6, width=32),
    np.float64: _entries,
}


@st.composite
def _real_inputs(draw, shape, unique=False):
    """A finite int64, float32 or float64 array of the given shape, or its nested list."""
    dtype = draw(st.sampled_from(list(_DTYPES)))
    x = draw(arrays(dtype, shape, elements=_DTYPES[dtype], unique=unique))
    return x.tolist() if draw(st.booleans()) else x


@FEW
@given(data=st.data(), n=st.integers(1, 4), p=st.integers(3, 9))
def test_held_arrays_are_read_only_float64_copies(data, n, p):
    # every array a grid, sample or band holds is errors._real_array's copy:
    # read-only float64, bitwise np.asarray(x, dtype=float), sharing no memory
    points = data.draw(_real_inputs(p, unique=True))
    points = sorted(points) if isinstance(points, list) else np.sort(points)
    grid = Grid1D(points)
    values = data.draw(_real_inputs((n, p)))
    triple = data.draw(_real_inputs((3, p)))
    lower, center, upper = np.sort(triple, axis=0)
    if isinstance(triple, list):
        lower, center, upper = lower.tolist(), center.tolist(), upper.tolist()
    band = SCBand(center, lower, upper, 2.0, "tgkf", 0.05, grid)
    held = [(grid.points, points), (FunctionalSample(values, grid).values, values),
            (band.center, center), (band.lower, lower), (band.upper, upper)]
    for arr, given_x in held:
        assert arr.dtype == np.float64 and not arr.flags.writeable
        assert np.array_equal(_bits(arr), _bits(np.asarray(given_x, dtype=float)))
        assert not np.shares_memory(arr, given_x)


@FEW
@given(exponent=st.integers(-500, 500), two_d=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(exponent=-500, two_d=False, seed=1)
@example(exponent=500, two_d=True, seed=2)
def test_owned_arrays_pass_the_public_checks(tmp_path_factory, exponent, two_d, seed):
    # Samples and bands built from arrays the package made skip the array
    # rule; the public constructors accept the same arrays and hold them
    # bitwise, and the skipped ones are read-only and share no memory with
    # the curves passed in, for curves from 2^-500 to 2^500 times unit scale.
    spec = ModelSpec("C", resolution=6) if two_d else ModelSpec("A", resolution=20)
    drawn = [gen_model(spec, n, substream(seed, k)) for k, n in enumerate((8, 6))]
    y, x = (FunctionalSample(2.0**exponent * s.values, s.grid) for s in drawn)
    path = tmp_path_factory.mktemp("owned") / "sample.csv"
    write_sample(path, y)
    owned = [*drawn, read_sample(path), normed_residuals(y), *two_sample_residuals(y, x)[3]]
    for method in ("tgkf", "boots-t", "rmult-t"):
        owned.append(scb_one_sample(y, method, replicates=50, seed=seed))
        if method != "boots-t":
            owned.append(scb_two_sample(y, x, method, replicates=50, seed=seed))
    for obj in owned:
        checked = type(obj)(*(getattr(obj, f.name) for f in fields(obj)))
        arrays_held = [f.name for f in fields(obj) if isinstance(getattr(obj, f.name), np.ndarray)]
        for name in arrays_held:
            arr = getattr(obj, name)
            assert arr.dtype == np.float64 and not arr.flags.writeable
            assert np.array_equal(_bits(arr), _bits(getattr(checked, name)))
            assert not any(np.shares_memory(arr, s.values) for s in (y, x))


@st.composite
def _scale_grid_triples(draw):
    """(h_min, h_max, count): any floats, denormals among them, with h_max often
    h_min itself or a few ulps above it, and counts from -2 to 8."""
    h_min = draw(st.floats() | st.floats(0.0, 2.0**-1022))
    h_max = h_min
    for _ in range(draw(st.integers(0, 3))):
        h_max = math.nextafter(h_max, math.inf)
    return h_min, draw(st.just(h_max) | st.floats()), draw(st.integers(-2, 8))


@pytest.mark.filterwarnings("error")
@settings(max_examples=100, deadline=None, derandomize=True)
@given(triple=_scale_grid_triples())
@example(triple=(1.0, 1.0 + 2**-52, 3))
@example(triple=(5e-324, 1e-323, 3))
def test_a_scale_grid_the_config_accepts_builds_its_pipeline(triple):
    # ScaleGrid owns the bandwidth rules, so a config no sweep could smooth
    # with is refused when it is read, never when it runs
    try:
        cfg = ExperimentConfig(model=ModelSpec("B", resolution=12), scale_grid=triple)
    except ValueError:
        return
    pipe = _Pipeline(cfg)
    assert pipe.grid.n_points == 12 * cfg.scale_grid[2]


@st.composite
def _spaced_points(draw):
    """3 to 9 increasing points: exactly uniform (a dyadic step from an integer),
    np.linspace (steps that differ in their last bits) or random steps."""
    n = draw(st.integers(3, 9))
    kind = draw(st.sampled_from(["uniform", "linspace", "random"]))
    if kind == "uniform":
        return draw(st.integers(-4, 4)) + 2.0 ** draw(st.integers(-6, 3)) * np.arange(n)
    if kind == "linspace":
        return np.linspace(draw(st.floats(-5.0, 5.0)), draw(st.floats(5.5, 20.0)), n)
    return np.cumsum([draw(st.floats(-5.0, 5.0))] + draw(st.lists(st.floats(1e-3, 10.0),
                                                                   min_size=n - 1, max_size=n - 1)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(axes=st.lists(_spaced_points(), min_size=1, max_size=2),
       lead=st.lists(st.integers(1, 3), max_size=2), n=st.integers(1, 4), data=st.data())
def test_stack_gradient_is_bitwise_numpy(axes, lead, n, data):
    # one stencil per axis, applied along that axis of any stack, is
    # np.gradient(edge_order=2) bit for bit: uniform and uneven spacing,
    # curves and surfaces, with and without leading replicate axes
    grid = Grid1D(*axes) if len(axes) == 1 else Grid2D(*axes)
    values = data.draw(arrays(np.float64, (*lead, n, grid.n_points), elements=_entries))
    cube = values.reshape(*lead, n, *(a.size for a in axes))
    parts = _gradient(values, grid)
    assert len(parts) == len(axes)
    for k, part in enumerate(parts):
        expected = np.gradient(cube, axes[k], axis=cube.ndim - len(axes) + k, edge_order=2)
        assert part.shape == values.shape
        assert np.array_equal(_bits(part), _bits(expected.reshape(values.shape)))
    if not lead:
        sample = FunctionalSample(values, grid)
        assert all(np.array_equal(_bits(a), _bits(b)) for a, b in zip(gradient(sample), parts))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(axes=st.lists(_spaced_points(), min_size=1, max_size=2), r=st.integers(1, 4),
       n=st.integers(2, 6), data=st.data())
def test_curvature_cores_on_a_stack_are_each_replicate_s_public_result(axes, r, n, data):
    # the private cores take leading axes; the public functions are checked
    # shells over them, so every slice of a stack is the public result bit for bit
    grid = Grid1D(*axes) if len(axes) == 1 else Grid2D(*axes)
    values = data.draw(arrays(np.float64, (r, n, grid.n_points), elements=_entries))
    lam = _lambda([values], grid)
    curvatures = _lkc_1d(lam, grid) if len(axes) == 1 else np.stack(_lkc_2d(lam, grid), axis=-1)
    for k in range(r):
        alone = lambda_hat(FunctionalSample(values[k], grid))
        assert np.array_equal(_bits(lam[k]), _bits(alone))
        public = (lkc_1d(alone, grid),) if len(axes) == 1 else lkc_2d(alone, grid)
        assert np.array_equal(_bits(np.atleast_1d(curvatures[k])), _bits(public))


# Curvatures from zero through typical values to past what the solver can
# bracket: with dof near 2 the EEC tail decays so slowly that large L1 or
# L2 leave no root below 2^40.
_curvature = st.one_of(st.just(0.0), st.floats(0.0, 60.0), st.floats(1e3, 1e15))
_solver_models = st.one_of(
    st.just(ECDensityModel.gaussian()),
    st.sampled_from([1.5, 2.0, 2.0 + 1e-9, 2.001, 3.0, 9.0, 500.0]).map(ECDensityModel.student_t),
)


_curvature_rows = st.integers(1, 2).flatmap(
    lambda dim: st.lists(st.tuples(*[_curvature] * dim), min_size=1, max_size=6))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(rows=_curvature_rows, model=_solver_models, alpha=st.floats(0.005, 0.5))
@example(rows=[(5.0,), (1e15,)], model=ECDensityModel.student_t(2.001), alpha=0.05)
@example(rows=[(5.0, 1.0), (5.0, 0.0)], model=ECDensityModel.student_t(1.5), alpha=0.05)
@example(rows=[(0.0, 0.0), (3.0, 2.0), (60.0, 1e3)], model=ECDensityModel.gaussian(), alpha=0.3)
def test_lockstep_solve_is_each_row_solved_alone(rows, model, alpha):
    # R curvature rows solved in lockstep give each row's own quantile bit
    # for bit; when rows have no quantile, the solve raises one of their errors
    vectors = [LKCVector(1, c) for c in rows]
    alone, errors = [], set()
    for v in vectors:
        try:
            alone.append(tgkf_quantile(v, model, alpha))
        except QuantileNoSolutionError as exc:
            errors.add(str(exc))
    if errors:
        with pytest.raises(QuantileNoSolutionError) as raised:
            tgkf_quantile(vectors, model, alpha)
        assert str(raised.value) in errors
        return
    together = tgkf_quantile(vectors, model, alpha)
    assert together.shape == (len(rows),) and together.dtype == np.float64
    assert np.array_equal(_bits(together), _bits(alone))
