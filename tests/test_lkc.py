"""Curvature field estimation and the curvature integrals."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from scbands import (
    FunctionalSample,
    Grid1D,
    Grid2D,
    lambda_hat,
    lkc_1d,
    lkc_2d,
    lkc_estimate,
    normed_residuals,
    substream,
    two_sample_residuals,
)
from scbands.fdata import gradient
from scbands.lkc import tau_sq_1d

TWO_PI = 2.0 * np.pi


def cosine_sample(n, seed, *path, n_points=100):
    """Paths A cos(2 pi s) + B sin(2 pi s) with iid standard normal A, B."""
    grid = Grid1D(np.linspace(0.0, 1.0, n_points))
    ab = substream(seed, *path).standard_normal((n, 2))
    cs = np.cos(TWO_PI * grid.points)
    sn = np.sin(TWO_PI * grid.points)
    return FunctionalSample(ab[:, :1] * cs + ab[:, 1:] * sn, grid)


def centered(sample):
    return FunctionalSample(
        sample.values - sample.values.mean(axis=0), sample.grid
    )


def test_lambda_of_linear_spread_rows():
    # rows +s and -s have slope spread 2 exactly (ddof=1 variance of {1,-1})
    g = Grid1D(np.linspace(0.0, 1.0, 101))
    lam = lambda_hat(FunctionalSample(np.vstack([g.points, -g.points]), g))
    assert_allclose(lam, 2.0, atol=1e-10)


def test_lambda_of_zero_rows():
    g = Grid1D(np.linspace(0.0, 1.0, 31))
    lam = lambda_hat(FunctionalSample(np.zeros((4, 31)), g))
    assert_allclose(lam, 0.0, atol=0.0)
    assert lkc_1d(lam, g) == 0.0


def test_curvature_integral_of_constant_fields():
    g = Grid1D(np.linspace(0.0, 1.0, 101))
    assert_allclose(lkc_1d(np.ones(101), g), 1.0, rtol=1e-12)
    g2 = Grid1D(np.linspace(0.0, 2.0, 101))
    # integral of sqrt(4) over [0, 2]
    assert_allclose(lkc_1d(4.0 * np.ones(101), g2), 4.0, rtol=1e-12)


def test_surface_curvatures_of_constant_metric():
    g = Grid2D(np.linspace(0.0, 1.0, 41), np.linspace(0.0, 1.0, 41))
    eye = np.broadcast_to(np.eye(2), (g.n_points, 2, 2)).copy()
    l1, l2 = lkc_2d(eye, g)
    # unit square under the identity metric: half perimeter and area
    assert_allclose((l1, l2), (2.0, 1.0), rtol=1e-12)
    l1, l2 = lkc_2d(4.0 * eye, g)
    assert_allclose((l1, l2), (4.0, 4.0), rtol=1e-12)


def test_surface_curvatures_scale_with_domain():
    g = Grid2D(np.linspace(0.0, 2.0, 41), np.linspace(0.0, 3.0, 41))
    eye = np.broadcast_to(np.eye(2), (g.n_points, 2, 2)).copy()
    l1, l2 = lkc_2d(eye, g)
    assert_allclose((l1, l2), (5.0, 6.0), rtol=1e-12)


_steps = st.lists(st.floats(0.01, 1.0), min_size=2, max_size=12)
_entry = st.floats(0.1, 3.0)
_origin = st.floats(-5.0, 5.0)


@settings(max_examples=60, deadline=None)
@given(_steps, _steps, _origin, _origin, _entry, st.floats(-3.0, 3.0), _entry)
def test_surface_curvatures_of_constant_spd_metric(dx, dy, x0, y0, a, b, d):
    # M = A A' with A = [[a, b], [0, d]] is SPD with det M = (a d)^2.
    xs = x0 + np.concatenate([[0.0], np.cumsum(dx)])
    ys = y0 + np.concatenate([[0.0], np.cumsum(dy)])
    g = Grid2D(xs, ys)
    m = np.array([[a * a + b * b, b * d], [b * d, d * d]])
    l1, l2 = lkc_2d(np.broadcast_to(m, (g.n_points, 2, 2)), g)
    w, h = xs[-1] - xs[0], ys[-1] - ys[0]
    assert_allclose(l1, w * np.sqrt(m[0, 0]) + h * np.sqrt(m[1, 1]), rtol=1e-12)
    assert_allclose(l2, w * h * abs(a * d), rtol=1e-12)


def _perimeter_walk_l1(lam, g):
    """Half of sum sqrt(t' M t) over the counterclockwise boundary loop from
    node (0, 0): t is a segment's coordinate delta, M its endpoint-averaged
    matrix."""
    n_x, n_y = g.n_x, g.n_y
    loop = (
        [(i, 0) for i in range(n_x - 1)]
        + [(n_x - 1, j) for j in range(n_y - 1)]
        + [(i, n_y - 1) for i in range(n_x - 1, 0, -1)]
        + [(0, j) for j in range(n_y - 1, 0, -1)]
    )
    ix, iy = np.array(loop).T
    coords = np.column_stack([g.x_points[ix], g.y_points[iy]])
    t = np.roll(coords, -1, axis=0) - coords
    seg = lam[ix * n_y + iy]
    seg_mid = 0.5 * (seg + np.roll(seg, -1, axis=0))
    quad = np.einsum("ki,kij,kj->k", t, seg_mid, t)
    return 0.5 * float(np.sum(np.sqrt(np.clip(quad, 0.0, None))))


@settings(max_examples=60, deadline=None)
@given(_steps, _steps, _origin, _origin, st.integers(0, 2**32 - 1), st.floats(-3.0, 3.0))
def test_surface_length_equals_the_perimeter_walk(dx, dy, x0, y0, seed, log_scale):
    # uneven lattices of 3-12 points per axis; at every node the Gram matrix
    # of two random vectors, a symmetric PSD field that varies along the edges
    xs = x0 + np.concatenate([[0.0], np.cumsum(dx)])
    ys = y0 + np.concatenate([[0.0], np.cumsum(dy)])
    g = Grid2D(xs, ys)
    u, v = 10.0**log_scale * np.random.default_rng(seed).standard_normal((2, g.n_points, 2))
    lam = np.empty((g.n_points, 2, 2))
    lam[:, 0, 0] = u[:, 0] ** 2 + u[:, 1] ** 2
    lam[:, 1, 1] = v[:, 0] ** 2 + v[:, 1] ** 2
    lam[:, 0, 1] = lam[:, 1, 0] = u[:, 0] * v[:, 0] + u[:, 1] * v[:, 1]
    assert lkc_2d(lam, g)[0] == _perimeter_walk_l1(lam, g)


def test_lambda_2d_shape_and_symmetry():
    g = Grid2D(np.linspace(0.0, 1.0, 15), np.linspace(0.0, 1.0, 15))
    rng = np.random.default_rng(8)
    lam = lambda_hat(FunctionalSample(rng.standard_normal((12, g.n_points)), g))
    assert lam.shape == (g.n_points, 2, 2)
    assert not lam.flags.writeable
    # exactly symmetric, with no symmetrising step
    assert np.array_equal(lam, np.transpose(lam, (0, 2, 1)))
    # diagonal entries are variances
    assert (lam[:, 0, 0] >= 0).all()
    assert (lam[:, 1, 1] >= 0).all()


def test_lambda_field_needs_exactly_equal_off_diagonals():
    g = Grid2D(np.linspace(0.0, 1.0, 4), np.linspace(0.0, 1.0, 3))
    vals = np.tile(np.array([[2.0, 0.3], [0.3, 1.0]]), (g.n_points, 1, 1))
    # the unit square under this constant metric
    assert_allclose(lkc_2d(vals, g), (np.sqrt(2.0) + 1.0, np.sqrt(1.91)), rtol=1e-12)
    vals[5, 1, 0] = np.nextafter(0.3, 1.0)  # one ulp apart
    with pytest.raises(ValueError, match="field matrices must be symmetric"):
        lkc_2d(vals, g)


def test_curve_field_is_checked_against_its_grid(malformed):
    g = Grid1D(np.linspace(0.0, 1.0, 40))
    cases = [
        (np.ones(39), r"^1-D field must be an array of shape \(40,\)$"),
        (np.ones((40, 2, 2)), r"^1-D field must be an array of shape \(40,\)$"),
        (np.r_[np.ones(39), -1.0], "derivative variances must be non-negative"),
        (np.r_[np.ones(39), np.nan], "field contains non-finite entries"),
        (np.r_[np.ones(39), np.inf], "field contains non-finite entries"),
    ]
    for lam, match in cases:
        with pytest.raises(ValueError, match=match):
            lkc_1d(lam, g)
    for lam, message in malformed(np.ones(40), "1-D field", "an array of shape (40,)"):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            lkc_1d(lam, g)
    with pytest.raises(ValueError, match="lkc_1d needs a 1-D grid"):
        lkc_1d(np.ones(40), Grid2D(g.points, g.points))


def test_surface_field_is_checked_against_its_grid(malformed):
    g = Grid2D(np.linspace(0.0, 1.0, 4), np.linspace(0.0, 1.0, 3))
    eye = np.tile(np.eye(2), (g.n_points, 1, 1))
    negative, nonfinite = eye.copy(), eye.copy()
    negative[3, 1, 1] = -1e-300
    nonfinite[2, 0, 1] = nonfinite[2, 1, 0] = np.nan
    cases = [
        (eye[:-1], r"^2-D field must be an array of shape \(12, 2, 2\)$"),
        (np.ones(12), r"^2-D field must be an array of shape \(12, 2, 2\)$"),
        (negative, "diagonal entries must be non-negative"),
        (nonfinite, "field contains non-finite entries"),
    ]
    for lam, match in cases:
        with pytest.raises(ValueError, match=match):
            lkc_2d(lam, g)
    for lam, message in malformed(eye, "2-D field", "an array of shape (12, 2, 2)"):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            lkc_2d(lam, g)
    with pytest.raises(ValueError, match="lkc_2d needs a 2-D grid"):
        lkc_2d(eye, Grid1D(np.linspace(0.0, 1.0, 12)))


# Non-square lattices with geometric (non-uniform) and evenly spaced axes,
# down to the 3-points-per-axis minimum.
LATTICES = [
    (np.geomspace(0.1, 3.0, 7), np.linspace(0.0, 1.0, 11)),
    (np.linspace(-1.0, 1.0, 11), np.geomspace(1.0, 2.0, 7)),
    (np.array([0.0, 0.5, 2.0]), np.array([1.0, 2.0, 3.0, 4.0, 5.0])),
    (np.geomspace(1.0, 4.0, 3), np.array([0.0, 0.5, 2.0])),
]


def _stacked_lambda_2d(residuals):
    """The 2-D field as one 3-index product over the centered (N, P, 2) gradient."""
    grads = np.stack(gradient(residuals), axis=-1)
    centered = grads - grads.mean(axis=0)
    return np.einsum("npi,npj->pij", centered, centered) / (residuals.n_samples - 1)


@pytest.mark.parametrize("n", [2, 5, 30])
@pytest.mark.parametrize("lattice", range(len(LATTICES)))
def test_lambda_2d_equals_the_stacked_gradient_formula(lattice, n):
    g = Grid2D(*LATTICES[lattice])
    values = substream(31, lattice, n).standard_normal((n, g.n_points)).cumsum(axis=1)
    r = FunctionalSample(values, g)
    assert_array_equal(lambda_hat(r), _stacked_lambda_2d(r))


@pytest.mark.parametrize("lattice", range(len(LATTICES)))
def test_two_sample_2d_curvatures_integrate_the_summed_field(lattice):
    g = Grid2D(*LATTICES[lattice])
    y = FunctionalSample(substream(32, lattice, 0).standard_normal((9, g.n_points)), g)
    x = FunctionalSample(substream(32, lattice, 1).standard_normal((6, g.n_points)), g)
    groups = two_sample_residuals(y, x)[3]
    summed = lambda_hat(groups[0]) + lambda_hat(groups[1])
    assert lkc_estimate(*groups).curvatures == lkc_2d(summed, g)


def test_cosine_curvature_field_near_constant():
    s = cosine_sample(4000, 21, 1)
    lam = lambda_hat(centered(s))
    assert_allclose(lam, TWO_PI**2, rtol=0.10)


def test_cosine_arc_length_from_normed_residuals():
    # the normalized residual path of a two-component field is a unit
    # circle traversed once, so the estimate is 2 pi up to grid error
    for n in (10, 40, 200):
        l1 = lkc_1d(lambda_hat(normed_residuals(cosine_sample(n, 21, 2, n))), Grid1D(np.linspace(0, 1, 100)))
        assert_allclose(l1, TWO_PI, atol=0.02)


def test_cosine_arc_length_from_centered_residuals():
    s = cosine_sample(4000, 21, 1)
    l1 = lkc_1d(lambda_hat(centered(s)), s.grid)
    assert abs(l1 - TWO_PI) < 0.2


def test_cosine_fluctuation_variance():
    # sqrt(N) (L1_hat - 2 pi) has limit variance pi^2 for known unit scale
    vals = np.empty(150)
    for r in range(150):
        s = cosine_sample(80, 21, 0, r)
        vals[r] = np.sqrt(80.0) * (lkc_1d(lambda_hat(centered(s)), s.grid) - TWO_PI)
    ratio = vals.var(ddof=1) / np.pi**2
    assert 0.6 < ratio < 1.5


def test_cosine_plug_in_variance():
    s = cosine_sample(2000, 12, 3)
    assert_allclose(tau_sq_1d(centered(s)), np.pi**2, rtol=0.08)


def test_tau_sq_requires_curve_grid():
    g = Grid2D(np.linspace(0, 1, 5), np.linspace(0, 1, 5))
    with pytest.raises(ValueError, match="1-D"):
        tau_sq_1d(FunctionalSample(np.zeros((3, 25)), g))


def test_residual_estimators_need_two_rows_of_a_sample():
    s = cosine_sample(5, 18)
    one = FunctionalSample(s.values[:1], s.grid)
    with pytest.raises(ValueError, match="^lambda_hat needs a FunctionalSample of residuals$"):
        lambda_hat(s.values)
    for estimator in (lambda_hat, tau_sq_1d):
        with pytest.raises(ValueError, match="^gradient covariance needs at least 2 residual rows"):
            estimator(one)
    other = cosine_sample(5, 18, n_points=101)
    with pytest.raises(ValueError, match="^grid mismatch between the residual samples$"):
        lkc_estimate(s, other)


def test_two_sample_curvature_swap_invariance():
    rng = np.random.default_rng(17)
    g = Grid1D(np.linspace(0.0, 1.0, 60))
    base = np.sin(2 * np.pi * g.points)
    y = FunctionalSample(rng.standard_normal((30, 60)) + base, g)
    x = FunctionalSample(1.5 * rng.standard_normal((20, 60)), g)
    ry, rx = two_sample_residuals(y, x)[3]
    rx2, ry2 = two_sample_residuals(x, y)[3]
    a = lkc_estimate(ry, rx)
    b = lkc_estimate(rx2, ry2)
    assert_allclose(a.curvatures, b.curvatures, rtol=1e-12)
    assert a.l0 == b.l0 == 1


def test_two_sample_curvature_of_shared_law():
    # two independent groups of the cosine process: the pooled limit field
    # is again a unit-variance cosine field, arc length 2 pi
    y = cosine_sample(400, 9, 0)
    x = cosine_sample(400, 9, 1)
    lkc = lkc_estimate(*two_sample_residuals(y, x)[3])
    assert_allclose(lkc.curvatures[0], TWO_PI, rtol=0.05)
