"""Functional samples on fixed grids and their pointwise statistics.

A FunctionalSample is an N x P matrix of N functions observed on a shared
1-D grid or 2-D rectangular lattice. Surfaces are stored row-major over
(x, y): the flat column index of lattice node (ix, iy) is ix * n_y + iy.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVarianceError, _is_real

__all__ = ["Grid1D", "Grid2D", "FunctionalSample"]


def _ascending_points(points, name, fewest=3):
    """points as a read-only float array, or ValueError naming the field unless
    they are a 1-D sequence of at least fewest real numbers (not bools or
    strings: a numeric ndarray passes by its dtype, any other sequence entry by
    entry), finite and strictly increasing."""
    pts = np.asarray(points)
    if pts.ndim != 1:
        raise ValueError(f"{name} must be a one-dimensional sequence")
    numeric = isinstance(points, np.ndarray) and pts.dtype.kind in "iuf"
    if not (numeric or all(map(_is_real, points))):
        raise ValueError(f"{name} must hold real numbers, got {points!r}")
    if pts.size < fewest:
        raise ValueError(f"{name} needs at least {fewest} points, got {pts.size}")
    pts = pts.astype(float)
    if not np.all(np.isfinite(pts)):
        raise ValueError(f"{name} contains non-finite entries")
    if not np.all(np.diff(pts) > 0):
        raise ValueError(f"{name} must be strictly increasing")
    pts.setflags(write=False)
    return pts


def _trapezoid_weights(points):
    w = np.empty_like(points)
    w[0] = 0.5 * (points[1] - points[0])
    w[-1] = 0.5 * (points[-1] - points[-2])
    w[1:-1] = 0.5 * (points[2:] - points[:-2])
    return w


@dataclass(frozen=True, eq=False)
class Grid1D:
    """Strictly increasing evaluation points on a compact interval."""

    points: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", _ascending_points(self.points, "points"))

    @property
    def n_points(self):
        return self.points.size

    def trapezoid_weights(self):
        """Quadrature weights matching the actual (possibly uneven) spacing."""
        return _trapezoid_weights(self.points)


@dataclass(frozen=True, eq=False)
class Grid2D:
    """Full rectangular lattice over x_points by y_points."""

    x_points: np.ndarray
    y_points: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x_points", _ascending_points(self.x_points, "x_points"))
        object.__setattr__(self, "y_points", _ascending_points(self.y_points, "y_points"))

    @property
    def n_x(self):
        return self.x_points.size

    @property
    def n_y(self):
        return self.y_points.size

    @property
    def n_points(self):
        return self.n_x * self.n_y

    def lattice_coords(self):
        """(x, y) coordinates of every node in flat (row-major) order."""
        xx, yy = np.meshgrid(self.x_points, self.y_points, indexing="ij")
        return xx.ravel(), yy.ravel()

    def trapezoid_weights(self):
        """Product trapezoid weights in flat order; they sum to the area."""
        return np.outer(
            _trapezoid_weights(self.x_points), _trapezoid_weights(self.y_points)
        ).ravel()


def grids_equal(a, b):
    """Exact equality of grid coordinates (and type)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Grid1D):
        return bool(np.array_equal(a.points, b.points))
    return bool(np.array_equal(a.x_points, b.x_points) and np.array_equal(a.y_points, b.y_points))


@dataclass(frozen=True, eq=False)
class FunctionalSample:
    """N functions observed on a shared grid, one row per function."""

    values: np.ndarray
    grid: "Grid1D | Grid2D"

    def __post_init__(self):
        vals = np.asarray(self.values)
        if vals.dtype.kind not in "iuf":
            raise ValueError(f"values must hold real numbers, got dtype {vals.dtype}")
        vals = np.array(vals, dtype=float)
        if vals.ndim != 2:
            raise ValueError("values must be an N x P matrix")
        if vals.shape[1] != self.grid.n_points:
            raise ValueError(f"values have {vals.shape[1]} columns but the grid has "
                             f"{self.grid.n_points} points")
        if not np.all(np.isfinite(vals)):
            raise ValueError("values contain non-finite entries")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def n_samples(self):
        return self.values.shape[0]

    @property
    def n_points(self):
        return self.values.shape[1]


def _point_label(grid, p):
    if isinstance(grid, Grid1D):
        return f"{p} (s={grid.points[p]:.6g})"
    xs, ys = grid.lattice_coords()
    return f"{p} (x={xs[p]:.6g}, y={ys[p]:.6g})"


def _bad_scale(scale):
    """True where a scale cannot studentize: it is not finite, or below 2^-511,
    where its square, the variance behind it, is no longer a normal double."""
    return ~((scale >= 2.0**-511) & (scale < np.inf))


def _nonzero_scale(scale, grid, name, values=()):
    """scale, raising at its first grid point that _bad_scale flags or where
    none of the (N, P) arrays values behind it varies: with
    DegenerateVarianceError where none varies (a zero scale, when values is
    empty), else with ValueError.

    Equal curves leave a scale of rounding size, below n^2 2^-52 of their
    value for n curves in all, so only the points where the scale is that
    small next to the first curves' magnitude are searched for equal values.
    """
    tol = sum(len(v) for v in values) ** 2 * 2.0**-52
    suspect = _bad_scale(scale)
    for v in values:
        suspect |= scale <= tol * np.abs(v[0])
    suspect = np.flatnonzero(suspect)
    if suspect.size:
        # without values, only a zero scale tells of equal values
        spread = sum(np.ptp(v[:, suspect], axis=0) for v in values) if values else scale[suspect]
        failed = np.flatnonzero((spread == 0) | _bad_scale(scale[suspect]))
        if failed.size:
            k = int(failed[0])
            p = int(suspect[k])
            where = f"at grid point {_point_label(grid, p)}"
            if spread[k] == 0:
                raise DegenerateVarianceError(f"{name} is zero {where}")
            if not np.isfinite(scale[p]):
                raise ValueError(f"{name} is not finite {where}")
            raise ValueError(f"{name} underflows {where}")
    return scale


def _mean_var(v):
    """Bitwise np.mean and np.var(ddof=1) along axis -2: consumes v, squaring it in place."""
    mean = v.sum(axis=-2, keepdims=True) / v.shape[-2]
    np.square(np.subtract(v, mean, out=v), out=v)
    return mean[..., 0, :], v.sum(axis=-2) / (v.shape[-2] - 1)


def _mean_field(y, x=None):
    """(center, scale, rate) of the studentized mean field along axis -2.

    One sample Y of N rows: the mean, the sd (divisor N-1) and sqrt(N).
    Two independent groups Y and X of N and M rows, with c = N/M: the mean
    difference, the pooled sqrt((1 + 1/c) var_Y + (1 + c) var_X) and
    sqrt(N + M - 2). Leading axes index independent replicates. y and x are
    consumed (_mean_var); zero scales are the caller's to check.
    """
    n = y.shape[-2]
    mean_y, var_y = _mean_var(y)
    if x is None:
        return mean_y, np.sqrt(var_y), np.sqrt(n)
    mean_x, var_x = _mean_var(x)
    c = n / x.shape[-2]
    var = (1.0 + 1.0 / c) * var_y + (1.0 + c) * var_x
    return mean_y - mean_x, np.sqrt(var), np.sqrt(n + x.shape[-2] - 2)


def gradient(sample):
    """Finite-difference partials of every row, one fresh (N, P) array per axis.

    Central second-order differences at interior points and one-sided
    second-order stencils at the grid edges, per axis: the tuple holds the
    derivative on a 1-D grid and the (x, y) partials on a 2-D lattice.
    """
    n, grid = sample.n_samples, sample.grid
    if isinstance(grid, Grid1D):
        return (np.gradient(sample.values, grid.points, axis=1, edge_order=2),)
    cube = sample.values.reshape(n, grid.n_x, grid.n_y)
    dx, dy = np.gradient(cube, grid.x_points, grid.y_points, axis=(1, 2), edge_order=2)
    return dx.reshape(n, -1), dy.reshape(n, -1)
