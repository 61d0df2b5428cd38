"""Functional samples on fixed grids and their pointwise statistics.

A FunctionalSample is an N x P matrix of N functions observed on a shared
grid, a rectangular _Lattice: a Grid1D of points or a Grid2D over x and y
points. Surfaces are stored row-major over (x, y): the flat column index of
lattice node (ix, iy) is ix * n_y + iy.
"""

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DegenerateVarianceError, _real_array

__all__ = ["Grid1D", "Grid2D", "FunctionalSample"]


def _ascending_points(points, name, fewest=3):
    """points as errors._real_array's read-only float copy of a one-dimensional
    sequence, or ValueError naming the field unless it holds at least fewest
    strictly increasing points whose span, last minus first, is a finite double."""
    pts = _real_array(name, points, 1, "a one-dimensional sequence")
    if pts.size < fewest:
        raise ValueError(f"{name} needs at least {fewest} point{'s' * (fewest > 1)}, got {pts.size}")
    if not np.all(np.diff(pts) > 0):
        raise ValueError(f"{name} must be strictly increasing")
    if not math.isfinite(float(pts[-1]) - float(pts[0])):  # Python floats overflow silently
        raise ValueError(f"{name} must span a finite length, got {pts[0]:.6g} to {pts[-1]:.6g}")
    return pts


def _trapezoid_weights(points):
    w = np.empty_like(points)
    w[0] = 0.5 * (points[1] - points[0])
    w[-1] = 0.5 * (points[-1] - points[-2])
    w[1:-1] = 0.5 * (points[2:] - points[:-2])
    return w


@dataclass(frozen=True, eq=False)
class _Lattice:
    """A rectangular lattice with one strictly increasing point field per axis,
    each read by _ascending_points under the field's name. axes (the fields'
    arrays) and n_points (the node count) are attributes set once; nodes are in
    row-major order, the last axis fastest. _labels names each axis's
    coordinate in _point_label's messages."""

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _ascending_points(getattr(self, f.name), f.name))
        object.__setattr__(self, "axes", tuple(getattr(self, f.name) for f in fields(self)))
        object.__setattr__(self, "n_points", math.prod(a.size for a in self.axes))

    def lattice_coords(self):
        """Coordinates of every node in flat order, one array per axis."""
        return tuple(c.ravel() for c in np.meshgrid(*self.axes, indexing="ij"))

    def trapezoid_weights(self):
        """Product trapezoid weights in flat order; they sum to the length or area."""
        return functools.reduce(np.multiply.outer, map(_trapezoid_weights, self.axes)).ravel()


@dataclass(frozen=True, eq=False)
class Grid1D(_Lattice):
    """Strictly increasing evaluation points on a compact interval."""

    _labels = ("s",)
    points: np.ndarray


@dataclass(frozen=True, eq=False)
class Grid2D(_Lattice):
    """Full rectangular lattice over x_points by y_points."""

    _labels = ("x", "y")
    x_points: np.ndarray
    y_points: np.ndarray

    @property
    def n_x(self):
        return self.x_points.size

    @property
    def n_y(self):
        return self.y_points.size


def grids_equal(a, b):
    """Exact equality of grid coordinates (and type)."""
    return type(a) is type(b) and all(map(np.array_equal, a.axes, b.axes))


@dataclass(frozen=True, eq=False)
class FunctionalSample:
    """N functions observed on a shared grid, one row per function."""

    values: np.ndarray
    grid: "Grid1D | Grid2D"

    def __post_init__(self):
        vals = _real_array("values", self.values, 2, "an N x P matrix")
        if vals.shape[1] != self.grid.n_points:
            raise ValueError(f"values have {vals.shape[1]} columns but the grid has "
                             f"{self.grid.n_points} points")
        object.__setattr__(self, "values", vals)

    @property
    def n_samples(self):
        return self.values.shape[0]

    @property
    def n_points(self):
        return self.values.shape[1]


def _point_label(grid, p):
    coords = (f"{name}={c[p]:.6g}" for name, c in zip(grid._labels, grid.lattice_coords()))
    return f"{p} ({', '.join(coords)})"


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
        # without values, only a zero scale tells of equal values; an inf spread is not zero
        with np.errstate(over="ignore"):
            spread = (sum(np.ptp(v[:, suspect], axis=0) for v in values) if values
                      else scale[suspect])
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
    """(center, scale, rate, groups) of the studentized mean field along axis -2.

    One sample Y of N rows: the mean, the sd (divisor N-1) and sqrt(N).
    Two independent groups Y and X of N and M rows, with c = N/M: the mean
    difference, the pooled sqrt(k_Y var_Y + k_X var_X) with k_Y = 1 + 1/c
    and k_X = 1 + c, and sqrt(N + M - 2). groups holds each group G's
    (mean, sqrt(k_G)), k = 1 for one sample: its residual group is
    sqrt(k_G) (G_n - mean) / scale. Leading axes index replicates. y and x
    are consumed (_mean_var). Zero scales, and the inf or NaN ones an
    overflow leaves (without a warning), are the caller's to check.
    """
    n = y.shape[-2]
    with np.errstate(over="ignore", invalid="ignore"):
        mean_y, var_y = _mean_var(y)
        if x is None:
            return mean_y, np.sqrt(var_y), np.sqrt(n), ((mean_y, 1.0),)
        mean_x, var_x = _mean_var(x)
        c = n / x.shape[-2]
        k_y, k_x = 1.0 + 1.0 / c, 1.0 + c
        var = k_y * var_y + k_x * var_x
        groups = (mean_y, math.sqrt(k_y)), (mean_x, math.sqrt(k_x))
        return mean_y - mean_x, np.sqrt(var), np.sqrt(n + x.shape[-2] - 2), groups


def gradient(sample):
    """Finite-difference partials of every row, one fresh (N, P) array per axis.

    Central second-order differences at interior points and one-sided
    second-order stencils at the grid edges, per axis, in one np.gradient
    call over the rows as an (N, *axis sizes) array: the tuple holds the
    derivative on a 1-D grid and the (x, y) partials on a 2-D lattice. A
    step whose square underflows (below about 1e-154) can give inf or NaN
    entries, without a warning.
    """
    n, axes = sample.n_samples, sample.grid.axes
    cube = sample.values.reshape(n, *(a.size for a in axes))
    with np.errstate(all="ignore"):
        parts = np.gradient(cube, *axes, axis=tuple(range(1, cube.ndim)), edge_order=2)
    # numpy returns a bare array, not a 1-tuple, for a single axis
    return tuple(d.reshape(n, -1) for d in (parts if len(axes) > 1 else (parts,)))
