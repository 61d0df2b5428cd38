"""Functional samples on fixed grids and their pointwise statistics.

A FunctionalSample is an N x P matrix of N functions observed on a shared
grid, a rectangular _Lattice: a Grid1D of points or a Grid2D over x and y
points. Surfaces are stored row-major over (x, y): the flat column index of
lattice node (ix, iy) is ix * n_y + iy, so lines ix to jx are one run of columns.
"""

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DegenerateVarianceError, _real_array

__all__ = ["Grid1D", "Grid2D", "FunctionalSample"]

# bands._tgkf_bands takes a block's residual stacks, and lkc._lambda their
# gradients, in chunks of about this many values per array, so their
# temporaries stay small and in cache.
_CHUNK_VALUES = 1 << 14


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

    @functools.cached_property
    def _stencils(self):
        """Each axis's _stencil, made once for gradient's line ranges."""
        return tuple(map(_stencil, self.axes))

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


def _suspect(scale, values=()):
    """Where _nonzero_scale searches scale, with any leading axes: where
    _bad_scale flags it, or where it is at most n^2 2^-52 of the first of the
    (..., N, P) arrays values behind it, for n curves in all."""
    tol = sum(v.shape[-2] for v in values) ** 2 * 2.0**-52
    suspect = _bad_scale(scale)
    for v in values:
        suspect |= scale <= tol * np.abs(v[..., 0, :])
    return suspect


def _nonzero_scale(scale, grid, name, values=()):
    """scale, raising at its first grid point that _bad_scale flags or where
    none of the (N, P) arrays values behind it varies: with
    DegenerateVarianceError where none varies (a zero scale, when values is
    empty), else with ValueError.

    Equal curves leave a scale of rounding size, below n^2 2^-52 of their
    value for n curves in all, so only the points where the scale is that
    small next to the first curves' magnitude (_suspect) are searched for
    equal values.
    """
    suspect = np.flatnonzero(_suspect(scale, values))
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


def _stencil(points):
    """np.gradient's edge_order=2 coefficients along an axis of points, as
    (interior, first, last). interior is 2 h when every step equals the first
    step h (numpy's uniform-spacing test), for (f[2:] - f[:-2]) / (2 h), and
    else the (a, b, c) arrays of a f[:-2] + b f[1:-1] + c f[2:]; first and
    last are the (a, b, c) of the one-sided stencils on f[:3] and f[-3:].
    Each coefficient is numpy's expression, so each derivative is bitwise
    numpy's."""
    dx = np.diff(points)
    if (dx == dx[0]).all():
        h = dx[0]
        return 2.0 * h, (-1.5 / h, 2.0 / h, -0.5 / h), (0.5 / h, -2.0 / h, 1.5 / h)
    d1, d2 = dx[:-1], dx[1:]
    interior = -d2 / (d1 * (d1 + d2)), (d2 - d1) / (d1 * d2), d1 / (d2 * (d1 + d2))
    d1, d2 = dx[0], dx[1]
    first = -(2.0 * d1 + d2) / (d1 * (d1 + d2)), (d1 + d2) / (d1 * d2), -d1 / (d2 * (d1 + d2))
    d1, d2 = dx[-2], dx[-1]
    last = d2 / (d1 * (d1 + d2)), -(d2 + d1) / (d1 * d2), (2.0 * d2 + d1) / (d2 * (d1 + d2))
    return interior, first, last


def _combine(out, coefficients, rows):
    """out = a r0 + b r1 + c r2, summed left to right as numpy does, in place
    with one temporary."""
    (a, b, c), (r0, r1, r2) = coefficients, rows
    np.multiply(a, r0, out=out)
    term = np.multiply(b, r1)
    out += term
    out += np.multiply(c, r2, out=term)


def gradient(values, grid, start=0, stop=None):
    """Finite-difference partials of every row of values, (..., N, P) on grid,
    on lattice lines start to stop of the first axis (all by default; a 1-D
    grid's lines are its points): one (..., N, lines x line size) array per
    axis. Leading axes index replicates.

    Along an axis of stride s, a flat row's central difference at p reads p - s,
    p and p + s, with _stencil's coefficients laid out per position, in one
    pass over the range and a one-line halo; one-sided stencils then overwrite
    the lattice's true edges. An entry is the same expression of the same values
    for any range: bitwise np.gradient(edge_order=2). A step whose square
    underflows (below about 1e-154) can give inf or NaN, without a warning.
    """
    sizes = tuple(a.size for a in grid.axes)
    stop, line = sizes[0] if stop is None else stop, grid.n_points // sizes[0]
    # the halo, widened to the three lines an edge stencil reads
    lo, hi = max(0, min(start - 1, sizes[0] - 3)), min(sizes[0], max(stop + 1, 3))
    f = values[..., lo * line:hi * line]
    width, offset = (stop - start) * line, (start - lo) * line
    parts = []
    with np.errstate(all="ignore"):
        for k, (interior, first, last) in enumerate(grid._stencils):
            n, s = sizes[k], math.prod(sizes[k + 1:])
            out = np.empty((*values.shape[:-1], width))
            q0, q1 = max(0, s - offset), min(width, f.shape[-1] - offset - s)
            rows = [f[..., offset + q0 + d:offset + q1 + d] for d in (-s, 0, s)]
            inner = out[..., q0:q1]
            if np.ndim(interior) == 0:
                np.divide(np.subtract(rows[2], rows[0], out=inner), interior, out=inner)
            else:  # points 0 and n - 1 clip to their neighbours' coefficients, overwritten below
                at = np.arange(start * line + q0, start * line + q1) // s % n - 1
                _combine(inner, [c.take(at, mode="clip") for c in interior], rows)
            # an edge of axis 0 is a whole line at the lattice's ends, of another axis in every line
            shape, ends = ((-1, n, s), (True, True)) if k else ((-1, s), (start == 0, stop == n))
            o = out.reshape(*values.shape[:-1], *shape)
            g = (f[..., offset:offset + width] if k else f).reshape(*values.shape[:-1], *shape)
            if ends[0]:
                _combine(o[..., 0, :], first, [g[..., i, :] for i in (0, 1, 2)])
            if ends[1]:
                _combine(o[..., -1, :], last, [g[..., i, :] for i in (-3, -2, -1)])
            parts.append(out)
    return tuple(parts)
