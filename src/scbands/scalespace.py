"""Kernel smoothing of noisy curves into (location, bandwidth) samples.

Smoothing a discretely observed curve with a whole range of bandwidths at
once produces a surface over the (s, h) rectangle. Treating those surfaces
as ordinary 2-D functional data lets the band machinery make simultaneous
statements over locations and bandwidths together, which removes the need
to pick one smoothing parameter.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import _real_array
from .fdata import FunctionalSample, Grid1D, Grid2D, _ascending_points

__all__ = ["gaussian_kernel", "ScaleGrid", "weight_matrix", "smooth_sample"]


def gaussian_kernel():
    """The weight function K(offsets, h) = exp(-offsets^2 / (2 h^2)).

    Smooth everywhere with unbounded support. Any kernel given to the
    smoothing map is such a function of (offsets, h); the scale-space limit
    theory needs it to be at least C3 jointly in (s, h).
    """

    def kernel(offsets, h):
        with np.errstate(over="ignore"):  # a tiny h: z or z^2 is inf, its weight exp(-inf) = 0
            z = offsets / h
            return np.exp(-0.5 * z * z)

    return kernel


@dataclass(frozen=True, eq=False)
class ScaleGrid:
    """Evaluation locations plus a strictly increasing positive bandwidth list
    whose steps are at least 2^-511 (fdata._bad_scale's threshold), so the
    gradient stencil's step products stay normal doubles.

    grid, built once, is the grid of the smoothed values: the locations
    themselves for one bandwidth, else the (s, h) lattice with x = locations
    and y = bandwidths. Two bandwidths cannot form a valid 2-D lattice and
    are rejected; use one, or three and more.
    """

    s_points: Grid1D
    h_points: np.ndarray
    grid: "Grid1D | Grid2D" = field(init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.s_points, Grid1D):
            raise ValueError("s_points must be a Grid1D: smoothing applies to curves, not surfaces")
        h = _ascending_points(self.h_points, "h_points", fewest=1)
        if h.size == 2:
            raise ValueError("h_points needs one or at least 3 bandwidths, got 2")
        if h[0] <= 0:
            raise ValueError(f"bandwidths must be positive, got {h[0]:.6g}")
        step = np.diff(h).min(initial=np.inf)
        if step < 2.0**-511:
            raise ValueError(f"h_points steps must be at least 2^-511, got {step:.6g}")
        object.__setattr__(self, "h_points", h)
        grid = self.s_points if h.size == 1 else Grid2D(self.s_points.points, h)
        object.__setattr__(self, "grid", grid)


def weight_matrix(kernel, measure_points, sg):
    """Linear map from values at the measurement points to the (s, h) lattice.

    Row (i_s * n_h + i_h) holds the kernel weights producing the smoothed
    value at location s_points[i_s] and bandwidth h_points[i_h], rescaled
    to sum to 1: a convex combination, so smoothed values stay inside the
    data range. The measurement points follow the grids' points rule, with
    at least 2 of them. errors._real_array reads the "kernel output at h=<h>",
    which must hold one weight per (location, measurement point): (n_s, P).
    """
    pts = _ascending_points(measure_points, "measurement points", fewest=2)
    offs = sg.s_points.points[:, None] - pts[None, :]
    per_h = []
    for h in sg.h_points:
        name, what = f"kernel output at h={h:.6g}", f"an array of shape {offs.shape}"
        k = _real_array(name, kernel(offs, h), 2, what)
        if k.shape != offs.shape:
            raise ValueError(f"{name} must be {what}")
        row_sums = k.sum(axis=1, keepdims=True)
        if np.any(row_sums == 0):
            raise ValueError(f"kernel weights sum to zero at h={h:.6g}")
        per_h.append(k / row_sums)
    # (n_s, n_h, P) -> flat row-major (s major, h minor) to match Grid2D.
    return np.stack(per_h, axis=1).reshape(sg.grid.n_points, pts.size)


def smooth_sample(raw, kernel, sg):
    """Smooth every row of a 1-D sample onto sg.grid, the (s, h) lattice
    (or the locations, when sg holds one bandwidth)."""
    if not isinstance(raw, FunctionalSample) or not isinstance(raw.grid, Grid1D):
        raise ValueError("smooth_sample needs a FunctionalSample on a 1-D grid")
    w = weight_matrix(kernel, raw.grid.points, sg)
    return FunctionalSample(raw.values @ w.T, sg.grid)
