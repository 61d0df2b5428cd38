"""Lipschitz-Killing curvature estimation from normalized residuals.

The field metric is the pointwise covariance of the residual derivative,
Lambda(s) = cov[dR(s)]. Its empirical version turns a residual sample into
the curvatures L1 (metric length, halved boundary length in 2-D) and L2
(metric area) that weight the EC densities.
"""

import math

import numpy as np

from .errors import _real_array
from .fdata import (
    FunctionalSample,
    Grid1D,
    Grid2D,
    _mean_var,
    _nonzero_scale,
    _point_label,
    gradient,
    grids_equal,
)
from .kinematic import LKCVector

__all__ = ["lambda_hat", "lkc_1d", "lkc_2d", "lkc_estimate"]


def lambda_hat(residuals):
    """Empirical covariance (divisor N-1) of the residual gradient field.

    A read-only float array: the (P,) variances of dR/ds on a 1-D grid, the
    (P, 2, 2) covariance matrices of the two partials on a 2-D lattice. There
    the three distinct entries are three column products of the two (N, P)
    partials, centered in place; the off-diagonal one fills (0, 1) and (1, 0):
    exactly symmetric by construction. Raises ValueError at the first grid
    point where an entry is not finite (curves or steps past what a double
    holds); a zero variance is legal.
    """
    if not isinstance(residuals, FunctionalSample):
        raise ValueError("lambda_hat needs a FunctionalSample of residuals")
    n = residuals.n_samples
    if n < 2:
        raise ValueError("gradient covariance needs at least 2 residual rows")
    parts = gradient(residuals)
    with np.errstate(all="ignore"):  # an inf or NaN entry is named below
        if len(parts) == 1:
            lam = _mean_var(parts[0])[1]
        else:
            for d in parts:
                d -= d.mean(axis=0)
            lam = np.empty((residuals.n_points, 2, 2))
            for i, j in ((0, 0), (1, 1), (0, 1)):
                lam[:, i, j] = lam[:, j, i] = np.einsum("np,np->p", parts[i], parts[j])
            lam /= n - 1
    if not np.isfinite(lam).all():
        p = int(np.argwhere(~np.isfinite(lam))[0, 0])
        raise ValueError(f"gradient variance is not finite at grid point "
                         f"{_point_label(residuals.grid, p)}")
    lam.setflags(write=False)
    return lam


def _field(lam, shape, dim):
    """lam as errors._real_array's read-only float copy, of the given shape."""
    what = f"an array of shape {shape}"
    vals = _real_array(f"{dim} field", lam, len(shape), what)
    if vals.shape != shape:
        raise ValueError(f"{dim} field must be {what}")
    return vals


def _integral(terms, grid, name, nodes=None):
    """float(np.sum(terms)), or ValueError naming the grid point of the first
    term where the running sum is not finite: a term or a sum past what a
    double holds. nodes maps terms to flat grid points (None: term k is
    point k). Callers compute terms under np.errstate, as overflows here
    are named, not warned of."""
    total = float(np.sum(terms))
    if not math.isfinite(total):
        k = int(np.argmax(~np.isfinite(np.cumsum(terms))))
        p = k if nodes is None else int(nodes[k])
        raise ValueError(f"{name} is not finite at grid point {_point_label(grid, p)}")
    return total


def lkc_1d(lam, grid):
    """Metric length of the interval: trapezoid integral of sqrt(Lambda).

    lam holds the (P,) derivative variances of lambda_hat on grid, read by
    errors._real_array (named "1-D field" in its errors). Raises ValueError
    at the first grid point where the integral is not finite.
    """
    if not isinstance(grid, Grid1D):
        raise ValueError("lkc_1d needs a 1-D grid")
    lam = _field(lam, (grid.n_points,), "1-D")
    if np.any(lam < 0):
        raise ValueError("derivative variances must be non-negative")
    with np.errstate(over="ignore", invalid="ignore"):
        return _integral(grid.trapezoid_weights() * np.sqrt(lam), grid, "L1 integral")


def lkc_2d(lam, grid):
    """(L1, L2) of the lattice rectangle under the field metric.

    lam holds the (P, 2, 2) covariance matrices of lambda_hat on grid, with
    exactly equal off-diagonals and non-negative diagonals. L1 is half the
    metric length of the rectangle's perimeter: every segment lies along an
    axis, so it contributes |d| sqrt(m), with d its coordinate step and m
    the endpoint average of Lambda_xx (bottom and top edges) or Lambda_yy
    (left and right edges). L2 is the lattice trapezoid integral of
    sqrt(det Lambda). The determinant is clamped at zero: sampling noise
    can push the 2x2 determinant slightly negative. lam is read by
    errors._real_array (named "2-D field" in its errors). Raises ValueError
    at the first grid point where an integral is not finite (for L1, the
    first node of a perimeter segment).
    """
    if not isinstance(grid, Grid2D):
        raise ValueError("lkc_2d needs a 2-D grid")
    vals = _field(lam, (grid.n_points, 2, 2), "2-D")
    if not np.array_equal(vals[:, 0, 1], vals[:, 1, 0]):
        raise ValueError("field matrices must be symmetric")
    if np.any(vals[:, 0, 0] < 0) or np.any(vals[:, 1, 1] < 0):
        raise ValueError("diagonal entries must be non-negative")
    with np.errstate(over="ignore", invalid="ignore"):
        det = vals[:, 0, 0] * vals[:, 1, 1] - vals[:, 0, 1] ** 2
        area = grid.trapezoid_weights() * np.sqrt(np.clip(det, 0.0, None))
        l2 = _integral(area, grid, "L2 integral")

        lxx = vals[:, 0, 0].reshape(grid.n_x, grid.n_y)
        lyy = vals[:, 1, 1].reshape(grid.n_x, grid.n_y)
        dx, dy = np.diff(grid.x_points), np.diff(grid.y_points)
        # bottom, right, top, left: counterclockwise from node (0, 0), so the
        # top and left edges run against their axes; ring holds each segment's first node
        edges = ((dx, lxx[:, 0]), (dy, lyy[-1]), (dx, lxx[:, -1]), (dy, lyy[0]))
        terms = [d * (0.5 * (m[:-1] + m[1:])) * d for d, m in edges]
        terms[2:] = [t[::-1] for t in terms[2:]]
        node = np.arange(grid.n_points).reshape(grid.n_x, grid.n_y)
        ring = np.concatenate((node[:-1, 0], node[-1, :-1], node[:0:-1, -1], node[0, :0:-1]))
        l1 = 0.5 * _integral(np.sqrt(np.concatenate(terms)), grid, "L1 integral", ring)
    return l1, l2


def lkc_estimate(*residuals):
    """LKC vector of the field whose residual groups are given.

    Each group is a normalized residual sample: the one-sample residuals,
    or the pooled-normalized residuals of each of two independent groups
    (see two_sample_residuals in the band module). Their gradient
    covariances add, and the summed field feeds the ordinary 1-D/2-D
    curvature integrals, so the order of the groups does not matter.
    """
    grid = residuals[0].grid
    if not all(grids_equal(r.grid, grid) for r in residuals):
        raise ValueError("grid mismatch between the residual samples")
    lam = sum(lambda_hat(r) for r in residuals)
    if isinstance(grid, Grid1D):
        return LKCVector(1, (lkc_1d(lam, grid),))
    return LKCVector(1, lkc_2d(lam, grid))


def tau_sq_1d(residuals):
    """Plug-in asymptotic variance of the 1-D curvature estimate.

    Evaluates

        tau^2 = 1/2 * integral integral cdot(s,s')^2
                / sqrt(cdot(s,s) cdot(s',s')) ds ds'

    with cdot the empirical covariance of the residual derivative at point
    pairs, so that sqrt(N) (L1_hat - L1) is asymptotically N(0, tau^2) for
    Gaussian-like residuals. The denominator uses the diagonal values
    cdot(s,s), cdot(s',s').
    """
    if not isinstance(residuals, FunctionalSample) or not isinstance(
        residuals.grid, Grid1D
    ):
        raise ValueError("tau_sq_1d needs residuals on a 1-D grid")
    n = residuals.n_samples
    if n < 2:
        raise ValueError("gradient covariance needs at least 2 residual rows")

    (grads,) = gradient(residuals)
    with np.errstate(all="ignore"):  # _nonzero_scale names a variance that overflows
        centered = grads - grads.mean(axis=0)
        cdot = centered.T @ centered / (n - 1)
    diag = _nonzero_scale(np.diag(cdot), residuals.grid, "gradient variance")
    w = residuals.grid.trapezoid_weights()
    integrand = cdot**2 / np.sqrt(np.outer(diag, diag))
    return 0.5 * float(w @ integrand @ w)
