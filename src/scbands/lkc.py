"""Lipschitz-Killing curvature estimation from normalized residuals.

The field metric is the pointwise covariance of the residual derivative,
Lambda(s) = cov[dR(s)]. Its empirical version turns a residual sample into
the curvatures L1 (metric length, halved boundary length in 2-D) and L2
(metric area) that weight the EC densities: curvatures, the only 1-D/2-D
dispatch, of which lkc_estimate is the checked shell for residual samples.
The field is built a slab of lattice lines at a time, bit for bit the same.
"""

import numpy as np

from .errors import _real_array
from .fdata import (
    _CHUNK_VALUES,
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


@np.errstate(all="ignore")
def _lambda(groups, grid):
    """The sum of lambda_hat's fields of the groups, each (..., N, P) residual
    rows on grid: (..., P) variances on a 1-D grid, (..., P, 2, 2) matrices
    on a 2-D lattice. ValueError names the first grid point (of the first
    leading index) where the sum is not finite; nothing warns.

    Each group is walked in slabs of whole lattice lines of the first axis,
    about _CHUNK_VALUES values each, so no whole-size temporary is made. A
    point's entries read only its column, summed over N in row order: the
    same bits in any slab of two columns or more (over one, numpy sums N
    pairwise)."""
    lead, n0, p = groups[0].shape[:-2], grid.axes[0].size, grid.n_points
    line = p // n0
    total = np.zeros((*lead, p) if len(grid.axes) == 1 else (*lead, p, 2, 2))
    flat = total.reshape(*lead, p, -1)
    for residuals in groups:
        count = max(1, min(round(residuals.size / _CHUNK_VALUES), n0, p // 2))
        cuts = [n0 * k // count for k in range(count + 1)]
        for start, stop in zip(cuts, cuts[1:]):
            dr = gradient(residuals, grid, start, stop)
            if len(dr) == 1:
                lam = _mean_var(dr[0])[1]
            else:
                for d in dr:
                    d -= d.mean(axis=-2, keepdims=True)
                lam = np.empty((*lead, dr[0].shape[-1], 2, 2))
                for i, j in ((0, 0), (1, 1), (0, 1)):
                    lam[..., i, j] = lam[..., j, i] = np.einsum("...np,...np->...p", dr[i], dr[j])
                lam /= residuals.shape[-2] - 1
            flat[..., start * line:stop * line, :] += lam.reshape(*lead, -1, flat.shape[-1])
    bad = np.argwhere(~np.isfinite(flat))
    if bad.size:
        raise ValueError(f"gradient variance is not finite at grid point "
                         f"{_point_label(grid, int(bad[0, -2]))}")
    return total


def _residual_rows(residuals, name):
    """The (N, P) values of a residual sample, once the checks of estimator name pass."""
    if not isinstance(residuals, FunctionalSample):
        raise ValueError(f"{name} needs a FunctionalSample of residuals")
    if residuals.n_samples < 2:
        raise ValueError("gradient covariance needs at least 2 residual rows")
    return residuals.values


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
    lam = _lambda([_residual_rows(residuals, "lambda_hat")], residuals.grid)
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
    """np.sum(terms, axis=-1), or ValueError naming the grid point of the first
    term where the running sum of the first row with a sum that is not finite
    stops being finite: a term or a sum past what a double holds. nodes maps
    terms to flat grid points (None: term k is point k). Callers compute terms
    under np.errstate, as overflows here are named, not warned of."""
    total = np.sum(terms, axis=-1)
    if not np.isfinite(total).all():
        row = terms[~np.isfinite(total)][0]
        k = int(np.argmax(~np.isfinite(np.cumsum(row))))
        p = k if nodes is None else int(nodes[k])
        raise ValueError(f"{name} is not finite at grid point {_point_label(grid, p)}")
    return total


def _lkc_1d(lam, grid):
    """lkc_1d's integral of each (..., P) field lam: an array of the leading shape."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _integral(grid.trapezoid_weights() * np.sqrt(lam), grid, "L1 integral")


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
    return float(_lkc_1d(lam, grid))


def _lkc_2d(lam, grid):
    """lkc_2d's (L1, L2) of each (..., P, 2, 2) field lam: two arrays of the
    leading shape."""
    lead = lam.shape[:-3]
    with np.errstate(over="ignore", invalid="ignore"):
        det = lam[..., 0, 0] * lam[..., 1, 1] - lam[..., 0, 1] ** 2
        area = grid.trapezoid_weights() * np.sqrt(np.clip(det, 0.0, None))
        l2 = _integral(area, grid, "L2 integral")

        lxx = lam[..., 0, 0].reshape(*lead, grid.n_x, grid.n_y)
        lyy = lam[..., 1, 1].reshape(*lead, grid.n_x, grid.n_y)
        dx, dy = np.diff(grid.x_points), np.diff(grid.y_points)
        # bottom, right, top, left: counterclockwise from node (0, 0), so the
        # top and left edges run against their axes; ring holds each segment's first node
        edges = ((dx, lxx[..., :, 0]), (dy, lyy[..., -1, :]), (dx, lxx[..., :, -1]),
                 (dy, lyy[..., 0, :]))
        terms = [d * (0.5 * (m[..., :-1] + m[..., 1:])) * d for d, m in edges]
        terms[2:] = [t[..., ::-1] for t in terms[2:]]
        node = np.arange(grid.n_points).reshape(grid.n_x, grid.n_y)
        ring = np.concatenate((node[:-1, 0], node[-1, :-1], node[:0:-1, -1], node[0, :0:-1]))
        l1 = 0.5 * _integral(np.sqrt(np.concatenate(terms, axis=-1)), grid, "L1 integral", ring)
    return l1, l2


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
    return tuple(map(float, _lkc_2d(vals, grid)))


def curvatures(groups, grid):
    """(L1,) on a 1-D grid, (L1, L2) on a 2-D lattice, as arrays of the leading
    shape, of the field of the (..., N, P) residual groups: their gradient
    covariances add (_lambda), so their order does not matter."""
    lam = _lambda(groups, grid)
    return (_lkc_1d(lam, grid),) if isinstance(grid, Grid1D) else _lkc_2d(lam, grid)


def lkc_estimate(*residuals):
    """LKC vector of the field whose residual groups are given.

    Each group is a normalized residual sample: the one-sample residuals,
    or the pooled-normalized residuals of each of two independent groups
    (two_sample_residuals in the band module): the checked shell of curvatures.
    """
    if not residuals:
        raise ValueError("lkc_estimate needs at least one residual sample")
    rows = [_residual_rows(r, "lkc_estimate") for r in residuals]
    grid = residuals[0].grid
    if not all(grids_equal(r.grid, grid) for r in residuals):
        raise ValueError("grid mismatch between the residual samples")
    return LKCVector(1, curvatures(rows, grid))


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

    (grads,) = gradient(residuals.values, residuals.grid)
    with np.errstate(all="ignore"):  # _nonzero_scale names a variance that overflows
        centered = grads - grads.mean(axis=0)
        cdot = centered.T @ centered / (n - 1)
    diag = _nonzero_scale(np.diag(cdot), residuals.grid, "gradient variance")
    w = residuals.grid.trapezoid_weights()
    integrand = cdot**2 / np.sqrt(np.outer(diag, diag))
    return 0.5 * float(w @ integrand @ w)
