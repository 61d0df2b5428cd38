"""Simultaneous confidence band assembly and coverage checks.

A band is center(s) +/- q * scale(s) / rate, where the quantile q comes
from one of the estimators below. Method names:

    "tgkf"       t-field EEC quantile with estimated curvatures
    "boots-t"    studentized nonparametric bootstrap ("boots" unstudentized)
    "gmult-t"    Gaussian multiplier bootstrap ("gmult" unstudentized)
    "rmult-t"    Rademacher multiplier bootstrap ("rmult" unstudentized)
    "gauss-sim"  Gaussian simulation from the estimated correlation

Coverage means the whole target curve sits inside the closed band at every
grid point.
"""

from dataclasses import dataclass

import numpy as np

from .bootstrap import (
    GAUSSIAN_MULTIPLIERS,
    RADEMACHER_MULTIPLIERS,
    BootstrapConfig,
    boots_t_quantile,
    gauss_sim_quantile,
    mult_t_quantile,
)
from .errors import DegenerateVarianceError
from .fdata import (
    FunctionalSample,
    Grid1D,
    _positive_sd,
    grids_equal,
    normed_residuals,
    pointwise_mean,
)
from .kinematic import ECDensityModel, LKCVector, tgkf_quantile
from .lkc import lambda_hat, lkc_1d, lkc_2d, lkc_two_sample
from .scalespace import smooth_sample

__all__ = [
    "SCBand",
    "METHOD_NAMES",
    "parse_method",
    "scb_one_sample",
    "scb_two_sample",
    "scb_scale_space",
    "two_sample_residuals",
    "covers",
    "band_to_dict",
]

METHOD_NAMES = (
    "tgkf",
    "boots-t",
    "boots",
    "gmult-t",
    "gmult",
    "rmult-t",
    "rmult",
    "gauss-sim",
)


def parse_method(method):
    """Canonical (name, kind, law, studentized) tuple for a method string."""
    key = str(method).lower().replace("_", "-")
    if key == "tgkf":
        return key, "tgkf", None, None
    if key == "gauss-sim":
        return key, "gauss-sim", None, None
    if key in ("boots-t", "boots"):
        return key, "boots", None, key.endswith("-t")
    if key in ("gmult-t", "gmult"):
        return key, "mult", GAUSSIAN_MULTIPLIERS, key.endswith("-t")
    if key in ("rmult-t", "rmult"):
        return key, "mult", RADEMACHER_MULTIPLIERS, key.endswith("-t")
    raise ValueError(f"unknown method {method!r}; choose one of {METHOD_NAMES}")


@dataclass(frozen=True, eq=False)
class SCBand:
    """A symmetric simultaneous band around an estimated curve or surface."""

    center: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    quantile: float
    method: str
    alpha: float
    grid: object
    studentized: bool = None

    def __post_init__(self):
        for name in ("center", "lower", "upper"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (self.grid.n_points,):
                raise ValueError(f"{name} does not match the grid size")
            object.__setattr__(self, name, arr)
        if np.any(self.lower > self.center) or np.any(self.center > self.upper):
            raise ValueError("band must satisfy lower <= center <= upper")


def _estimated_lkc(sample):
    res = normed_residuals(sample)
    lam = lambda_hat(res)
    if isinstance(sample.grid, Grid1D):
        return LKCVector(1, (lkc_1d(lam, sample.grid),))
    return LKCVector(1, lkc_2d(lam, sample.grid))


def _residual_correlation(res_values, divisor):
    corr = res_values.T @ res_values / divisor
    np.fill_diagonal(corr, 1.0)
    return corr


def scb_one_sample(sample, method="tgkf", alpha=0.05, replicates=1000, seed=0):
    """Simultaneous band for the mean: mean +/- q * sd / sqrt(N).

    The quantile comes from the tGKF with estimated curvatures and N-1
    degrees of freedom, from a bootstrap with the given replicate count, or
    from Gaussian simulation (replicates draws). seed, an integer or a
    SeedSequence, drives all random methods; the tGKF path is
    deterministic.
    """
    name, kind, law, studentized = parse_method(method)
    n = sample.n_samples
    if n < 2:
        raise ValueError("a band needs at least 2 curves")
    mu = pointwise_mean(sample)
    sd = _positive_sd(sample)

    if kind == "tgkf":
        q = tgkf_quantile(_estimated_lkc(sample), ECDensityModel.student_t(n - 1), alpha)
    elif kind == "gauss-sim":
        res = normed_residuals(sample)
        corr = _residual_correlation(res.values, n - 1)
        q = gauss_sim_quantile(corr, alpha, draws=replicates, seed=seed)
    elif kind == "boots":
        cfg = BootstrapConfig(replicates, alpha, studentized, seed)
        q = boots_t_quantile(sample, cfg)
    else:
        cfg = BootstrapConfig(replicates, alpha, studentized, seed)
        q = mult_t_quantile(sample, law, cfg)

    half = q * sd / np.sqrt(n)
    return SCBand(mu, mu - half, mu + half, float(q), name, float(alpha),
                  sample.grid, studentized)


def two_sample_residuals(sample_y, sample_x):
    """Pooled-normalized residuals of both groups plus the pooled scale.

    With c = N/M the pooled scale is sqrt((1 + 1/c) var_Y + (1 + c) var_X)
    and the residual rows are sqrt(1 + 1/c) (Y_n - mean_Y) / pooled and
    sqrt(1 + c) (X_m - mean_X) / pooled. Their per-group covariances sum to
    the correlation of the limit field of the mean difference.
    """
    if not grids_equal(sample_y.grid, sample_x.grid):
        raise ValueError("grid mismatch between the two samples")
    if sample_y.n_samples < 2 or sample_x.n_samples < 2:
        raise ValueError("both groups need at least 2 curves")
    c = sample_y.n_samples / sample_x.n_samples
    var_y = sample_y.values.var(axis=0, ddof=1)
    var_x = sample_x.values.var(axis=0, ddof=1)
    pooled = np.sqrt((1.0 + 1.0 / c) * var_y + (1.0 + c) * var_x)
    zeros = np.flatnonzero(pooled == 0)
    if zeros.size:
        raise DegenerateVarianceError(
            f"pooled scale is zero at grid point {int(zeros[0])}"
        )
    res_y = np.sqrt(1.0 + 1.0 / c) * (sample_y.values - sample_y.values.mean(axis=0)) / pooled
    res_x = np.sqrt(1.0 + c) * (sample_x.values - sample_x.values.mean(axis=0)) / pooled
    return (
        FunctionalSample(res_y, sample_y.grid),
        FunctionalSample(res_x, sample_x.grid),
        pooled,
    )


def scb_two_sample(sample_y, sample_x, method="tgkf", alpha=0.05, replicates=1000, seed=0):
    """Simultaneous band for the mean difference of two independent groups.

    center = mean_Y - mean_X, half-width = q * pooled / sqrt(N + M - 2).
    The tGKF path sums the per-group curvature fields and uses N+M-2
    degrees of freedom; "gauss-sim" simulates from the pooled residual
    correlation. Bootstrap methods are not defined for the two-sample band
    and raise.
    """
    name, kind, _, _ = parse_method(method)
    if kind not in ("tgkf", "gauss-sim"):
        raise ValueError(
            f"two-sample bands support 'tgkf' and 'gauss-sim', not {method!r}"
        )
    res_y, res_x, pooled = two_sample_residuals(sample_y, sample_x)
    n, m = sample_y.n_samples, sample_x.n_samples
    dof = n + m - 2

    if kind == "tgkf":
        lkc = lkc_two_sample(res_y, res_x, n / m)
        q = tgkf_quantile(lkc, ECDensityModel.student_t(dof), alpha)
    else:
        corr = (
            res_y.values.T @ res_y.values / (n - 1)
            + res_x.values.T @ res_x.values / (m - 1)
        )
        np.fill_diagonal(corr, 1.0)
        q = gauss_sim_quantile(corr, alpha, draws=replicates, seed=seed)

    center = pointwise_mean(sample_y) - pointwise_mean(sample_x)
    half = q * pooled / np.sqrt(dof)
    return SCBand(center, center - half, center + half, float(q), name,
                  float(alpha), sample_y.grid, None)


def scb_scale_space(raw, kernel, sg, method="tgkf", alpha=0.05, replicates=1000, seed=0):
    """Band for the scale-space mean surface of noisy discrete curves.

    Smooths every curve onto the (s, h) lattice, then builds the one-sample
    band on the resulting 2-D sample (1-D when the grid has a single
    bandwidth). The tGKF path uses the 2-D curvature integrals on the
    (s, h) rectangle.
    """
    smoothed = smooth_sample(raw, kernel, sg)
    return scb_one_sample(smoothed, method, alpha, replicates, seed)


def covers(band, truth):
    """True when the closed band contains the curve at every grid point."""
    t = np.asarray(truth, dtype=float)
    if t.shape != band.center.shape:
        raise ValueError(
            f"grid mismatch: truth has shape {t.shape}, band has {band.center.shape}"
        )
    return bool(np.all((band.lower <= t) & (t <= band.upper)))


def band_to_dict(band):
    """JSON-ready dict: {method, alpha, quantile, grid, center, lower, upper}."""
    if isinstance(band.grid, Grid1D):
        grid = {"points": band.grid.points.tolist()}
    else:
        grid = {
            "x_points": band.grid.x_points.tolist(),
            "y_points": band.grid.y_points.tolist(),
        }
    return {
        "method": band.method,
        "alpha": band.alpha,
        "quantile": band.quantile,
        "grid": grid,
        "center": band.center.tolist(),
        "lower": band.lower.tolist(),
        "upper": band.upper.tolist(),
    }
