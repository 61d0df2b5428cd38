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
from .fdata import (
    FunctionalSample,
    Grid1D,
    _nonzero_scale,
    _positive_sd,
    grids_equal,
    pointwise_mean,
)
from .kinematic import ECDensityModel, tgkf_quantile
from .lkc import lkc_estimate
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

    def __post_init__(self):
        for name in ("center", "lower", "upper"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (self.grid.n_points,):
                raise ValueError(f"{name} does not match the grid size")
            object.__setattr__(self, name, arr)
        if np.any(self.lower > self.center) or np.any(self.center > self.upper):
            raise ValueError("band must satisfy lower <= center <= upper")


def _one_sample_residuals(sample):
    """(center, scale, rate, residual groups) of the one-sample mean field.

    center = mean, scale = sd, rate = sqrt(N), and the one residual group
    is (Y_n - mean) / sd, built from that mean and sd. The groups are a
    generator that builds the group when it is iterated, so the resampling
    bands, which need no residual group, never build it.
    """
    n = sample.n_samples
    if n < 2:
        raise ValueError("a band needs at least 2 curves")
    mu = pointwise_mean(sample)
    sd = _positive_sd(sample)
    groups = (FunctionalSample((s.values - mu) / sd, s.grid) for s in (sample,))
    return mu, sd, np.sqrt(n), groups


def two_sample_residuals(sample_y, sample_x):
    """(center, scale, rate, residual groups) of the mean difference field.

    center = mean_Y - mean_X and rate = sqrt(N + M - 2). With c = N/M the
    scale is the pooled sqrt((1 + 1/c) var_Y + (1 + c) var_X), and the two
    residual groups are sqrt(1 + 1/c) (Y_n - mean_Y) / pooled and
    sqrt(1 + c) (X_m - mean_X) / pooled. Their per-group covariances sum to
    the correlation of the limit field of the mean difference.
    """
    if not grids_equal(sample_y.grid, sample_x.grid):
        raise ValueError("grid mismatch between the two samples")
    n, m = sample_y.n_samples, sample_x.n_samples
    if n < 2 or m < 2:
        raise ValueError("both groups need at least 2 curves")
    c = n / m
    var_y = sample_y.values.var(axis=0, ddof=1)
    var_x = sample_x.values.var(axis=0, ddof=1)
    pooled = _nonzero_scale(
        np.sqrt((1.0 + 1.0 / c) * var_y + (1.0 + c) * var_x), sample_y.grid, "pooled sd"
    )
    mean_y, mean_x = pointwise_mean(sample_y), pointwise_mean(sample_x)
    res_y = np.sqrt(1.0 + 1.0 / c) * (sample_y.values - mean_y) / pooled
    res_x = np.sqrt(1.0 + c) * (sample_x.values - mean_x) / pooled
    groups = (FunctionalSample(res_y, sample_y.grid), FunctionalSample(res_x, sample_x.grid))
    return mean_y - mean_x, pooled, np.sqrt(n + m - 2), groups


def _field_quantile(field, kind, alpha, replicates, seed):
    """tGKF or Gaussian-simulation quantile from a field's residual groups.

    The tGKF uses sum(N_g - 1) degrees of freedom and the summed curvature
    field of the groups; "gauss-sim" simulates from the summed residual
    correlation sum R'R / (N_g - 1).
    """
    groups = tuple(field[3])
    if kind == "tgkf":
        dof = sum(r.n_samples - 1 for r in groups)
        return tgkf_quantile(lkc_estimate(*groups), ECDensityModel.student_t(dof), alpha)
    corr = sum(r.values.T @ r.values / (r.n_samples - 1) for r in groups)
    np.fill_diagonal(corr, 1.0)
    return gauss_sim_quantile(corr, alpha, draws=replicates, seed=seed)


def _band(field, quantile, name, alpha, grid):
    center, scale, rate, _ = field
    half = quantile * scale / rate
    return SCBand(center, center - half, center + half, float(quantile), name,
                  float(alpha), grid)


def scb_one_sample(sample, method="tgkf", alpha=0.05, replicates=1000, seed=0):
    """Simultaneous band for the mean: mean +/- q * sd / sqrt(N).

    The quantile comes from the tGKF with estimated curvatures and N-1
    degrees of freedom, from a bootstrap with the given replicate count, or
    from Gaussian simulation (replicates draws). seed, an integer or a
    SeedSequence, drives all random methods; the tGKF path is
    deterministic.
    """
    name, kind, law, studentized = parse_method(method)
    field = _one_sample_residuals(sample)
    if kind in ("boots", "mult"):
        cfg = BootstrapConfig(replicates, alpha, studentized, seed)
        q = boots_t_quantile(sample, cfg) if kind == "boots" else mult_t_quantile(sample, law, cfg)
    else:
        q = _field_quantile(field, kind, alpha, replicates, seed)
    return _band(field, q, name, alpha, sample.grid)


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
    field = two_sample_residuals(sample_y, sample_x)
    q = _field_quantile(field, kind, alpha, replicates, seed)
    return _band(field, q, name, alpha, sample_y.grid)


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
