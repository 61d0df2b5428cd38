"""Simultaneous confidence band assembly and coverage checks.

A band is center(s) +/- q * scale(s) / rate, where the quantile q comes
from one of the estimators below. Method names:

    "tgkf"       t-field EEC quantile with estimated curvatures
    "boots-t"    studentized nonparametric bootstrap ("boots" unstudentized)
    "gmult-t"    Gaussian multiplier bootstrap ("gmult" unstudentized)
    "rmult-t"    Rademacher multiplier bootstrap ("rmult" unstudentized)
    "gauss-sim"  Gaussian simulation from the estimated correlation, drawn
                 as the unstudentized Gaussian multiplier bootstrap

Besides the tGKF there are two resampling families, the bootstrap-t and the
multiplier bootstrap; the multipliers also serve two-sample bands.

Coverage means the whole target curve sits inside the closed band at every
grid point.
"""

from dataclasses import dataclass

import numpy as np

from .bootstrap import BootstrapConfig, boots_t_quantile, mult_t_quantile
from .fdata import FunctionalSample, Grid1D, _mean_field, _nonzero_scale, grids_equal
from .kinematic import ECDensityModel, tgkf_quantile
from .lkc import lkc_estimate
from .scalespace import smooth_sample

__all__ = [
    "SCBand",
    "METHOD_NAMES",
    "scb_one_sample",
    "scb_two_sample",
    "scb_scale_space",
    "two_sample_residuals",
    "normed_residuals",
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
    """Canonical (name, kind, law, studentized) tuple for a method string.

    law is the multiplier law, "gaussian" or "rademacher", of the "mult" kind.
    """
    key = str(method).lower().replace("_", "-")
    if key == "tgkf":
        return key, "tgkf", None, None
    if key == "gauss-sim":
        return key, "mult", "gaussian", False
    if key in ("boots-t", "boots"):
        return key, "boots", None, key.endswith("-t")
    if key in ("gmult-t", "gmult"):
        return key, "mult", "gaussian", key.endswith("-t")
    if key in ("rmult-t", "rmult"):
        return key, "mult", "rademacher", key.endswith("-t")
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

    center = mean, scale = sd and rate = sqrt(N) (fdata._mean_field); the
    one residual group is (Y_n - mean) / sd.
    """
    if sample.n_samples < 2:
        raise ValueError("a band needs at least 2 curves")
    center, sd, rate = _mean_field(np.copy(sample.values))
    sd = _nonzero_scale(sd, sample.grid, "pointwise sd")
    res = sample.values - center
    return center, sd, rate, (FunctionalSample(np.divide(res, sd, out=res), sample.grid),)


def normed_residuals(sample):
    """Rows (Y_n - mean) / sd, so every column has mean 0 and sd 1.

    This is the residual group of the one-sample mean field. Raises
    DegenerateVarianceError naming the first grid point where the
    pointwise sd vanishes.
    """
    return _one_sample_residuals(sample)[3][0]


def two_sample_residuals(sample_y, sample_x):
    """(center, scale, rate, residual groups) of the mean difference field.

    center = mean_Y - mean_X, the pooled scale and rate = sqrt(N + M - 2)
    (fdata._mean_field). With c = N/M the two residual groups are
    sqrt(1 + 1/c) (Y_n - mean_Y) / pooled and sqrt(1 + c) (X_m - mean_X) /
    pooled. Their per-group covariances sum to the correlation of the limit
    field of the mean difference.
    """
    if not grids_equal(sample_y.grid, sample_x.grid):
        raise ValueError("grid mismatch between the two samples")
    n, m = sample_y.n_samples, sample_x.n_samples
    if n < 2 or m < 2:
        raise ValueError("both groups need at least 2 curves")
    center, pooled, rate = _mean_field(np.copy(sample_y.values), np.copy(sample_x.values))
    pooled = _nonzero_scale(pooled, sample_y.grid, "pooled sd")
    c = n / m
    groups = tuple(
        FunctionalSample(w * (s.values - s.values.mean(axis=0)) / pooled, s.grid)
        for w, s in ((np.sqrt(1.0 + 1.0 / c), sample_y), (np.sqrt(1.0 + c), sample_x))
    )
    return center, pooled, rate, groups


def _scb(parsed, field, data, alpha, replicates, seed):
    """Band center +/- q * scale / rate of a mean field.

    parsed is parse_method's tuple. The tGKF reads the field's residual
    groups: sum(N_g - 1) degrees of freedom and their summed curvature
    field. The resampling kernels read data.
    """
    name, kind, law, studentized = parsed
    center, scale, rate, groups = field
    if kind == "tgkf":
        dof = sum(g.n_samples - 1 for g in groups)
        q = tgkf_quantile(lkc_estimate(*groups), ECDensityModel.student_t(dof), alpha)
    else:
        cfg = BootstrapConfig(replicates, alpha, studentized, seed)
        q = boots_t_quantile(data, cfg) if kind == "boots" else mult_t_quantile(data, law, cfg)
    half = q * scale / rate
    return SCBand(center, center - half, center + half, float(q), name, float(alpha),
                  groups[0].grid)


def scb_one_sample(sample, method="tgkf", alpha=0.05, replicates=1000, seed=0):
    """Simultaneous band for the mean: mean +/- q * sd / sqrt(N).

    The quantile comes from the tGKF with estimated curvatures and N-1
    degrees of freedom, or from a resampling method with the given
    replicate count. seed, an integer or a SeedSequence, drives all random
    methods; the tGKF path is deterministic.
    """
    return _scb(parse_method(method), _one_sample_residuals(sample), sample, alpha,
                replicates, seed)


def scb_two_sample(sample_y, sample_x, method="tgkf", alpha=0.05, replicates=1000, seed=0):
    """Simultaneous band for the mean difference of two independent groups.

    center = mean_Y - mean_X, half-width = q * pooled / sqrt(N + M - 2).
    The tGKF path sums the per-group curvature fields and uses N+M-2
    degrees of freedom; the multiplier methods, "gauss-sim" among them,
    draw independent multipliers for the two pooled residual groups. The
    bootstrap-t is not defined for the two-sample band and raises.
    """
    parsed = parse_method(method)
    if parsed[1] == "boots":
        raise ValueError(f"two-sample bands support every method but 'boots(-t)', not {method!r}")
    field = two_sample_residuals(sample_y, sample_x)
    return _scb(parsed, field, field[3], alpha, replicates, seed)


def scb_scale_space(raw, kernel, sg, method="tgkf", alpha=0.05, replicates=1000, seed=0):
    """Band for the scale-space mean surface of noisy discrete curves.

    Smooths every curve onto the (s, h) lattice, then builds the one-sample
    band on the resulting 2-D sample (1-D when the grid has a single
    bandwidth). The tGKF path uses the 2-D curvature integrals on the
    (s, h) rectangle. For the difference of two groups, smooth each with
    smooth_sample and pass both to scb_two_sample.
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
