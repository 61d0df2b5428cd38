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

from dataclasses import dataclass, fields

import numpy as np

from .bootstrap import BootstrapConfig, boots_t_quantile, mult_t_quantile
from .errors import _owned, _real_array
from .fdata import FunctionalSample, _mean_field, _nonzero_scale, grids_equal
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

# name -> (kind, law, studentized); law is the multiplier law of the "mult" kind.
_METHODS = {
    "tgkf": ("tgkf", None, None),
    "boots-t": ("boots", None, True),
    "boots": ("boots", None, False),
    "gmult-t": ("mult", "gaussian", True),
    "gmult": ("mult", "gaussian", False),
    "rmult-t": ("mult", "rademacher", True),
    "rmult": ("mult", "rademacher", False),
    "gauss-sim": ("mult", "gaussian", False),
}
METHOD_NAMES = tuple(_METHODS)


def _parse_method_for(method, two_sample):
    """Canonical (name, kind, law, studentized) tuple for a method string; a
    two-sample band refuses boots(-t), which takes one sample."""
    key = str(method).lower().replace("_", "-")
    if key not in _METHODS:
        raise ValueError(f"unknown method {method!r}; choose one of {METHOD_NAMES}")
    if two_sample and _METHODS[key][0] == "boots":
        raise ValueError(f"two-sample bands support every method but 'boots(-t)', not {method!r}")
    return (key, *_METHODS[key])


@dataclass(frozen=True, eq=False)
class SCBand:
    """A symmetric simultaneous band around an estimated curve or surface. Its
    arrays are read-only: errors._real_array's copies once checked, or the
    band code's own arrays (errors._owned)."""

    center: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    quantile: float
    method: str
    alpha: float
    grid: object

    def __post_init__(self):
        for name in ("center", "lower", "upper"):
            arr = _real_array(name, getattr(self, name), 1, "a one-dimensional sequence")
            if arr.size != self.grid.n_points:
                raise ValueError(f"{name} does not match the grid size")
            object.__setattr__(self, name, arr)
        if np.any(self.lower > self.center) or np.any(self.center > self.upper):
            raise ValueError("band must satisfy lower <= center <= upper")


def _residual_field(samples):
    """(center, scale, rate, residual groups) of the mean field of one sample
    (see normed_residuals) or of the difference of two (two_sample_residuals).

    Every part is fdata._mean_field's: center, scale, rate, and each
    group's mean and factor, so the field takes no second mean pass.
    """
    one, grid = len(samples) == 1, samples[0].grid
    if not all(grids_equal(s.grid, grid) for s in samples[1:]):
        raise ValueError("grid mismatch between the two samples")
    if min(s.n_samples for s in samples) < 2:
        raise ValueError("a band needs at least 2 curves" if one
                         else "both groups need at least 2 curves")
    center, scale, rate, parts = _mean_field(*(np.copy(s.values) for s in samples))
    scale = _nonzero_scale(scale, grid, "pointwise sd" if one else "pooled sd",
                           [s.values for s in samples])
    groups = []
    for s, (mean, factor) in zip(samples, parts):
        res = np.subtract(s.values, mean)
        res *= factor
        res /= scale
        # _nonzero_scale passed, so |Y - mean| <= sqrt(N-1) scale, also under the pooled scale
        groups.append(_owned(FunctionalSample, values=res, grid=grid))
    return center, scale, rate, tuple(groups)


def normed_residuals(sample):
    """Rows (Y_n - mean) / sd, so every column has mean 0 and sd 1.

    This is the residual group of the one-sample mean field. Raises
    DegenerateVarianceError naming the first grid point where the
    pointwise sd vanishes.
    """
    return _residual_field((sample,))[3][0]


def two_sample_residuals(sample_y, sample_x):
    """(center, scale, rate, residual groups) of the mean difference field.

    center = mean_Y - mean_X, the pooled scale and rate = sqrt(N + M - 2)
    (fdata._mean_field). With c = N/M the two residual groups are
    sqrt(1 + 1/c) (Y_n - mean_Y) / pooled and sqrt(1 + c) (X_m - mean_X) /
    pooled. Their per-group covariances sum to the correlation of the limit
    field of the mean difference.
    """
    return _residual_field((sample_y, sample_x))


def _scb(method, samples, alpha, replicates, seed):
    """Band center +/- q * scale / rate of the mean field of one or two samples.

    Every kernel reads the field's unit-scale residual groups, never the
    raw values, whose squares can overflow or underflow: the tGKF their
    sum(N_g - 1) degrees of freedom and summed curvature field, a
    resampling kernel one group as itself and two as a tuple. The
    replicate count and seed are checked for every method, the tGKF too.
    """
    name, kind, law, studentized = _parse_method_for(method, len(samples) == 2)
    cfg = BootstrapConfig(replicates, alpha, studentized, seed)
    center, scale, rate, groups = _residual_field(samples)
    if kind == "tgkf":
        dof = sum(g.n_samples - 1 for g in groups)
        q = tgkf_quantile(lkc_estimate(*groups), ECDensityModel.student_t(dof), alpha)
    else:
        data = groups[0] if len(groups) == 1 else groups
        q = boots_t_quantile(data, cfg) if kind == "boots" else mult_t_quantile(data, law, cfg)
    if not q < 2.0**458:
        raise ValueError(f"quantile {q:g} is too large for a finite band")
    half = q * scale / rate
    # center is finite (means of finite sums, within DBL_MAX / 2) and 0 <= half < 2^970, half an
    # ulp of DBL_MAX (scale < 2^512, rate >= sqrt(2)): center -/+ half is finite and ordered
    return _owned(SCBand, center=center, lower=center - half, upper=center + half,
                  quantile=float(q), method=name, alpha=float(alpha), grid=groups[0].grid)


def scb_one_sample(sample, method="tgkf", alpha=0.05, replicates=1000, seed=0):
    """Simultaneous band for the mean: mean +/- q * sd / sqrt(N).

    The quantile comes from the tGKF with estimated curvatures and N-1
    degrees of freedom, or from a resampling method with the given
    replicate count. seed, an integer or a SeedSequence, drives all random
    methods; the tGKF path is deterministic.
    """
    return _scb(method, (sample,), alpha, replicates, seed)


def scb_two_sample(sample_y, sample_x, method="tgkf", alpha=0.05, replicates=1000, seed=0):
    """Simultaneous band for the mean difference of two independent groups.

    center = mean_Y - mean_X, half-width = q * pooled / sqrt(N + M - 2).
    The tGKF path sums the per-group curvature fields and uses N+M-2
    degrees of freedom; the multiplier methods, "gauss-sim" among them,
    draw independent multipliers for the two pooled residual groups. The
    bootstrap-t is not defined for the two-sample band and raises.
    """
    return _scb(method, (sample_y, sample_x), alpha, replicates, seed)


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
    """True when the closed band contains the curve at every grid point; a
    truth that errors._real_array refuses (a NaN entry) raises, never False."""
    t = _real_array("truth", truth, 1, "a one-dimensional sequence")
    if t.shape != band.center.shape:
        raise ValueError(
            f"grid mismatch: truth has shape {t.shape}, band has {band.center.shape}"
        )
    return bool(np.all((band.lower <= t) & (t <= band.upper)))


def band_to_dict(band):
    """JSON-ready dict: {method, alpha, quantile, grid, center, lower, upper},
    the grid as {point field name: points}."""
    return {
        "method": band.method,
        "alpha": band.alpha,
        "quantile": band.quantile,
        "grid": {f.name: getattr(band.grid, f.name).tolist() for f in fields(band.grid)},
        "center": band.center.tolist(),
        "lower": band.lower.tolist(),
        "upper": band.upper.tolist(),
    }
