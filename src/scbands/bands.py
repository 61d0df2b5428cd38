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
from .fdata import FunctionalSample, Grid1D, _mean_field, _nonzero_scale, _suspect, grids_equal
from .kinematic import ECDensityModel, LKCVector, tgkf_quantile
from .lkc import _lambda, _lkc_1d, _lkc_2d, lkc_estimate
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

# _tgkf_bands takes a block's residual fields and curvature fields in chunks of
# about this many values per array, so its temporaries stay far below the
# block's stack of draws.
_CHUNK_VALUES = 1 << 14


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


def _residual_stacks(values, grid):
    """(center, scale, rate, residual stacks) of the mean field of one or two
    groups, each given as its (..., N, P) values; leading axes index
    replicates. The stacks are sqrt(k_G) (G_n - mean_G) / scale, all parts
    fdata._mean_field's, so the field takes no second mean pass. A scale
    fdata._suspect flags is checked by fdata._nonzero_scale, replicate by
    replicate, which raises where it cannot studentize.
    """
    stacks = [np.copy(v) for v in values]
    center, scale, rate, parts = _mean_field(*stacks)
    name = "pointwise sd" if len(values) == 1 else "pooled sd"
    flagged = _suspect(scale, values).any(axis=-1)
    for r in map(tuple, np.argwhere(flagged)) if flagged.any() else ():
        _nonzero_scale(scale[r], grid, name, [v[r] for v in values])
    for v, res, (mean, factor) in zip(values, stacks, parts):  # into the consumed copies
        np.subtract(v, mean[..., None, :], out=res)
        if factor != 1.0:  # one sample's factor: a pass that would change no bit
            res *= factor
        res /= scale[..., None, :]
    return center, scale, rate, stacks


def _residual_field(samples):
    """(center, scale, rate, residual groups) of the mean field of one sample
    (see normed_residuals) or of the difference of two (two_sample_residuals):
    _residual_stacks' parts, each residual group a FunctionalSample."""
    one, grid = len(samples) == 1, samples[0].grid
    if not all(grids_equal(s.grid, grid) for s in samples[1:]):
        raise ValueError("grid mismatch between the two samples")
    if min(s.n_samples for s in samples) < 2:
        raise ValueError("a band needs at least 2 curves" if one
                         else "both groups need at least 2 curves")
    center, scale, rate, stacks = _residual_stacks([s.values for s in samples], grid)
    # the scales passed, so |Y - mean| <= sqrt(N-1) scale, also under the pooled scale
    groups = tuple(_owned(FunctionalSample, values=res, grid=grid) for res in stacks)
    return center, scale, rate, groups


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


def _half_width(q, scale, rate):
    """q * scale / rate of a quantile, or of (R,) quantiles and (R, P) scales."""
    q = np.asarray(q)
    if not np.all(q < 2.0**458):
        raise ValueError(f"quantile {q[~(q < 2.0**458)][0]:g} is too large for a finite band")
    return q[..., None] * scale / rate


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
    half = _half_width(q, scale, rate)
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


def _inside(lower, upper, truth):
    """Whether truth lies in [lower, upper] at every grid point, along the last axis."""
    return np.all((lower <= truth) & (truth <= upper), axis=-1)


def covers(band, truth):
    """True when the closed band contains the curve at every grid point; a
    truth that errors._real_array refuses (a NaN entry) raises, never False."""
    t = _real_array("truth", truth, 1, "a one-dimensional sequence")
    if t.shape != band.center.shape:
        raise ValueError(
            f"grid mismatch: truth has shape {t.shape}, band has {band.center.shape}"
        )
    return bool(_inside(band.lower, band.upper, t))


def _tgkf_bands(values, grid, alpha, truth):
    """(quantile, covered) of the tGKF band of each of R replicates, built
    together: values holds each group's (R, N, P) stack, truth a finite (P,)
    curve. Every step is _scb's and covers' on a leading replicate axis
    (_residual_stacks, _lambda, the lkc cores, one tgkf_quantile call over
    the R curvature rows, _half_width), so each pair is bitwise that
    replicate's own band's. The residual and curvature fields are taken in
    chunks of replicates of about _CHUNK_VALUES values per array; the solve
    runs over all R rows.

    Raises ValueError or ArithmeticError with the error of a failing
    replicate's own band: the checks are the lone band's, run in the order
    above chunk by chunk, and each names its first failing replicate.
    """
    step = max(1, _CHUNK_VALUES // values[0][0].size)
    fields = []
    for i in range(0, len(values[0]), step):
        center, scale, rate, stacks = _residual_stacks([v[i:i + step] for v in values], grid)
        fields.append((center, scale, _lambda(stacks, grid)))
    center, scale, lam = (np.concatenate(f) for f in zip(*fields))
    curvatures = zip(_lkc_1d(lam, grid)) if isinstance(grid, Grid1D) else zip(*_lkc_2d(lam, grid))
    dof = sum(v.shape[-2] - 1 for v in values)
    q = tgkf_quantile([LKCVector(1, c) for c in curvatures], ECDensityModel.student_t(dof), alpha)
    half = _half_width(q, scale, rate)
    covered = _inside(center - half, center + half, truth)
    return list(zip(q.tolist(), covered.tolist()))


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
