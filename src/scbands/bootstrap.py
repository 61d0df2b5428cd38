"""Resampling estimators of the max-statistic quantile.

Two families: the nonparametric bootstrap-t (resample curves, restudentize)
and the multiplier bootstrap (perturb residuals with mean-0 variance-1
weights, drawn independently per group of curves). Unstudentized Gaussian
multipliers are the Gaussian simulation from the estimated correlation,
since G R / sqrt(N-1) has exactly that law. Both reduce the band problem
to the empirical quantile of B replicate maxima; the ceiling-rank order
statistic ceil((1-alpha) B) is used throughout, which is the conservative
standard for bootstrap bands.

Each band draws all of its B replicates from one counter-based stream,
``substream(seed)``, in one call: row b of the (B, N) multiplier or index
matrix is replicate b. Estimates are reproducible bit for bit from the seed
alone, whatever the thread count or the order in which bands are built.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVarianceError
from .fdata import _nonzero_scale, pointwise_sd
from .models import _integer
from .rng import substream

__all__ = [
    "MultiplierLaw",
    "GAUSSIAN_MULTIPLIERS",
    "RADEMACHER_MULTIPLIERS",
    "BootstrapConfig",
    "ceiling_rank_quantile",
    "boots_t_quantile",
    "mult_t_quantile",
]


@dataclass(frozen=True)
class MultiplierLaw:
    """Mean-zero, unit-variance multiplier distribution."""

    kind: str

    def __post_init__(self):
        if self.kind not in ("gaussian", "rademacher"):
            raise ValueError(f"unknown multiplier law {self.kind!r}")

    def draw(self, rng, shape):
        """Independent multipliers of the given shape, in C order."""
        if self.kind == "gaussian":
            return rng.standard_normal(shape)
        return rng.integers(0, 2, size=shape) * 2.0 - 1.0


GAUSSIAN_MULTIPLIERS = MultiplierLaw("gaussian")
RADEMACHER_MULTIPLIERS = MultiplierLaw("rademacher")


@dataclass(frozen=True)
class BootstrapConfig:
    """Replicate count, level, studentization switch, and seed.

    seed is an integer or a SeedSequence (a branch of the caller's stream
    tree). B >= 100 is advisable for any quantile meant for inference;
    smaller values are accepted (determinism tests use them).
    """

    replicates: int = 1000
    alpha: float = 0.05
    studentized: bool = True
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "replicates", _integer("replicates", self.replicates))
        if self.replicates < 1:
            raise ValueError("need at least one replicate")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")


def ceiling_rank_quantile(draws, alpha):
    """Order statistic ceil((1-alpha) B) of the replicate statistics."""
    draws = np.asarray(draws, dtype=float)
    b = draws.size
    rank = int(np.ceil((1.0 - alpha) * b))
    rank = min(max(rank, 1), b)
    return float(np.partition(draws, rank - 1)[rank - 1])


# Bootstrap-t replicates are processed in blocks of this many rows, so its
# (rows, P) temporaries stay small whatever B is.
_BLOCK_ROWS = 64


def _in_blocks(fn, rows, *args):
    """fn(rows[block], *args) over row blocks of rows; each output concatenated."""
    parts = [fn(rows[lo : lo + _BLOCK_ROWS], *args) for lo in range(0, len(rows), _BLOCK_ROWS)]
    return [np.concatenate(outputs) for outputs in zip(*parts)]


def _row_counts(idx, n):
    """(k, n) matrix whose row b counts how often each curve appears in idx[b]."""
    k = idx.shape[0]
    flat = (np.arange(k)[:, None] * n + idx).ravel()
    return np.bincount(flat, minlength=k * n).reshape(k, n).astype(float)


def _resample_max_t(idx, vals, resid, var_fixed):
    """(max_s sqrt(N) |mean* - mean| / sd*, degenerate) per row of idx.

    With C the count matrix (C[b, n] = multiplicity of curve n in resample
    b) and X = Y - mean: mean* - mean = C X / N and (N-1) var* =
    C X^2 - N (mean* - mean)^2. Rows where that difference cancels to below
    1e-3 of C X^2 (spread far below the sample's) are recomputed from
    their gathered curves. A resample whose curves all coincide at some
    grid point has a spread of rounding size (0 <= 0 when X is 0 there),
    so it is always gathered; an exact comparison of its curves flags it
    degenerate, and its statistic is a placeholder for the caller to
    redraw. var_fixed, when given, replaces var* and no row is degenerate.
    """
    n = idx.shape[1]
    counts = _row_counts(idx, n)
    shift = counts @ resid / n
    degenerate = np.zeros(idx.shape[0], dtype=bool)
    if var_fixed is None:
        sumsq = counts @ (resid * resid)
        spread = sumsq - n * shift * shift
        var_star = spread / (n - 1.0)
        for b in np.flatnonzero(np.any(spread <= 1e-3 * sumsq, axis=1)):
            rows = vals[idx[b]]
            degenerate[b] = np.any(np.all(rows == rows[0], axis=0))
            var_star[b] = 1.0 if degenerate[b] else rows.var(axis=0, ddof=1)
    else:
        var_star = var_fixed
    # max |t| is the root of max t^2: one square root per replicate.
    return np.sqrt(n * np.max(shift * shift / var_star, axis=1)), degenerate


def boots_t_quantile(sample, cfg):
    """Bootstrap-t quantile of max_s sqrt(N) |mean* - mean| / sd*.

    Resamples rows with replacement B times: the (B, N) index matrix comes
    from one draw of the band's stream, and no B x N x P array of resampled
    curves is formed. In studentized mode sd* is the resample's own
    pointwise sd; degenerate resamples, where every selected row coincides
    at some grid point, are rejected and redrawn together from the same
    stream, as one (k, N) draw in ascending replicate order, until none is
    left (error once more than B/10 rejections accumulate). With
    studentized=False the original-sample sd is used and no resample is
    degenerate.
    """
    vals = sample.values
    n = vals.shape[0]
    if n < 2:
        raise ValueError("bootstrap needs at least 2 curves")
    gen = substream(cfg.seed)
    idx = gen.integers(0, n, size=(cfg.replicates, n))
    var_fixed = None
    if not cfg.studentized:
        var_fixed = _nonzero_scale(pointwise_sd(sample), sample.grid, "pointwise sd") ** 2
    resid = vals - vals.mean(axis=0)

    stats, degenerate = _in_blocks(_resample_max_t, idx, vals, resid, var_fixed)
    max_rejects = cfg.replicates // 10
    rejects = 0
    redo = np.flatnonzero(degenerate)
    while redo.size:
        rejects += redo.size
        if rejects > max_rejects:
            raise DegenerateVarianceError(
                f"more than {max_rejects} degenerate resamples "
                f"(all rows equal at some grid point)"
            )
        idx[redo] = gen.integers(0, n, size=(redo.size, n))
        stats[redo], degenerate = _in_blocks(_resample_max_t, idx[redo], vals, resid, var_fixed)
        redo = redo[degenerate]
    return ceiling_rank_quantile(stats, cfg.alpha)


def _group_terms(gmat, vals, studentized):
    """(numerator, variance) of one group's multiplier statistic.

    With res = sqrt(N/(N-1)) (Y - mean), the numerator is G res / sqrt(N)
    and the variance is the pointwise variance (divisor N-1) of the
    multiplied residuals g_n res_n, or of Y itself when not studentized.
    """
    n = vals.shape[0]
    res = np.sqrt(n / (n - 1.0)) * (vals - vals.mean(axis=0))
    # (B, P) arrays, the largest here, are updated in place where possible.
    prod = gmat @ res
    if not studentized:
        return np.divide(prod, np.sqrt(n), out=prod), vals.var(axis=0, ddof=1)
    sums = prod / np.sqrt(n)
    m1 = np.divide(prod, n, out=prod)
    var_star = (gmat * gmat) @ (res * res)
    var_star /= n
    var_star -= m1 * m1
    np.clip(var_star, 0.0, None, out=var_star)
    var_star *= n / (n - 1.0)
    return sums, var_star


def mult_t_quantile(sample, law, cfg):
    """Multiplier bootstrap quantile of the max studentized statistic.

    sample is one FunctionalSample or a tuple of independent groups. The
    (B, sum N_g) multiplier matrix G comes from one draw of the band's
    stream; row b is replicate b, and its columns are split into the
    groups in order. With R_n = sqrt(N_g/(N_g-1)) (Y_n - mean_g) in group g,

        T* = max_s | sum_g N_g^(-1/2) sum_n g_n R_n(s) | / sd*(s),

    where sd*^2 sums over groups the pointwise variance (divisor N_g-1) of
    the multiplied residuals g_n R_n; with studentized=False it sums the
    groups' own variances. Unstudentized Gaussian multipliers draw exactly
    N(0, sum of the groups' sample covariances) / sd, the "gauss-sim" law.
    Points where sd* and the numerator are both exactly zero (all-zero
    residuals) contribute 0; a vanishing sd* under a nonzero numerator
    raises the degenerate-variance error.
    """
    groups = sample if isinstance(sample, tuple) else (sample,)
    sizes = [g.n_samples for g in groups]
    if min(sizes) < 2:
        raise ValueError("multiplier bootstrap needs at least 2 curves per group")
    gmat = law.draw(substream(cfg.seed), (cfg.replicates, sum(sizes)))
    blocks = np.split(gmat, np.cumsum(sizes)[:-1], axis=1)
    terms = [_group_terms(blk, g.values, cfg.studentized) for blk, g in zip(blocks, groups)]
    sums, var = terms[0]
    for more_sums, more_var in terms[1:]:
        sums += more_sums
        var += more_var

    ratio_sq = sums * sums
    if cfg.studentized:
        zero_sd = var == 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio_sq /= var
        if np.any(zero_sd):
            nonzero_num = zero_sd & (sums != 0.0)
            if np.any(nonzero_num):
                b_bad, p_bad = np.argwhere(nonzero_num)[0]
                raise DegenerateVarianceError(
                    f"multiplier sd degenerate at grid point {int(p_bad)} "
                    f"in replicate {int(b_bad)}"
                )
            ratio_sq[zero_sd] = 0.0
    else:
        sd = _nonzero_scale(np.sqrt(var), groups[0].grid, "pointwise sd")
        ratio_sq /= sd * sd
    # max |T*| is the root of max T*^2: one square root per replicate.
    return ceiling_rank_quantile(np.sqrt(ratio_sq.max(axis=1)), cfg.alpha)
