"""Resampling estimators of the max-statistic quantile.

Two families: the nonparametric bootstrap-t (resample curves, restudentize)
and the multiplier bootstrap (perturb residuals with mean-0 variance-1
weights, drawn independently per group of curves). Unstudentized Gaussian
multipliers are the Gaussian simulation from the estimated correlation,
since G R / sqrt(N-1) has exactly that law. Both reduce the band problem
to the empirical quantile of B replicate maxima; the ceiling-rank order
statistic ceil((1-alpha) B) is used throughout, which is the conservative
standard for bootstrap bands.

Both walk the (B, N) index or multiplier matrix in row blocks that return
only their row maxima, so no (B, P) array forms. With g^2 = 1 a Rademacher
block needs one product per group, and one studentized group maps only
its row maxima through a monotone function (mult_t_quantile).

Bands hand every kernel the unit-scale residual groups of their mean field
(bands._scb), so no second moment formed here overflows or underflows.

Each band draws all of its B replicates from one counter-based stream,
``substream(seed)``, in one call: row b of the (B, N) multiplier or index
matrix is replicate b. Estimates are reproducible bit for bit from the seed
alone, whatever the thread count or the order in which bands are built.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVarianceError
from .fdata import _nonzero_scale
from .models import _check_alpha, _integer
from .rng import substream

__all__ = ["ceiling_rank_quantile"]


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
        _check_alpha(self.alpha)


def ceiling_rank_quantile(draws, alpha):
    """Order statistic ceil((1-alpha) B) of the replicate statistics.

    Raises ValueError for no draws, alpha outside (0, 1) or a NaN draw.
    """
    draws = np.asarray(draws, dtype=float)
    b = draws.size
    if b == 0:
        raise ValueError("ceiling-rank quantile needs at least one draw")
    _check_alpha(alpha)
    if np.isnan(draws).any():
        raise ValueError("replicate statistics contain NaN")
    rank = int(np.ceil((1.0 - alpha) * b))  # in [1, B] for alpha in (0, 1)
    return float(np.partition(draws, rank - 1)[rank - 1])


# Both resampling families process replicates in blocks of this many rows,
# so their (rows, P) temporaries stay small whatever B is.
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
        var_fixed = _nonzero_scale(vals.std(axis=0, ddof=1), sample.grid, "pointwise sd") ** 2
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


def _point_stats(gblk, parts, var_fixed):
    """(rows, P) statistic of a block of multiplier rows at every point.

    parts holds (columns, N_g, R_g, M_g) per group, with prod_g = G_g R_g and
    M_g = N_g (G_g∘G_g)(R_g∘R_g): a fixed vector (Rademacher weights), or
    the matrix N_g R_g^2 for Gaussian ones. One group gives x = prod^2 / M,
    T*^2 itself when unstudentized (M = N var_fixed); two give S^2 / V with
    S = sum_g prod_g / sqrt(N_g) and V = var_fixed or
    sum_g max(M_g - prod_g^2, 0) / (N_g (N_g - 1)).
    """
    num, var = 0.0, 0.0 if var_fixed is None else var_fixed
    for cols, n, res, moment in parts:
        g = gblk[:, cols]
        prod = g @ res
        if moment.ndim == 2:
            moment = (g * g) @ moment
        if len(parts) == 1:  # x, in place
            prod *= prod
            return np.divide(prod, moment, out=prod)
        num = num + prod / np.sqrt(n)
        if var_fixed is None:
            var = var + np.maximum(moment - prod * prod, 0.0) / (n * (n - 1.0))
    return num * num / var


def mult_t_quantile(sample, law, cfg):
    """Multiplier bootstrap quantile of the max studentized statistic.

    sample is one FunctionalSample or a tuple of independent groups, and
    law names the mean-zero, unit-variance multipliers: "gaussian" or
    "rademacher". The (B, sum N_g) multiplier matrix G comes from one draw
    of the band's stream; row b is replicate b, and its columns are split
    into the groups in order. With R_n = sqrt(N_g/(N_g-1)) (Y_n - mean_g)
    in group g,

        T* = max_s | sum_g N_g^(-1/2) sum_n g_n R_n(s) | / sd*(s),

    where sd*^2 sums over groups the pointwise variance (divisor N_g-1) of
    the multiplied residuals g_n R_n; with studentized=False it sums the
    groups' own variances. Unstudentized Gaussian multipliers draw exactly
    N(0, sum of the groups' sample covariances) / sd, the "gauss-sim" law.

    G is walked in blocks of _BLOCK_ROWS rows, each returning its row
    maxima: per group one product G_g R_g, plus (G∘G)(R∘R) for Gaussian
    weights; Rademacher ones have g^2 = 1, so that second moment Q is the
    column sum of R^2. One studentized group has sd*^2 = Q (1-x) / (N-1)
    with x = (G R)^2 / (N Q), and T*^2 = (N-1) x / (1-x) increases in x, so
    only the row maxima of x are mapped. Points where every residual is
    zero contribute 0; sd* = 0 under a nonzero numerator (x >= 1) raises
    the degenerate-variance error naming the grid point and the replicate.
    """
    if law not in ("gaussian", "rademacher"):
        raise ValueError(f"unknown multiplier law {law!r}")
    groups = sample if isinstance(sample, tuple) else (sample,)
    sizes = [g.n_samples for g in groups]
    if min(sizes) < 2:
        raise ValueError("multiplier bootstrap needs at least 2 curves per group")
    gen, shape = substream(cfg.seed), (cfg.replicates, sum(sizes))
    if law == "gaussian":
        gmat = gen.standard_normal(shape)
    else:
        gmat = gen.integers(0, 2, size=shape) * 2.0 - 1.0
    var = None
    if not cfg.studentized:
        var = sum(g.values.var(axis=0, ddof=1) for g in groups)
        var = _nonzero_scale(np.sqrt(var), groups[0].grid, "pointwise sd") ** 2
    parts, lo = [], 0
    for n, g in zip(sizes, groups):
        res = np.sqrt(n / (n - 1.0)) * (g.values - g.values.mean(axis=0))
        moment = res * res if law == "gaussian" else (res * res).sum(axis=0)
        parts.append((slice(lo, lo + n), n, res, n * (moment if var is None else var)))
        lo += n

    def block_max(blk):  # 0/0 where no residual spreads is NaN, which fmax skips
        return (np.fmax.reduce(_point_stats(blk, parts, var), axis=1, initial=0.0),)

    # a point at the limit has sd* = 0 under a nonzero numerator
    limit = 1.0 if len(groups) == 1 and var is None else np.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        (stat,) = _in_blocks(block_max, gmat)
        if np.any(stat >= limit):
            start = int(np.argmax(stat >= limit)) // _BLOCK_ROWS * _BLOCK_ROWS
            block = _point_stats(gmat[start : start + _BLOCK_ROWS], parts, var)
            b, p = np.argwhere(block >= limit)[0]
            raise DegenerateVarianceError(
                f"multiplier sd degenerate at grid point {p} in replicate {start + b}"
            )
    if limit == 1.0:
        stat = (sizes[0] - 1.0) * stat / (1.0 - stat)
    # max |T*| is the root of max T*^2: one square root per replicate.
    return ceiling_rank_quantile(np.sqrt(stat), cfg.alpha)
