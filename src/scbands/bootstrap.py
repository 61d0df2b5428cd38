"""Resampling estimators of the max-statistic quantile.

Every resampling band is one weighted-residual statistic under one of three
weight laws. Replicate b weighs the residual curves X_n of a group by
mean-0, variance-1 multipliers w_bn, Gaussian or Rademacher, or by the
counts C_bn of curve n in a resample drawn with replacement: the
nonparametric bootstrap. With a = w_b X and Q = v_b X^2, where v = w∘w for
multipliers (1 for Rademacher signs) and v = C for counts, one group has
T*^2 = (N-1) x / (1-x) with x = a^2 / (N Q) in [0, 1], the squared t
statistic of the weighted curves, or a^2 / (N var) with the sample's own
variance when unstudentized. Multipliers weigh X = sqrt(N/(N-1)) (Y -
mean), resamples X = Y - mean. Unstudentized Gaussian multipliers are the
Gaussian simulation from the estimated correlation, since G X / sqrt(N-1)
has exactly that law. The quantile is the ceiling-rank order statistic
ceil((1-alpha) B) of the B replicate maxima, the conservative standard for
bootstrap bands.

One kernel, _point_stats, walks the (B, N) weight matrix in row blocks that
return only their row maxima, so no (B, P) array forms; N X^2 is built once
per band, and only the row maxima of x are mapped to T*^2. Bands hand it
the unit-scale residual groups of their mean field (bands._scb), so no
second moment formed here overflows or underflows.

Each band draws all of its B replicates from one counter-based stream,
``substream(seed)``, in one call: row b of the (B, N) multiplier or index
matrix is replicate b. Rademacher signs are the bits of B N / 8 random
bytes, one bit per sign, row-major. Estimates are reproducible bit for bit
from the seed alone, whatever the thread count or the order in which bands
are built.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVarianceError, _check_alpha, _count, _real_array
from .fdata import _nonzero_scale
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
        object.__setattr__(self, "replicates", _count("replicates", self.replicates, positive=True))
        _check_alpha(self.alpha)


def ceiling_rank_quantile(draws, alpha):
    """Order statistic ceil((1-alpha) B) of the replicate statistics.

    Raises ValueError for no draws, alpha outside (0, 1), or draws that
    errors._real_array refuses: not a 1-D list of reals, or a non-finite draw.
    """
    draws = _real_array("draws", draws, 1, "a one-dimensional sequence")
    b = draws.size
    if b == 0:
        raise ValueError("ceiling-rank quantile needs at least one draw")
    _check_alpha(alpha)
    rank = int(np.ceil((1.0 - alpha) * b))  # in [1, B] for alpha in (0, 1)
    return float(np.partition(draws, rank - 1)[rank - 1])


# Every resampling kernel walks its replicates in blocks of this many rows,
# so its (rows, P) temporaries stay small whatever B is.
_BLOCK_ROWS = 64


def _in_blocks(fn, rows):
    """fn(rows[block]) over row blocks of rows, concatenated."""
    starts = range(0, len(rows), _BLOCK_ROWS)
    return np.concatenate([fn(rows[lo : lo + _BLOCK_ROWS]) for lo in starts])


def _row_counts(idx, n):
    """(k, n) matrix whose row b counts how often each curve appears in idx[b]."""
    k = idx.shape[0]
    flat = (np.arange(k)[:, None] * n + idx).ravel()
    return np.bincount(flat, minlength=k * n).reshape(k, n).astype(float)


def _point_stats(wblk, parts, var_fixed, counts=False):
    """(rows, P) statistic of a block of weight rows W at every point.

    parts holds (columns, N_g, R_g, M_g) per group, with prod_g = W_g R_g and
    M_g a fixed vector (N var_fixed, or Rademacher weights' column sum) or
    N_g R_g^2, which the block weighs by W∘W, or by the counts W themselves
    (counts=True). One group gives x = prod^2 / M, T*^2 itself when
    unstudentized; two give S^2 / V with S = sum_g prod_g / sqrt(N_g) and
    V = var_fixed or sum_g max(M_g - prod_g^2, 0) / (N_g (N_g - 1)).
    """
    num, var = 0.0, 0.0 if var_fixed is None else var_fixed
    for cols, n, res, moment in parts:
        w = wblk[:, cols]
        prod = w @ res
        if moment.ndim == 2:
            moment = (w if counts else w * w) @ moment
        if len(parts) == 1:  # x, in place
            prod *= prod
            return np.divide(prod, moment, out=prod)
        num = num + prod / np.sqrt(n)
        if var_fixed is None:
            var = var + np.maximum(moment - prod * prod, 0.0) / (n * (n - 1.0))
    return num * num / var


def _studentized(x, n):
    """T*^2 = (N-1) x / (1-x) of one studentized group, increasing in x."""
    return (n - 1.0) * x / (1.0 - x)


def boots_t_quantile(sample, cfg):
    """Bootstrap-t quantile of max_s sqrt(N) |mean* - mean| / sd*.

    Resamples rows with replacement B times: the (B, N) index matrix comes
    from one draw of the band's stream, and no B x N x P array of resampled
    curves is formed. This is the module docstring's statistic under count
    weights: sd* is the resample's own pointwise sd, or the sample's with
    studentized=False. Near x = 1 the spread Q - a^2 / N cancels, so a resample
    whose max x is NaN (no spread at some point) or at least 1 - 1e-3 takes
    its statistic from its gathered curves. One whose curves all coincide
    at some grid point is degenerate: such resamples are rejected and
    redrawn together from the same stream, as one (k, N) draw in ascending
    replicate order, until none is left (error once more than B/10
    rejections accumulate).
    """
    vals = sample.values
    n = vals.shape[0]
    if n < 2:
        raise ValueError("bootstrap needs at least 2 curves")
    gen = substream(cfg.seed)
    idx = gen.integers(0, n, size=(cfg.replicates, n))
    mean = vals.mean(axis=0)
    resid = vals - mean
    if cfg.studentized:
        moment = n * (resid * resid)
    else:
        moment = n * _nonzero_scale(vals.std(axis=0, ddof=1), sample.grid, "pointwise sd") ** 2
    parts = [(slice(0, n), n, resid, moment)]

    def block_max(blk):  # 0/0, a resample with no spread at some point, is NaN
        counts = _row_counts(blk, n)
        return np.max(_point_stats(counts, parts, None, counts=True), axis=1)

    def t_squared(rows):
        """T*^2 of each resample in rows, NaN for a degenerate one."""
        with np.errstate(divide="ignore", invalid="ignore"):
            x = _in_blocks(block_max, rows)
            if not cfg.studentized:
                return x
            stat = _studentized(x, n)
        for b in np.flatnonzero(~(x < 1.0 - 1e-3)):
            boot = vals[rows[b]]
            if np.any(np.all(boot == boot[0], axis=0)):
                stat[b] = np.nan
            else:
                stat[b] = np.max(n * (boot.mean(axis=0) - mean) ** 2 / boot.var(axis=0, ddof=1))
        return stat

    stat = t_squared(idx)
    max_rejects = cfg.replicates // 10
    rejects = 0
    redo = np.flatnonzero(np.isnan(stat))
    while redo.size:
        rejects += redo.size
        if rejects > max_rejects:
            raise DegenerateVarianceError(
                f"more than {max_rejects} degenerate resamples "
                f"(all rows equal at some grid point)"
            )
        idx[redo] = gen.integers(0, n, size=(redo.size, n))
        stat[redo] = t_squared(idx[redo])
        redo = redo[np.isnan(stat[redo])]
    # max |t| is the root of max t^2: one square root per replicate.
    return ceiling_rank_quantile(np.sqrt(stat), cfg.alpha)


def _rademacher(gen, shape):
    """Array of the given shape of signs +-1, one per bit of gen.bytes (row-major)."""
    count = int(np.prod(shape))
    bits = np.unpackbits(np.frombuffer(gen.bytes(-(-count // 8)), dtype=np.uint8), count=count)
    return bits.reshape(shape) * 2.0 - 1.0


def mult_t_quantile(sample, law, cfg):
    """Multiplier bootstrap quantile of the max studentized statistic.

    sample is one FunctionalSample or a tuple of independent groups, and
    law names the multipliers: "gaussian" or "rademacher". The (B, sum N_g)
    multiplier matrix G comes from one draw of the band's stream; row b is
    replicate b, and its columns are split into the groups in order;
    Rademacher signs come from _rademacher. With R_n = sqrt(N_g/(N_g-1))
    (Y_n - mean_g) in group g,

        T* = max_s | sum_g N_g^(-1/2) sum_n g_n R_n(s) | / sd*(s),

    where sd*^2 sums over groups the pointwise variance (divisor N_g-1) of
    the multiplied residuals g_n R_n, or the groups' own variances when
    unstudentized; one group is the module docstring's statistic. Points
    where every residual is zero contribute 0; sd* = 0 under a nonzero
    numerator (x >= 1) raises the degenerate-variance error naming the
    grid point and the replicate.
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
        gmat = _rademacher(gen, shape)
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
        return np.fmax.reduce(_point_stats(blk, parts, var), axis=1, initial=0.0)

    # a point at the limit has sd* = 0 under a nonzero numerator
    limit = 1.0 if len(groups) == 1 and var is None else np.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        stat = _in_blocks(block_max, gmat)
        if np.any(stat >= limit):
            start = int(np.argmax(stat >= limit)) // _BLOCK_ROWS * _BLOCK_ROWS
            block = _point_stats(gmat[start : start + _BLOCK_ROWS], parts, var)
            b, p = np.argwhere(block >= limit)[0]
            raise DegenerateVarianceError(
                f"multiplier sd degenerate at grid point {p} in replicate {start + b}"
            )
    if limit == 1.0:
        stat = _studentized(stat, sizes[0])
    # max |T*| is the root of max T*^2: one square root per replicate.
    return ceiling_rank_quantile(np.sqrt(stat), cfg.alpha)
