"""Resampling estimators of the max-statistic quantile.

Three families: the nonparametric bootstrap-t (resample curves, restudentize),
the multiplier bootstrap (perturb residuals with mean-0 variance-1 weights),
and direct Gaussian simulation from an estimated correlation matrix. All of
them reduce the band problem to the empirical quantile of B replicate maxima;
the ceiling-rank order statistic ceil((1-alpha) B) is used throughout, which
is the conservative standard for bootstrap bands.

Each band draws all of its B replicates from one counter-based stream,
``substream(seed)``, in one call: row b of the (B, N) multiplier or index
matrix is replicate b. Estimates are reproducible bit for bit from the seed
alone, whatever the thread count or the order in which bands are built.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVarianceError
from .fdata import _positive_sd, _values_of
from .rng import substream

__all__ = [
    "MultiplierLaw",
    "GAUSSIAN_MULTIPLIERS",
    "RADEMACHER_MULTIPLIERS",
    "BootstrapConfig",
    "boots_t_quantile",
    "mult_t_quantile",
    "gauss_sim_quantile",
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
    """fn(rows[block], *args) over row blocks of rows, concatenated."""
    return np.concatenate(
        [fn(rows[lo : lo + _BLOCK_ROWS], *args) for lo in range(0, len(rows), _BLOCK_ROWS)]
    )


def _row_counts(idx, n):
    """(k, n) matrix whose row b counts how often each curve appears in idx[b]."""
    k = idx.shape[0]
    flat = (np.arange(k)[:, None] * n + idx).ravel()
    return np.bincount(flat, minlength=k * n).reshape(k, n).astype(float)


def _tie_labels(vals):
    """Per-column dense ranks: equal labels exactly where values are equal.

    NaN never equals anything, so every NaN gets a label of its own.
    """
    order = np.argsort(vals, axis=0, kind="stable")
    ordered = np.take_along_axis(vals, order, axis=0)
    steps = np.zeros(vals.shape)
    steps[1:] = ordered[1:] != ordered[:-1]
    labels = np.empty(vals.shape)
    np.put_along_axis(labels, order, np.cumsum(steps, axis=0), axis=0)
    return labels


def _degenerate_rows(idx, labels):
    """Rows of idx whose selected curves are all equal at some grid point.

    Row b selects curves that agree at point p iff their labels L satisfy
    sum C L = n v and sum C L^2 = n v^2 with v the label of the first one
    (then sum C (L - v)^2 = 0). The labels are integers below n, so every
    term stays below n^3 < 2^53 and the float matmuls are exact.
    """
    n = idx.shape[1]
    counts = _row_counts(idx, n)
    first = labels[idx[:, 0]]
    same_sum = counts @ labels == n * first
    same_sq = counts @ (labels * labels) == n * (first * first)
    return np.any(same_sum & same_sq, axis=1)


def _resample_max_t(idx, vals, resid, var_fixed):
    """max_s sqrt(N) |mean* - mean| / sd* of the resample in each row of idx.

    With C the count matrix (C[b, n] = multiplicity of curve n in resample
    b) and X = Y - mean: mean* - mean = C X / N and (N-1) var* =
    C X^2 - N (mean* - mean)^2. Rows where that difference cancels to below
    1e-3 of C X^2 (spread far below the sample's) are recomputed from
    their gathered curves. var_fixed, when given, replaces var*.
    """
    n = idx.shape[1]
    counts = _row_counts(idx, n)
    shift = counts @ resid / n
    if var_fixed is None:
        sumsq = counts @ (resid * resid)
        spread = sumsq - n * shift * shift
        var_star = spread / (n - 1.0)
        for b in np.flatnonzero(np.any(spread <= 1e-3 * sumsq, axis=1)):
            var_star[b] = vals[idx[b]].var(axis=0, ddof=1)
    else:
        var_star = var_fixed
    # max |t| is the root of max t^2: one square root per replicate.
    return np.sqrt(n * np.max(shift * shift / var_star, axis=1))


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
    vals = _values_of(sample)
    n = vals.shape[0]
    if n < 2:
        raise ValueError("bootstrap needs at least 2 curves")
    if n**3 >= 2**53:
        raise ValueError(f"bootstrap supports fewer than 208064 curves, got {n}")
    gen = substream(cfg.seed)
    b_total = cfg.replicates
    idx = gen.integers(0, n, size=(b_total, n))

    if cfg.studentized:
        var_fixed = None
        # Exact degeneracy test: all resampled rows equal somewhere. (A
        # float sd==0 test misses ties broken only by summation rounding,
        # which would blow T* up instead of flagging it.)
        labels = _tie_labels(vals)
        max_rejects = b_total // 10
        rejects = 0
        redo = np.flatnonzero(_in_blocks(_degenerate_rows, idx, labels))
        while redo.size:
            rejects += redo.size
            if rejects > max_rejects:
                raise DegenerateVarianceError(
                    f"more than {max_rejects} degenerate resamples "
                    f"(all rows equal at some grid point)"
                )
            idx[redo] = gen.integers(0, n, size=(redo.size, n))
            redo = redo[_in_blocks(_degenerate_rows, idx[redo], labels)]
    else:
        var_fixed = _positive_sd(sample) ** 2

    resid = vals - vals.mean(axis=0)
    stats = _in_blocks(_resample_max_t, idx, vals, resid, var_fixed)
    return ceiling_rank_quantile(stats, cfg.alpha)


def mult_t_quantile(sample, law, cfg):
    """Multiplier bootstrap quantile of the max studentized statistic.

    Residuals are R_n = sqrt(N/(N-1)) (Y_n - mean). The (B, N) multiplier
    matrix G comes from one draw of the band's stream; row b holds
    replicate b's multipliers g_1..g_N and forms

        T* = max_s | N^(-1/2) sum_n g_n R_n(s) | / sd*(s),

    where sd* is the pointwise sd (divisor N-1) of the multiplied residuals
    g_n R_n; with studentized=False the original-sample sd replaces sd*.
    Points where sd* and the numerator are both exactly zero (all-zero
    residuals) contribute 0; a vanishing sd* under a nonzero numerator
    raises the degenerate-variance error.
    """
    vals = _values_of(sample)
    n = vals.shape[0]
    if n < 2:
        raise ValueError("multiplier bootstrap needs at least 2 curves")

    res = np.sqrt(n / (n - 1.0)) * (vals - vals.mean(axis=0))
    sd_fixed = None if cfg.studentized else _positive_sd(sample)
    gmat = law.draw(substream(cfg.seed), (cfg.replicates, n))

    # (B, P) arrays, the largest here, are updated in place where possible.
    prod = gmat @ res
    sums = prod / np.sqrt(n)
    ratio_sq = sums * sums
    if cfg.studentized:
        m1 = np.divide(prod, n, out=prod)
        var_star = (gmat * gmat) @ (res * res)
        var_star /= n
        var_star -= m1 * m1
        np.clip(var_star, 0.0, None, out=var_star)
        var_star *= n / (n - 1.0)
        zero_sd = var_star == 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio_sq /= var_star
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
        ratio_sq /= sd_fixed * sd_fixed
    # max |T*| is the root of max T*^2: one square root per replicate.
    return ceiling_rank_quantile(np.sqrt(ratio_sq.max(axis=1)), cfg.alpha)


def gauss_sim_quantile(covariance, alpha, draws, rng=0):
    """Empirical (1-alpha) quantile of max |X| for X ~ N(0, correlation).

    The correlation matrix is eigen-factorized with eigenvalues floored at
    zero, so inputs that are PSD only up to rounding are accepted. rng is
    seed material (integer or SeedSequence) or a Generator.
    """
    corr = np.asarray(covariance, dtype=float)
    if corr.ndim != 2 or corr.shape[0] != corr.shape[1]:
        raise ValueError("covariance must be a square matrix")
    if not np.all(np.isfinite(corr)):
        raise ValueError("covariance contains non-finite entries")
    if not np.allclose(corr, corr.T, atol=1e-8):
        raise ValueError("covariance must be symmetric")
    if not np.allclose(np.diag(corr), 1.0, atol=1e-8):
        raise ValueError("expected a correlation matrix with unit diagonal")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if draws < 1:
        raise ValueError("need at least one draw")

    evals, evecs = np.linalg.eigh(0.5 * (corr + corr.T))
    factor = evecs * np.sqrt(np.clip(evals, 0.0, None))
    gen = rng if isinstance(rng, np.random.Generator) else substream(rng)
    z = gen.standard_normal((int(draws), corr.shape[0]))
    maxima = np.abs(z @ factor.T).max(axis=1)
    return ceiling_rank_quantile(maxima, alpha)
