"""Resampling estimators of the max-statistic quantile.

Three families: the nonparametric bootstrap-t (resample curves, restudentize),
the multiplier bootstrap (perturb residuals with mean-0 variance-1 weights),
and direct Gaussian simulation from an estimated correlation matrix. All of
them reduce the band problem to the empirical quantile of B replicate maxima;
the ceiling-rank order statistic ceil((1-alpha) B) is used throughout, which
is the conservative standard for bootstrap bands.

Every replicate draws from its own substream keyed by the replicate index,
so estimates are reproducible bit for bit and independent of the order in
which replicates are evaluated.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVarianceError
from .fdata import _positive_sd, _values_of
from .rng import stream_root, substream

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

    def draw(self, rng, n):
        if self.kind == "gaussian":
            return rng.standard_normal(n)
        return rng.integers(0, 2, size=n) * 2.0 - 1.0


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


def boots_t_quantile(sample, cfg):
    """Bootstrap-t quantile of max_s sqrt(N) |mean* - mean| / sd*.

    Resamples rows with replacement B times. In studentized mode sd* is the
    resample's own pointwise sd; degenerate resamples, where every selected
    row coincides at some grid point, are rejected and redrawn from the
    replicate's next attempt stream (error once more than B/10 rejections
    accumulate). With studentized=False the original-sample sd is used and
    no resample is degenerate.
    """
    vals = _values_of(sample)
    n = vals.shape[0]
    if n < 2:
        raise ValueError("bootstrap needs at least 2 curves")
    root = stream_root(cfg.seed)

    mean = vals.mean(axis=0)
    sd_fixed = None if cfg.studentized else _positive_sd(sample)
    sqrt_n = np.sqrt(n)

    b_total = cfg.replicates
    max_rejects = b_total // 10
    rejects = 0
    stats = np.empty(b_total)
    for b in range(b_total):
        attempt = 0
        while True:
            gen = substream(root, b, attempt)
            idx = gen.integers(0, n, size=n)
            boot = vals[idx]
            if cfg.studentized:
                # Exact degeneracy test: all resampled rows equal somewhere.
                # (A float sd==0 test misses ties broken only by summation
                # rounding, which would blow T* up instead of flagging it.)
                if np.any(np.all(boot == boot[0], axis=0)):
                    rejects += 1
                    attempt += 1
                    if rejects > max_rejects:
                        raise DegenerateVarianceError(
                            f"more than {max_rejects} degenerate resamples "
                            f"(all rows equal at some grid point)"
                        )
                    continue
                sd_star = boot.std(axis=0, ddof=1)
            else:
                sd_star = sd_fixed
            stats[b] = np.max(sqrt_n * np.abs(boot.mean(axis=0) - mean) / sd_star)
            break
    return ceiling_rank_quantile(stats, cfg.alpha)


def mult_t_quantile(sample, law, cfg):
    """Multiplier bootstrap quantile of the max studentized statistic.

    Residuals are R_n = sqrt(N/(N-1)) (Y_n - mean). Each replicate draws
    multipliers g_1..g_N from the law and forms

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
    root = stream_root(cfg.seed)

    res = np.sqrt(n / (n - 1.0)) * (vals - vals.mean(axis=0))
    sd_fixed = None if cfg.studentized else _positive_sd(sample)

    b_total = cfg.replicates
    gmat = np.empty((b_total, n))
    for b in range(b_total):
        gmat[b] = law.draw(substream(root, b), n)

    sums = gmat @ res / np.sqrt(n)
    if cfg.studentized:
        m1 = gmat @ res / n
        m2 = (gmat * gmat) @ (res * res) / n
        var_star = np.clip(m2 - m1 * m1, 0.0, None) * (n / (n - 1.0))
        sd_star = np.sqrt(var_star)
        zero_sd = sd_star == 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.abs(sums) / sd_star
        if np.any(zero_sd):
            nonzero_num = zero_sd & (sums != 0.0)
            if np.any(nonzero_num):
                b_bad, p_bad = np.argwhere(nonzero_num)[0]
                raise DegenerateVarianceError(
                    f"multiplier sd degenerate at grid point {int(p_bad)} "
                    f"in replicate {int(b_bad)}"
                )
            ratio[zero_sd] = 0.0
    else:
        ratio = np.abs(sums) / sd_fixed
    return ceiling_rank_quantile(ratio.max(axis=1), cfg.alpha)


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
