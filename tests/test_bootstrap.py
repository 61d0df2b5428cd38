"""Resampling quantiles: bootstrap-t, multiplier, and Gaussian simulation."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from scbands import (
    GAUSSIAN_MULTIPLIERS,
    RADEMACHER_MULTIPLIERS,
    BootstrapConfig,
    DegenerateVarianceError,
    FunctionalSample,
    Grid1D,
    boots_t_quantile,
    ceiling_rank_quantile,
    gauss_sim_quantile,
    mult_t_quantile,
    substream,
)


@pytest.fixture
def sample():
    g = Grid1D(np.linspace(0.0, 1.0, 50))
    vals = substream(31, 0).standard_normal((25, 50)) + np.sin(
        2 * np.pi * g.points
    )
    return FunctionalSample(vals, g)


def test_boots_t_deterministic_per_seed(sample):
    cfg = BootstrapConfig(replicates=200, alpha=0.05, seed=4)
    q1 = boots_t_quantile(sample, cfg)
    q2 = boots_t_quantile(sample, cfg)
    q3 = boots_t_quantile(sample, BootstrapConfig(replicates=200, alpha=0.05, seed=5))
    assert q1 == q2
    assert q1 != q3
    assert 1.0 < q1 < 6.0


def test_boots_t_all_rows_identical_is_degenerate():
    g = Grid1D(np.linspace(0.0, 1.0, 40))
    s = FunctionalSample(np.ones((5, 40)) * 2.0, g)
    with pytest.raises(DegenerateVarianceError, match="degenerate resamples"):
        boots_t_quantile(s, BootstrapConfig(replicates=50, seed=1))


def test_boots_plain_zero_spread_is_degenerate():
    # the non-studentized statistic still divides by the original sd
    g = Grid1D(np.linspace(0.0, 1.0, 40))
    s = FunctionalSample(np.full((5, 40), 3.25), g)
    cfg = BootstrapConfig(replicates=50, seed=1, studentized=False)
    with pytest.raises(DegenerateVarianceError, match="sd is zero"):
        boots_t_quantile(s, cfg)


def test_multiplier_zero_residuals_gives_zero():
    g = Grid1D(np.linspace(0.0, 1.0, 40))
    s = FunctionalSample(np.full((5, 40), -1.5), g)
    cfg = BootstrapConfig(replicates=50, seed=1)
    assert mult_t_quantile(s, GAUSSIAN_MULTIPLIERS, cfg) == 0.0
    assert mult_t_quantile(s, RADEMACHER_MULTIPLIERS, cfg) == 0.0


def test_multiplier_deterministic_per_seed(sample):
    cfg = BootstrapConfig(replicates=300, alpha=0.05, seed=9)
    for law in (GAUSSIAN_MULTIPLIERS, RADEMACHER_MULTIPLIERS):
        assert mult_t_quantile(sample, law, cfg) == mult_t_quantile(sample, law, cfg)


def test_multiplier_sign_flip_invariance(sample):
    # negating all residuals leaves every replicate statistic unchanged
    flipped = FunctionalSample(
        2.0 * sample.values.mean(axis=0) - sample.values, sample.grid
    )
    cfg = BootstrapConfig(replicates=300, alpha=0.05, seed=2)
    for law in (GAUSSIAN_MULTIPLIERS, RADEMACHER_MULTIPLIERS):
        assert_allclose(
            mult_t_quantile(sample, law, cfg),
            mult_t_quantile(flipped, law, cfg),
            rtol=1e-12,
        )


def test_multiplier_shift_invariance(sample):
    shifted = FunctionalSample(sample.values + 11.0, sample.grid)
    cfg = BootstrapConfig(replicates=200, seed=6)
    q0 = mult_t_quantile(sample, GAUSSIAN_MULTIPLIERS, cfg)
    q1 = mult_t_quantile(shifted, GAUSSIAN_MULTIPLIERS, cfg)
    assert_allclose(q0, q1, rtol=1e-12)


def test_quantiles_decrease_with_level(sample):
    qs = [
        boots_t_quantile(sample, BootstrapConfig(replicates=400, alpha=a, seed=3))
        for a in (0.01, 0.05, 0.2)
    ]
    assert qs[0] >= qs[1] >= qs[2]
    qs = [
        mult_t_quantile(
            sample, RADEMACHER_MULTIPLIERS, BootstrapConfig(replicates=400, alpha=a, seed=3)
        )
        for a in (0.01, 0.05, 0.2)
    ]
    assert qs[0] >= qs[1] >= qs[2]


def test_rademacher_statistic_triangle_bound(sample):
    # every replicate obeys |sum g R| <= sum |R|, so the non-studentized
    # quantile cannot exceed max_s sum_n |R_n(s)| / sqrt(N)
    n = sample.n_samples
    resid = np.sqrt(n / (n - 1.0)) * (
        sample.values - sample.values.mean(axis=0)
    )
    bound = np.abs(resid).sum(axis=0).max() / np.sqrt(n)
    cfg = BootstrapConfig(replicates=500, seed=8, studentized=False)
    assert mult_t_quantile(sample, RADEMACHER_MULTIPLIERS, cfg) <= bound + 1e-12


def test_gauss_sim_matches_pointwise_quantile():
    q = gauss_sim_quantile(np.eye(1), 0.05, 20000, rng=3)
    assert abs(q - stats.norm.isf(0.025)) < 0.04


def test_gauss_sim_two_independent_points():
    # max of two independent |N(0,1)|: analytic level from the product rule
    q = gauss_sim_quantile(np.eye(2), 0.05, 20000, rng=3)
    target = stats.norm.isf((1.0 - np.sqrt(0.95)) / 2.0)
    assert abs(q - target) < 0.05


def test_gauss_sim_rank_deficient_correlation():
    # perfectly correlated points collapse to a single Gaussian maximum
    q = gauss_sim_quantile(np.ones((3, 3)), 0.05, 20000, rng=5)
    assert abs(q - stats.norm.isf(0.025)) < 0.05


def test_gauss_sim_deterministic_per_seed():
    cov = np.array([[1.0, 0.4], [0.4, 1.0]])
    assert gauss_sim_quantile(cov, 0.05, 2000, rng=7) == gauss_sim_quantile(
        cov, 0.05, 2000, rng=7
    )


def test_bootstrap_config_validation():
    with pytest.raises(ValueError):
        BootstrapConfig(replicates=0)
    with pytest.raises(ValueError):
        BootstrapConfig(alpha=0.0)
    with pytest.raises(ValueError):
        BootstrapConfig(alpha=1.5)


# Reference kernels: one replicate at a time, over the same one-stream
# draws as the vectorised kernels (row b of the (B, N) matrix is
# replicate b; degenerate rows are redrawn together, in ascending order).

def _loop_mult(sample, law, cfg):
    vals = sample.values
    n = vals.shape[0]
    res = np.sqrt(n / (n - 1.0)) * (vals - vals.mean(axis=0))
    gmat = law.draw(substream(cfg.seed), (cfg.replicates, n))
    stats_b = []
    for g in gmat:
        terms = g[:, None] * res
        sd = terms.std(axis=0, ddof=1) if cfg.studentized else vals.std(axis=0, ddof=1)
        stats_b.append(np.max(np.abs(terms.sum(axis=0) / np.sqrt(n)) / sd))
    return ceiling_rank_quantile(stats_b, cfg.alpha)


def _loop_boots(sample, cfg):
    """(quantile, rejections) of the bootstrap-t, one resample at a time."""
    vals = sample.values
    n = vals.shape[0]
    gen = substream(cfg.seed)
    idx = gen.integers(0, n, size=(cfg.replicates, n))

    def degenerate(b):
        boot = vals[idx[b]]
        return bool(np.any(np.all(boot == boot[0], axis=0)))

    rejects = 0
    redo = [b for b in range(cfg.replicates) if cfg.studentized and degenerate(b)]
    while redo:
        rejects += len(redo)
        if rejects > cfg.replicates // 10:
            raise DegenerateVarianceError("more than B/10 degenerate resamples")
        idx[redo] = gen.integers(0, n, size=(len(redo), n))
        redo = [b for b in redo if degenerate(b)]
    stats_b = []
    for b in range(cfg.replicates):
        boot = vals[idx[b]]
        sd = boot.std(axis=0, ddof=1) if cfg.studentized else vals.std(axis=0, ddof=1)
        stats_b.append(np.max(np.sqrt(n) * np.abs(boot.mean(axis=0) - vals.mean(axis=0)) / sd))
    return ceiling_rank_quantile(stats_b, cfg.alpha), rejects


@pytest.mark.parametrize("studentized", [True, False])
def test_vectorised_kernels_match_replicate_loops(sample, studentized):
    for seed in (0, 17, np.random.SeedSequence(5, spawn_key=(4, 1))):
        cfg = BootstrapConfig(replicates=300, alpha=0.1, studentized=studentized, seed=seed)
        for law in (GAUSSIAN_MULTIPLIERS, RADEMACHER_MULTIPLIERS):
            assert_allclose(
                mult_t_quantile(sample, law, cfg), _loop_mult(sample, law, cfg), rtol=1e-12
            )
        assert_allclose(boots_t_quantile(sample, cfg), _loop_boots(sample, cfg)[0], rtol=1e-12)


def _tied_sample(tied_rows, n=6, p=30):
    # rows 0..tied_rows-1 coincide on the first five grid points
    vals = substream(8, 1).standard_normal((n, p))
    vals[1:tied_rows, :5] = vals[0, :5]
    return FunctionalSample(vals, Grid1D(np.linspace(0.0, 1.0, p)))


def test_boots_t_redraws_tied_resamples_in_order():
    # 3 of 6 rows tied: a resample is degenerate with probability 1/64
    s = _tied_sample(3)
    redrawn = 0
    for seed in range(4):
        cfg = BootstrapConfig(replicates=400, alpha=0.05, seed=seed)
        expected, rejects = _loop_boots(s, cfg)
        redrawn += rejects
        assert_allclose(boots_t_quantile(s, cfg), expected, rtol=1e-12)
    assert redrawn > 0


def test_boots_t_rejection_limit_at_its_edge():
    # 4 of 6 rows tied: about B/11 resamples are degenerate. At B=200 the
    # limit is 20 rejections; seeds 18 and 19 reject exactly 20 (and pass),
    # seeds 0 and 1 reject 21 (and raise).
    s = _tied_sample(4)
    for seed in (18, 19):
        cfg = BootstrapConfig(replicates=200, alpha=0.05, seed=seed)
        expected, rejects = _loop_boots(s, cfg)
        assert rejects == 20
        assert_allclose(boots_t_quantile(s, cfg), expected, rtol=1e-12)
    for seed in (0, 1):
        cfg = BootstrapConfig(replicates=200, alpha=0.05, seed=seed)
        with pytest.raises(DegenerateVarianceError, match="more than 20 degenerate resamples"):
            boots_t_quantile(s, cfg)


def test_boots_t_rejection_limit_with_ties():
    # 5 of 6 rows tied: a third of all resamples are degenerate
    s = _tied_sample(5)
    cfg = BootstrapConfig(replicates=200, alpha=0.05, seed=2)
    with pytest.raises(DegenerateVarianceError, match="more than 20 degenerate resamples"):
        boots_t_quantile(s, cfg)
    with pytest.raises(DegenerateVarianceError):
        _loop_boots(s, cfg)
    # unstudentized resamples are never rejected
    plain = BootstrapConfig(replicates=200, alpha=0.05, studentized=False, seed=2)
    assert_allclose(boots_t_quantile(s, plain), _loop_boots(s, plain)[0], rtol=1e-12)


def test_boots_t_tiny_resample_spread_is_exact():
    # rows 0-2 differ by 1e-9, row 3 is far away: a third of all resamples
    # pick near-equal rows only, their sd* cancels in the count-matrix
    # formula, and the quantile lands among them
    base = substream(8, 2).standard_normal(20)
    vals = np.vstack([base, base + 1e-9, base - 1e-9, base + 3.0])
    s = FunctionalSample(vals, Grid1D(np.linspace(0.0, 1.0, 20)))
    cfg = BootstrapConfig(replicates=500, alpha=0.2, seed=1)
    q = boots_t_quantile(s, cfg)
    assert q > 1e6
    assert_allclose(q, _loop_boots(s, cfg)[0], rtol=1e-9)
