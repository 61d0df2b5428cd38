"""Resampling quantiles: bootstrap-t and multipliers, Gaussian simulation among them."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from scbands import (
    DegenerateVarianceError,
    FunctionalSample,
    Grid1D,
    ModelSpec,
    ceiling_rank_quantile,
    gen_model,
    scb_one_sample,
    scb_two_sample,
    substream,
    two_sample_residuals,
)
from scbands.bootstrap import BootstrapConfig, _rademacher, boots_t_quantile, mult_t_quantile

LAWS = ("gaussian", "rademacher")


def _multipliers(law, seed, shape):
    """The multiplier matrix mult_t_quantile draws from the band's stream:
    Rademacher signs are the bits of ceil(B N / 8) bytes, row-major."""
    gen = substream(seed)
    if law == "gaussian":
        return gen.standard_normal(shape)
    count = shape[0] * shape[1]
    bits = np.unpackbits(np.frombuffer(gen.bytes((count + 7) // 8), dtype=np.uint8))
    return np.where(bits[:count] == 1, 1.0, -1.0).reshape(shape)


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
    assert mult_t_quantile(s, "gaussian", cfg) == 0.0
    assert mult_t_quantile(s, "rademacher", cfg) == 0.0


def test_unknown_multiplier_law_rejected(sample):
    with pytest.raises(ValueError, match="unknown multiplier law 'normal'"):
        mult_t_quantile(sample, "normal", BootstrapConfig(replicates=50, seed=1))


def test_multiplier_deterministic_per_seed(sample):
    cfg = BootstrapConfig(replicates=300, alpha=0.05, seed=9)
    for law in LAWS:
        assert mult_t_quantile(sample, law, cfg) == mult_t_quantile(sample, law, cfg)


def test_multiplier_sign_flip_invariance(sample):
    # negating all residuals leaves every replicate statistic unchanged
    flipped = FunctionalSample(
        2.0 * sample.values.mean(axis=0) - sample.values, sample.grid
    )
    cfg = BootstrapConfig(replicates=300, alpha=0.05, seed=2)
    for law in LAWS:
        assert_allclose(
            mult_t_quantile(sample, law, cfg),
            mult_t_quantile(flipped, law, cfg),
            rtol=1e-12,
        )


def test_multiplier_shift_invariance(sample):
    shifted = FunctionalSample(sample.values + 11.0, sample.grid)
    cfg = BootstrapConfig(replicates=200, seed=6)
    q0 = mult_t_quantile(sample, "gaussian", cfg)
    q1 = mult_t_quantile(shifted, "gaussian", cfg)
    assert_allclose(q0, q1, rtol=1e-12)


def test_quantiles_decrease_with_level(sample):
    qs = [
        boots_t_quantile(sample, BootstrapConfig(replicates=400, alpha=a, seed=3))
        for a in (0.01, 0.05, 0.2)
    ]
    assert qs[0] >= qs[1] >= qs[2]
    qs = [
        mult_t_quantile(
            sample, "rademacher", BootstrapConfig(replicates=400, alpha=a, seed=3)
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
    assert mult_t_quantile(sample, "rademacher", cfg) <= bound + 1e-12


# "gauss-sim" draws R'g / sqrt(N-1) with g ~ N(0, I_N) and R the normed
# residuals, so its law is exactly N(0, R'R / (N-1)): the samples below are
# built so that this residual correlation is a known matrix.

def _columns(*cols):
    vals = np.column_stack(cols)
    return FunctionalSample(vals, Grid1D(np.linspace(0.0, 1.0, vals.shape[1])))


def test_gauss_sim_matches_pointwise_quantile():
    # three identical columns: a single N(0, 1) point
    v = substream(3, 1).standard_normal(10)
    band = scb_one_sample(_columns(v, v, v), "gauss-sim", replicates=20000, seed=3)
    assert abs(band.quantile - stats.norm.isf(0.025)) < 0.04


def test_gauss_sim_two_independent_points():
    # two orthogonal centred columns (the third repeats the first up to an
    # affine map): the max of two independent |N(0,1)|, whose level
    # follows from the product rule
    u = np.array([1.0, 1.0, -1.0, -1.0])
    w = np.array([1.0, -1.0, 1.0, -1.0])
    band = scb_one_sample(_columns(u, w, 2.0 * u + 1.0), "gauss-sim", replicates=20000, seed=3)
    target = stats.norm.isf((1.0 - np.sqrt(0.95)) / 2.0)
    assert abs(band.quantile - target) < 0.05


def test_gauss_sim_rank_deficient_correlation():
    # affinely identical columns (either sign) collapse to one Gaussian maximum
    v = substream(5, 1).standard_normal(10)
    band = scb_one_sample(_columns(v, 3.0 * v - 2.0, 5.0 - 0.5 * v), "gauss-sim",
                          replicates=20000, seed=5)
    assert abs(band.quantile - stats.norm.isf(0.025)) < 0.05


def test_gauss_sim_deterministic_per_seed(sample):
    q7 = scb_one_sample(sample, "gauss-sim", replicates=2000, seed=7).quantile
    assert q7 == scb_one_sample(sample, "gauss-sim", replicates=2000, seed=7).quantile
    assert q7 != scb_one_sample(sample, "gauss-sim", replicates=2000, seed=8).quantile


def test_gauss_sim_is_the_unstudentized_gaussian_multiplier(sample):
    for seed in (0, np.random.SeedSequence(5, spawn_key=(4, 1))):
        sim = scb_one_sample(sample, "gauss-sim", replicates=500, seed=seed)
        mult = scb_one_sample(sample, "gmult", replicates=500, seed=seed)
        assert sim.quantile == mult.quantile
        assert np.array_equal(sim.upper, mult.upper)


def test_two_sample_gauss_sim_matches_explicit_draw():
    # mean over 12 seeds of the kernel's quantile against that of explicit
    # N(0, sum_g R_g'R_g / (N_g - 1)) draws, from independent streams
    y = gen_model(ModelSpec("A", resolution=50), 12, substream(61, 0))
    x = gen_model(ModelSpec("A", resolution=50), 17, substream(61, 1))
    groups = two_sample_residuals(y, x)[3]
    factor = np.vstack([r.values / np.sqrt(r.n_samples - 1.0) for r in groups])
    kernel, explicit = [], []
    for seed in range(12):
        kernel.append(scb_two_sample(y, x, "gauss-sim", 0.05, 20000, seed).quantile)
        z = substream(seed, 99).standard_normal((20000, factor.shape[0]))
        explicit.append(ceiling_rank_quantile(np.abs(z @ factor).max(axis=1), 0.05))
    se = np.hypot(np.std(kernel, ddof=1), np.std(explicit, ddof=1)) / np.sqrt(12)
    assert abs(np.mean(kernel) - np.mean(explicit)) < 3.0 * se


def test_bootstrap_config_validation():
    with pytest.raises(ValueError):
        BootstrapConfig(replicates=0)
    with pytest.raises(ValueError):
        BootstrapConfig(alpha=0.0)
    with pytest.raises(ValueError):
        BootstrapConfig(alpha=1.5)


def test_kernels_need_two_curves_per_group(sample):
    # the band code checks this first; called directly, each kernel checks it too
    one = FunctionalSample(sample.values[:1], sample.grid)
    cfg = BootstrapConfig(replicates=20)
    with pytest.raises(ValueError, match="^bootstrap needs at least 2 curves$"):
        boots_t_quantile(one, cfg)
    for law in LAWS:
        for groups in (one, (sample, one), (one, sample)):
            with pytest.raises(ValueError,
                               match="^multiplier bootstrap needs at least 2 curves per group$"):
                mult_t_quantile(groups, law, cfg)


def test_bootstrap_config_rejects_fractional_replicates():
    with pytest.raises(ValueError, match="replicates must be an integer, got 2.5"):
        BootstrapConfig(replicates=2.5)
    assert BootstrapConfig(replicates=20.0).replicates == 20


# Reference kernels: one replicate at a time, over the same one-stream
# draws as the vectorised kernels (row b of the (B, N) matrix is
# replicate b; degenerate rows are redrawn together, in ascending order).

def _loop_mult(sample, law, cfg):
    groups = sample if isinstance(sample, tuple) else (sample,)
    sizes = [g.n_samples for g in groups]
    gmat = _multipliers(law, cfg.seed, (cfg.replicates, sum(sizes)))
    edges = np.cumsum([0] + sizes)
    stats_b = []
    for row in gmat:
        num, var = 0.0, 0.0
        for group, lo, hi in zip(groups, edges[:-1], edges[1:]):
            vals, n = group.values, hi - lo
            res = np.sqrt(n / (n - 1.0)) * (vals - vals.mean(axis=0))
            terms = row[lo:hi, None] * res
            num = num + terms.sum(axis=0) / np.sqrt(n)
            var = var + (terms if cfg.studentized else vals).var(axis=0, ddof=1)
        stats_b.append(np.max(np.abs(num) / np.sqrt(var)))
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
        for law in LAWS:
            assert_allclose(
                mult_t_quantile(sample, law, cfg), _loop_mult(sample, law, cfg), rtol=1e-12
            )
        assert_allclose(boots_t_quantile(sample, cfg), _loop_boots(sample, cfg)[0], rtol=1e-12)


@pytest.mark.parametrize("studentized", [True, False])
def test_group_multiplier_kernel_matches_replicate_loop(studentized):
    # two independent groups of unequal size, multipliers drawn per group
    vals = substream(31, 1).standard_normal((29, 50))
    grid = Grid1D(np.linspace(0.0, 1.0, 50))
    groups = (FunctionalSample(vals[:12], grid), FunctionalSample(2.0 * vals[12:] + 1.0, grid))
    for seed in (0, 17, np.random.SeedSequence(5, spawn_key=(4, 1))):
        cfg = BootstrapConfig(replicates=300, alpha=0.1, studentized=studentized, seed=seed)
        for law in LAWS:
            assert_allclose(
                mult_t_quantile(groups, law, cfg), _loop_mult(groups, law, cfg), rtol=1e-12
            )


@pytest.mark.parametrize("replicates", [1, 63, 64, 65, 1000])
def test_multiplier_blocks_match_replicate_loop_at_block_edges(sample, replicates):
    # B around the 64-row block, for one group and two unequal groups, and
    # for the bootstrap-t (one group), whose count weights share the blocks
    vals = substream(31, 2).standard_normal((29, 50))
    grid = Grid1D(np.linspace(0.0, 1.0, 50))
    groups = (FunctionalSample(vals[:12], grid), FunctionalSample(vals[12:] - 0.5, grid))
    for data in (sample, groups):
        for studentized in (True, False):
            cfg = BootstrapConfig(replicates=replicates, studentized=studentized, seed=3)
            for law in LAWS:
                assert_allclose(
                    mult_t_quantile(data, law, cfg), _loop_mult(data, law, cfg), rtol=1e-12
                )
    for studentized in (True, False):
        cfg = BootstrapConfig(replicates=replicates, studentized=studentized, seed=3)
        assert_allclose(boots_t_quantile(sample, cfg), _loop_boots(sample, cfg)[0], rtol=1e-12)


def test_rademacher_signs_are_packed_bits():
    # 7 x 13 = 91 signs take 12 bytes, the last one only partly
    gen = substream(5)
    signs = _rademacher(gen, (7, 13))
    assert signs.shape == (7, 13) and set(np.unique(signs)) == {-1.0, 1.0}
    assert np.array_equal(signs, _multipliers("rademacher", 5, (7, 13)))
    assert gen.bytes(4) == substream(5).bytes(16)[12:]
    # 317^2 = 100489 signs are balanced within 5 standard errors
    signs = _rademacher(substream(6), (317, 317))
    assert abs(signs.mean()) <= 5.0 / 317


def test_rademacher_t_on_two_curves_is_degenerate():
    # the two residuals are each other's negative, so a replicate with
    # g_1 != g_2 puts both multiplied residuals at one value: sd* = 0 under
    # a nonzero numerator. The first such replicate of seed 3 is replicate 2.
    s = FunctionalSample(substream(40, 3).standard_normal((2, 30)), Grid1D(np.linspace(0, 1, 30)))
    cfg = BootstrapConfig(replicates=200, seed=3)
    g = _multipliers("rademacher", 3, (3, 2))
    assert list(g[:, 0] != g[:, 1]) == [False, False, True]
    match = r"multiplier sd degenerate .* in replicate 2$"
    with pytest.raises(DegenerateVarianceError, match=match):
        mult_t_quantile(s, "rademacher", cfg)
    assert np.isfinite(mult_t_quantile(s, "gaussian", cfg))


def test_degenerate_multiplier_replicate_is_named_past_the_first_block():
    # At grid point 7 the eight curves alternate +-sqrt(7/8), so the normed
    # residuals are exactly +-1: a replicate whose signs follow them has
    # every g_n R_n equal, sd* = 0 and numerator 8. Under seed 8 the first
    # such replicate is 96, in the second block of rows; grid points 0-2
    # have no spread and contribute 0.
    vals = substream(8, 4).standard_normal((8, 20))
    vals[:, :3] = 2.5
    signs = np.array([1.0, -1.0] * 4)
    vals[:, 7] = np.sqrt(7 / 8.0) * signs
    s = FunctionalSample(vals, Grid1D(np.linspace(0.0, 1.0, 20)))
    cfg = BootstrapConfig(replicates=300, seed=8)
    flips = _multipliers("rademacher", 8, (300, 8)) * signs
    first = int(np.argmax(np.all(flips == flips[:, :1], axis=1)))
    assert first == 96
    named = r"at grid point 7 \(s=0\.368421\) in replicate 96$"
    with pytest.raises(DegenerateVarianceError, match=named):
        mult_t_quantile(s, "rademacher", cfg)
    assert np.isfinite(mult_t_quantile(s, "gaussian", cfg))


@pytest.mark.parametrize("law", LAWS)
def test_multiplier_peak_memory_stays_below_one_replicate_by_point_array(law):
    # B = 20000, N = 50, P = 200: one (B, P) float64 array is 32 MB; the
    # (B, N) multiplier draw is 8 MB and row blocks keep the rest small
    y = gen_model(ModelSpec("A", resolution=200), 50, substream(62, 0))
    cfg = BootstrapConfig(replicates=20000, seed=1)
    tracemalloc.start()
    try:
        mult_t_quantile(y, law, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20000 * 200 * 8


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
    # pick near-equal rows only, their sd* cancels in the count-weighted
    # spread C X^2 - (C X)^2 / N, and the quantile lands among them
    base = substream(8, 2).standard_normal(20)
    vals = np.vstack([base, base + 1e-9, base - 1e-9, base + 3.0])
    s = FunctionalSample(vals, Grid1D(np.linspace(0.0, 1.0, 20)))
    cfg = BootstrapConfig(replicates=500, alpha=0.2, seed=1)
    q = boots_t_quantile(s, cfg)
    assert q > 1e6
    assert_allclose(q, _loop_boots(s, cfg)[0], rtol=1e-9)


def test_boots_t_redraws_ties_at_the_column_mean():
    # rows 0-2 are 0 on the first five grid points and rows 3-5 sum to 0
    # there, so the tied rows sit exactly at the column mean: X = 0 and
    # C X^2 = 0 for a resample of tied rows only. Its x is 0/0 = NaN, so
    # it is still gathered, found degenerate and redrawn.
    vals = substream(8, 3).standard_normal((6, 30))
    vals[:3, :5] = 0.0
    vals[5, :5] = -(vals[3, :5] + vals[4, :5])
    s = FunctionalSample(vals, Grid1D(np.linspace(0.0, 1.0, 30)))
    assert np.array_equal(vals.mean(axis=0)[:5], np.zeros(5))
    redrawn = 0
    for seed in range(4):
        cfg = BootstrapConfig(replicates=400, alpha=0.05, seed=seed)
        expected, rejects = _loop_boots(s, cfg)
        redrawn += rejects
        assert_allclose(boots_t_quantile(s, cfg), expected, rtol=1e-12)
    assert redrawn > 0
