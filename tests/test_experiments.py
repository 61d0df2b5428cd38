"""Simulation drivers: coverage and width tables."""

import re
import threading
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import scbands.bands
import scbands.experiments
import scbands.rng
from scbands import (
    DegenerateVarianceError,
    ExperimentConfig,
    ModelSpec,
    FunctionalSample,
    Grid1D,
    QuantileNoSolutionError,
    ScaleGrid,
    add_observation_noise,
    covers,
    gaussian_kernel,
    gen_model,
    model_mean,
    run_coverage,
    run_width,
    scb_one_sample,
    scb_two_sample,
    smooth_sample,
    substream,
    weight_matrix,
)
from scbands.rng import STREAM_LAYOUT


def small_config(**overrides):
    base = dict(
        model=ModelSpec("A", resolution=40),
        n_values=(8, 15),
        methods=("tgkf",),
        alpha=0.1,
        replications=6,
        true_replications=60,
        seed=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_coverage_report_shape():
    report = run_coverage(small_config())
    assert report["kind"] == "coverage"
    assert report["config"]["seed"] == 5
    assert report["stream_layout"] == STREAM_LAYOUT == 2
    cells = report["cells"]
    assert [(c["n"], c["method"]) for c in cells] == [(8, "tgkf"), (15, "tgkf")]
    for c in cells:
        assert c["failures"] == 0
        assert c["hits"] + c["failures"] <= c["replications"] == 6
        assert 0.0 <= c["coverage"] <= 1.0
        # binomial standard error of the hit rate
        p = c["coverage"]
        assert c["se"] == pytest.approx(np.sqrt(p * (1 - p) / 6), abs=1e-12)


def test_coverage_deterministic_and_thread_invariant():
    for extra in ({}, {"methods": ("tgkf", "rmult-t", "boots-t"), "bootstrap_replicates": 100}):
        a = run_coverage(small_config(**extra))
        b = run_coverage(small_config(**extra))
        c = run_coverage(small_config(**extra), threads=3)
        assert a == b == c
        shifted = run_coverage(small_config(seed=6, **extra))
        assert shifted != a


def test_coverage_cells_record_quantile_failures(monkeypatch):
    # a tail equation without solution in every replicate (alpha = 1 is
    # now rejected by the config, so the solver is made to fail instead)
    def unsolvable(lkc, model, alpha):
        raise QuantileNoSolutionError("EEC never reaches alpha/2 on the tail")

    monkeypatch.setattr(scbands.bands, "tgkf_quantile", unsolvable)
    report = run_coverage(small_config(n_values=(8,)))
    (cell,) = report["cells"]
    assert cell["failures"] == cell["replications"]
    assert cell["hits"] == 0
    assert cell["coverage"] is None
    assert cell["se"] is None


def test_tgkf_coverage_under_skewed_coefficients():
    # The tGKF band is asymptotic beyond Gaussian data: with centered
    # chi-square(7) coefficients, model A at N=100 still covers near 0.95.
    cfg = ExperimentConfig(
        model=ModelSpec("A", coef_law="chisq"),
        n_values=(100,),
        methods=("tgkf",),
        alpha=0.05,
        replications=1000,
        seed=7,
    )
    (cell,) = run_coverage(cfg)["cells"]
    assert cell["failures"] == 0
    assert 0.93 <= cell["coverage"] <= 0.97


def test_coverage_multiple_methods_ordering():
    report = run_coverage(
        small_config(methods=("tgkf", "rmult-t"), bootstrap_replicates=80, n_values=(10,))
    )
    assert [(c["n"], c["method"]) for c in report["cells"]] == [
        (10, "tgkf"),
        (10, "rmult-t"),
    ]


def test_coverage_two_sample_mode():
    report = run_coverage(small_config(two_sample=True, n_values=(12,)))
    (cell,) = report["cells"]
    assert cell["failures"] == 0
    assert cell["hits"] >= 3


def test_two_sample_rmult_t_coverage():
    # equal-law groups, N=M=50: the hit rate must lie within 4 binomial SE
    # (0.039) of the nominal 0.95
    cfg = ExperimentConfig(
        model=ModelSpec("A"),
        n_values=(50,),
        methods=("rmult-t",),
        alpha=0.05,
        replications=500,
        bootstrap_replicates=500,
        two_sample=True,
        seed=7,
    )
    (cell,) = run_coverage(cfg, threads=2)["cells"]
    half = 4.0 * np.sqrt(0.95 * 0.05 / 500)
    assert cell["failures"] == 0
    assert 0.95 - half <= cell["coverage"] <= 0.95 + half, cell["coverage"]


def test_coverage_scale_space_mode():
    cfg = small_config(
        model=ModelSpec("A", resolution=60, midpoint_grid=True),
        n_values=(25,),
        sigma_obs=0.1,
        scale_grid=(0.05, 0.15, 4),
        replications=5,
    )
    report = run_coverage(cfg)
    (cell,) = report["cells"]
    assert cell["failures"] == 0
    assert cell["hits"] >= 3


def test_two_sample_scale_space_coverage():
    # the paper's data application: the band of a mean difference over the
    # (s, h) surface of two groups of noisy curves. The window is 0.95 +/- 3
    # binomial SE at 200 runs.
    cfg = ExperimentConfig(
        model=ModelSpec("B", resolution=100, midpoint_grid=True),
        n_values=(30,),
        methods=("tgkf",),
        alpha=0.05,
        replications=200,
        sigma_obs=0.1,
        scale_grid=(0.02, 0.1, 20),
        two_sample=True,
        seed=12,
    )
    (cell,) = run_coverage(cfg)["cells"]
    assert cell["failures"] == 0
    assert 0.90 <= cell["coverage"] <= 0.99, cell["coverage"]


def test_coverage_presmooth_mode():
    # one bandwidth: each curve is smoothed onto its own grid before banding
    cfg = small_config(
        model=ModelSpec("A", resolution=60, midpoint_grid=True),
        n_values=(20,),
        sigma_obs=0.05,
        scale_grid=(0.05, 0.05, 1),
        replications=5,
    )
    report = run_coverage(cfg)
    (cell,) = report["cells"]
    assert cell["failures"] == 0


def test_width_report_includes_reference():
    report = run_width(small_config(n_values=(10,)))
    assert report["stream_layout"] == STREAM_LAYOUT
    methods = [(c["n"], c["method"]) for c in report["cells"]]
    assert (10, "tgkf") in methods and (10, "true") in methods
    for c in report["cells"]:
        if c["method"] == "true":
            assert c["replications"] == 60
            assert c["mean_quantile"] > 0
            assert c["two_se"] is None
        else:
            assert c["two_se"] > 0
            assert 1.0 < c["mean_quantile"] < 10.0


def test_width_deterministic_and_thread_invariant():
    # At N=300 on 40 points a reference block holds 5 draws, so the 13
    # reference draws split into blocks of 5, 5 and 3.
    for two_sample in (False, True):
        cfg = small_config(n_values=(10, 300), true_replications=13, two_sample=two_sample)
        a = run_width(cfg)
        assert a == run_width(cfg) == run_width(cfg, threads=2) == run_width(cfg, threads=3)
        ref = [c for c in a["cells"] if c["method"] == "true"]
        assert [(c["n"], c["failures"]) for c in ref] == [(10, 0), (300, 0)]


def _loop_reference_statistics(cfg, n_index, block, size):
    """Max-t statistics of the size replicates of one reference block, drawn
    one replicate at a time from the block's streams by the public draw
    functions, with the mean field written out in numpy."""
    n = cfg.n_values[n_index]
    grid = cfg.model.make_grid()
    truth = model_mean(cfg.model.model, grid.points)
    bandwidths = cfg.bandwidths()
    if bandwidths is not None:
        sg = ScaleGrid(grid, bandwidths)
        truth = weight_matrix(gaussian_kernel(), grid.points, sg) @ truth
    if cfg.two_sample:
        truth = 0.0

    def draws(data_tag, noise_tag):
        # one stream per purpose and block; replicate r takes the draws after r - 1's
        data = substream(cfg.seed, data_tag, n_index, block)
        noise = substream(cfg.seed, noise_tag, n_index, block)
        for _ in range(size):
            sample = gen_model(cfg.model, n, data)
            if cfg.sigma_obs > 0:
                sample = add_observation_noise(sample, cfg.sigma_obs, noise)
            if bandwidths is not None:
                sample = smooth_sample(sample, gaussian_kernel(), sg)
            yield sample.values

    # substream tags of the reference row: data and noise of Y, then of X
    ys = draws(9, 10)
    xs = draws(11, 12) if cfg.two_sample else [None] * size
    stats = []
    for y, x in zip(ys, xs):
        if cfg.two_sample:
            c = n / x.shape[0]
            center = y.mean(axis=0) - x.mean(axis=0)
            var_y, var_x = y.var(axis=0, ddof=1), x.var(axis=0, ddof=1)
            scale = np.sqrt((1.0 + 1.0 / c) * var_y + (1.0 + c) * var_x)
            rate = np.sqrt(n + x.shape[0] - 2)
        else:
            center, scale, rate = y.mean(axis=0), y.std(axis=0, ddof=1), np.sqrt(n)
        stats.append(float(np.max(rate * np.abs(center - truth) / scale)))
    return stats


@pytest.mark.parametrize(
    "overrides, n",
    [
        ({}, 300),
        ({"sigma_obs": 0.2}, 300),
        ({"scale_grid": (0.05, 0.05, 1), "sigma_obs": 0.1}, 300),
        ({"scale_grid": (0.05, 0.15, 3), "sigma_obs": 0.1}, 100),
        ({"two_sample": True}, 300),
    ],
    ids=["plain", "noisy", "presmooth", "scale-grid", "two-sample"],
)
def test_reference_blocks_equal_per_replicate_draws(overrides, n):
    # Reference block b of N-index i draws its curves, and its noise, from
    # one stream each, (seed, tag, i, b), replicate after replicate.
    cfg = small_config(
        model=ModelSpec("A", resolution=40, midpoint_grid=True),
        n_values=(6, n),
        true_replications=13,
        **overrides,
    )
    ex = scbands.experiments
    pipe = ex._Pipeline(cfg)
    size = ex._BLOCK_VALUES // (n * pipe.width)
    assert 1 < size < 13 and 13 % size  # several blocks, the last one partial
    rows = ex._sweep(pipe, ex._reference_block, 13)
    for n_index, row in enumerate(rows):
        size = pipe.block_size(n_index)
        expected = []
        for block in range(-(-13 // size)):
            expected += _loop_reference_statistics(cfg, n_index, block, size)
        assert row == [(stat, None) for stat in expected[:13]]


def test_reference_block_size_is_pinned():
    # The reference blocks are the reference row's stream addresses, so
    # changing _BLOCK_VALUES moves every reference draw of every seed.
    assert scbands.experiments._BLOCK_VALUES == 1 << 16


@pytest.mark.parametrize("two_sample", [False, True])
def test_raising_true_replications_keeps_earlier_reference_rows(two_sample):
    # At N=300 on 40 points a block holds 5 replicates: 13 replications end
    # inside the third block, 20 fill four, and the end of the row moves no
    # block boundary.
    ex = scbands.experiments
    pipe = ex._Pipeline(small_config(n_values=(10, 300), two_sample=two_sample))
    short = ex._sweep(pipe, ex._reference_block, 13)
    long = ex._sweep(pipe, ex._reference_block, 20)
    assert [row[:13] for row in long] == short


@pytest.mark.parametrize(
    "overrides",
    [{}, {"two_sample": True}, {"scale_grid": (0.05, 0.15, 3), "sigma_obs": 0.1}],
    ids=["plain", "two-sample", "scale-grid"],
)
def test_blocks_evaluated_in_reverse_give_the_sweep_rows(overrides):
    # A block's draws are addressed by (seed, tag, n_index, block), never by
    # when it runs, so evaluating every block last to first gives _sweep's rows.
    ex = scbands.experiments
    cfg = small_config(methods=("tgkf", "rmult-t"), bootstrap_replicates=50, n_values=(10, 300),
                       replications=7, true_replications=12, **overrides)
    pipe = ex._Pipeline(cfg)
    for block, reps in ((ex._band_block, cfg.replications),
                        (ex._reference_block, cfg.true_replications)):
        items = [(i, range(start, start + pipe.block_size(i)))
                 for i in range(len(cfg.n_values)) for start in range(0, reps, pipe.block_size(i))]
        assert len(items) > len(cfg.n_values)  # N=300 takes several blocks
        rows = [[] for _ in cfg.n_values]
        for i, block_reps in reversed(items):
            rows[i][:0] = block(pipe, i, block_reps)
        assert [row[:reps] for row in rows] == ex._sweep(pipe, block, reps)


def test_config_round_trip():
    cfg = small_config(methods=("tgkf", "gmult"), scale_grid=(0.02, 0.1, 5),
                       sigma_obs=0.1, model=ModelSpec("B", resolution=50,
                                                      midpoint_grid=True))
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg


def test_config_rejects_fractional_model_integers():
    with pytest.raises(ValueError, match="nu must be an integer"):
        ExperimentConfig.from_dict({"model": {"coef_law": "chisq", "nu": 2.5, "resolution": 40}})
    with pytest.raises(ValueError, match="resolution must be an integer"):
        ExperimentConfig.from_dict({"model": {"resolution": 40.9}})
    with pytest.raises(ValueError, match="resolution must be an integer"):
        ModelSpec("A", resolution=40.9)
    assert ExperimentConfig.from_dict({"model": {"nu": 3.0}}).model.nu == 3


def test_config_validation():
    with pytest.raises(ValueError, match="unknown"):
        ExperimentConfig.from_dict({"n_values": [5], "bogus": 1})
    with pytest.raises(ValueError):
        ExperimentConfig(methods=("nope",))
    # methods are stored under their canonical names, each at most once
    assert ExperimentConfig(methods=("RMULT_T", "Gauss_Sim")).methods == ("rmult-t", "gauss-sim")
    with pytest.raises(ValueError, match=r"^methods list a method twice: \('rmult-t', 'rmult-t'\)$"):
        ExperimentConfig(methods=("RMULT_T", "rmult-t"))
    with pytest.raises(ValueError, match="a method twice"):
        ExperimentConfig.from_dict({"methods": ["tgkf", "boots-t", "TGKF"]})
    for name in ("replications", "bootstrap_replicates", "true_replications"):
        with pytest.raises(ValueError, match=f"^{name} must be positive, got 0$"):
            ExperimentConfig(**{name: 0})
    with pytest.raises(ValueError):
        ExperimentConfig(alpha=0.0)
    with pytest.raises(ValueError, match="smoothing applies to curves"):
        ExperimentConfig(model=ModelSpec("C", resolution=10), scale_grid=(0.02, 0.1, 3))
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_dict({"presmooth_bandwidth": 0.05, "scale_grid": [0.02, 0.1, 3]})
    with pytest.raises(ValueError, match=r"^unknown model config keys: \['bogus'\]$"):
        ExperimentConfig.from_dict({"model": {"name": "A", "bogus": 1}})
    for n_values in ((), (1,), (10, 1)):
        with pytest.raises(ValueError, match="^n_values must hold sample sizes of at least 2$"):
            ExperimentConfig(n_values=n_values)
    with pytest.raises(ValueError, match="^need at least one method$"):
        ExperimentConfig(methods=())
    # a lone value where a list belongs, and a model that is not a spec, are
    # named: 50 raised a TypeError, "tgkf" read as the methods 't', 'g', ...
    for name, value in (("n_values", 50), ("methods", "tgkf"), ("methods", None)):
        with pytest.raises(ValueError, match=re.escape(f"{name} must be a list, got {value!r}")):
            ExperimentConfig.from_dict({name: value})
    for doc in ([1, 2], None, 3, "abc"):
        message = f"config must be a JSON object, got {doc!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentConfig.from_dict(doc)
    for model in (None, "A", ["A"]):
        message = f"model must be an object of model keys, got {model!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentConfig.from_dict({"model": model})
    with pytest.raises(ValueError, match=r"^model must be a ModelSpec, got \{'name': 'A'\}$"):
        ExperimentConfig(model={"name": "A"})
    assert ExperimentConfig(two_sample=np.bool_(True)).two_sample is True


def test_config_rejects_alpha_at_the_bounds():
    for alpha in (0.0, 1.0, 1.5, -0.1):
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
            ExperimentConfig(alpha=alpha)
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
            ExperimentConfig.from_dict({"alpha": alpha})


def test_config_rejects_fractional_sweep_integers():
    with pytest.raises(ValueError, match="n_values entry must be an integer, got 10.9"):
        ExperimentConfig.from_dict({"n_values": [10.9]})
    with pytest.raises(ValueError, match="n_values entry must be an integer"):
        ExperimentConfig(n_values=(20, 10.5))
    with pytest.raises(ValueError, match="scale_grid count must be an integer, got 4.7"):
        ExperimentConfig.from_dict({"scale_grid": [0.02, 0.1, 4.7]})
    cfg = ExperimentConfig.from_dict({"n_values": [10.0, 20], "scale_grid": [0.02, 0.1, 4.0]})
    assert cfg.n_values == (10, 20)
    assert cfg.scale_grid == (0.02, 0.1, 4)
    assert isinstance(cfg.scale_grid[2], int)


@pytest.mark.parametrize("two_sample", [False, True])
def test_width_reference_row_counts_failed_draws(monkeypatch, two_sample):
    # Reference draws 0 (a zero sd) and 1 (a mean that overflows to inf)
    # have no finite max-t statistic: both are counted and left out. In
    # two-sample mode both groups of these draws are replaced.
    cfg = small_config(n_values=(10,), two_sample=two_sample)
    clean = run_width(cfg)
    broken = {0: 0.0, 1: 1.5e308}
    raw_block = scbands.experiments._raw_block
    true_tags = (scbands.experiments._TAG_TRUE_DATA_Y, scbands.experiments._TAG_TRUE_DATA_X)

    def patched(cfg, n_index, reps, data_tag, noise_tag):
        values = raw_block(cfg, n_index, reps, data_tag, noise_tag)
        if data_tag in true_tags:
            for k, rep in enumerate(reps):
                if rep in broken:
                    values[k] = broken[rep]
        return values

    monkeypatch.setattr(scbands.experiments, "_raw_block", patched)
    report = run_width(cfg)
    ref = [c for c in report["cells"] if c["method"] == "true"]
    assert len(ref) == 1
    assert ref[0]["failures"] == 2
    assert np.isfinite(ref[0]["mean_quantile"])
    # the band rows never see the patched reference draws
    assert report["cells"][:-1] == clean["cells"][:-1]

    stats = scbands.experiments._reference_block(
        scbands.experiments._Pipeline(cfg), 0, range(3)
    )
    assert stats[0][0] is None and "DegenerateVarianceError" in stats[0][1]
    # the overflowing mean makes the sd inf, which the scale check names the
    # same way for one sample and for two
    sd = "pooled sd" if two_sample else "pointwise sd"
    assert stats[1][0] is None and stats[1][1].startswith(f"ValueError: {sd} is not finite")
    assert stats[2][0] is not None and stats[2][1] is None


def test_huge_finite_samples_give_finite_bands_or_a_named_error(monkeypatch):
    # Past about 1e154 the pointwise variance of finite curves overflows to
    # inf. An inf scale used to pass the scale check, so the bands came out
    # non-finite and the reference row counted such a draw as a statistic.
    g = Grid1D(np.linspace(0.0, 1.0, 20))
    y, x = substream(8, 0).standard_normal((6, 20)), substream(8, 1).standard_normal((5, 20))
    builds = {m: lambda a, b, m=m: scb_one_sample(a, m, replicates=200)
              for m in ("tgkf", "rmult-t", "boots-t", "gauss-sim")}
    builds.update({f"two-sample {m}": lambda a, b, m=m: scb_two_sample(a, b, m, replicates=200)
                   for m in ("tgkf", "rmult-t")})
    named = re.compile(r"(pointwise|pooled) sd is not finite at grid point \d+ \(s=")
    refused = {name: [] for name in builds}
    for k in range(150, 306, 5):
        a, b = FunctionalSample(y * 10.0**k, g), FunctionalSample(x * 10.0**k, g)
        for name, build in builds.items():
            try:
                band = build(a, b)
            except ValueError as exc:
                assert type(exc) is ValueError and named.match(str(exc)), (name, k, exc)
                refused[name].append(k)
                continue
            assert np.all(np.isfinite([band.quantile, *band.lower, *band.upper])), (name, k)
    for name, ks in refused.items():
        assert 150 not in ks and 305 in ks, name

    raw_block = scbands.experiments._raw_block

    def patched(cfg, n_index, reps, data_tag, noise_tag):
        values = raw_block(cfg, n_index, reps, data_tag, noise_tag)
        values[list(reps).index(0)] *= 1e160
        return values

    monkeypatch.setattr(scbands.experiments, "_raw_block", patched)
    pipe = scbands.experiments._Pipeline(small_config(n_values=(10,)))
    stats = scbands.experiments._reference_block(pipe, 0, range(3))
    assert stats[0] == (None, "ValueError: pointwise sd is not finite at grid point 0 (s=0)")
    assert all(np.isfinite(value) and reason is None for value, reason in stats[1:])


# Each value below used to pass the config and then fail every replication
# (or, for sigma_obs=nan, be read as "no noise"); now it is rejected up front.

@pytest.mark.parametrize("sigma_obs", [float("nan"), float("inf"), -0.1])
def test_config_rejects_non_finite_noise(sigma_obs):
    with pytest.raises(ValueError, match="sigma_obs must be finite and non-negative"):
        ExperimentConfig(sigma_obs=sigma_obs)


def test_config_rejects_negative_or_fractional_seed():
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        ExperimentConfig(seed=-1)
    with pytest.raises(ValueError, match="seed must be an integer"):
        ExperimentConfig.from_dict({"seed": 1.5})
    assert ExperimentConfig(seed=3.0).seed == 3


def test_config_rejects_two_bandwidths():
    # ScaleGrid owns the bandwidth rules, so the config gives its messages
    with pytest.raises(ValueError, match="^h_points needs one or at least 3 bandwidths, got 2$"):
        ExperimentConfig(scale_grid=(0.02, 0.1, 2))
    assert ExperimentConfig(scale_grid=(0.02, 0.1, 3)).scale_grid[2] == 3
    # one bandwidth h is written (h, h, 1); a lattice needs h_min < h_max
    assert_array_equal(ExperimentConfig(scale_grid=(0.05, 0.05, 1)).bandwidths(), [0.05])
    for bad, match in (((0.05, 0.05, 3), "^h_points must be strictly increasing$"),
                       ((0.05, 0.05, 2), "^h_points must be strictly increasing$"),
                       ((0.1, 0.05, 1), r"^scale_grid count 1 needs h_min = h_max, got \(0.1, "),
                       ((0.0, 0.0, 1), "^bandwidths must be positive, got 0$"),
                       ((0.05, np.inf, 3), "^h_points contains non-finite entries$"),
                       ((0.02, 0.1, 1), r"^scale_grid count 1 needs h_min = h_max, got \(0.02, ")):
        with pytest.raises(ValueError, match=match):
            ExperimentConfig(scale_grid=bad)


def test_config_and_run_agree_on_the_scale_grid():
    # near-equal ends were accepted when read, and the run raised before any replication
    for triple in ((1.0, 1.0 + 2**-52, 3), (5e-324, 1e-323, 3)):
        with pytest.raises(ValueError, match="^h_points must be strictly increasing$"):
            ExperimentConfig(scale_grid=triple)
    # np.linspace warned on these (0 * inf, and an overflowing h_max - h_min)
    for triple in ((0.05, np.inf, 3), (-1e308, 1e308, 3)):
        with pytest.raises(ValueError, match="^h_points contains non-finite entries$"):
            ExperimentConfig(scale_grid=triple)


@pytest.mark.filterwarnings("error")
def test_a_sweep_over_tiny_bandwidths_runs_without_a_warning():
    # A bandwidth step below 2^-511 squares below the normal doubles, and the
    # tGKF's gradient stencil underflows: ScaleGrid refuses it when the config
    # is read.
    kw = dict(methods=("tgkf", "rmult-t"), n_values=(8,), bootstrap_replicates=100)
    with pytest.raises(ValueError, match=r"^h_points steps must be at least 2\^-511, got 4.5e-300$"):
        small_config(scale_grid=(1e-300, 1e-299, 3), **kw)
    # One tiny bandwidth has no step. offsets / h overflows in the kernel; each
    # weight is exp(-inf) = 0 off the diagonal, so the smoothing is the identity.
    cfg, plain = small_config(scale_grid=(1e-300, 1e-300, 1), **kw), small_config(**kw)
    coverage = run_coverage(cfg)["cells"]
    assert [c["failures"] for c in coverage] == [0, 0]
    assert coverage[1]["hits"] == run_coverage(plain)["cells"][1]["hits"]
    cells, plain_cells = run_width(cfg)["cells"], run_width(plain)["cells"]
    assert [c["failures"] for c in cells] == [0, 0, 0]
    for cell, plain_cell in zip(cells, plain_cells):
        assert cell["mean_quantile"] == pytest.approx(plain_cell["mean_quantile"], rel=1e-12)


@pytest.mark.parametrize("method", ["boots-t", "boots", "gmult-t", "rmult"])
def test_config_rejects_two_sample_resampling(method):
    # two-sample runs take the multiplier methods but not the bootstrap-t
    if method.startswith("boots"):
        match = r"two-sample bands support every method but 'boots\(-t\)'"
        with pytest.raises(ValueError, match=match):
            ExperimentConfig(methods=("tgkf", method), two_sample=True)
    else:
        assert ExperimentConfig(methods=("tgkf", method), two_sample=True).methods[1] == method
    assert ExperimentConfig(methods=("tgkf", method)).methods[1] == method


@pytest.mark.parametrize("name", ["replications", "true_replications", "bootstrap_replicates"])
def test_config_rejects_fractional_counts(name):
    with pytest.raises(ValueError, match=f"{name} must be an integer, got 2.5"):
        ExperimentConfig(**{name: 2.5})
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        ExperimentConfig.from_dict({name: 4.5})
    cfg = ExperimentConfig(**{name: 10.0})
    assert getattr(cfg, name) == 10 and isinstance(getattr(cfg, name), int)


@pytest.mark.parametrize(
    "grid",
    [0.05, [0.02, 0.1], ["a", 0.1, 3], "123", ["0.02", "0.1", "5"], [0.02, 0.1, True]],
    ids=["scalar", "two-entries", "non-numeric", "string", "numeric-strings", "bool"],
)
def test_config_rejects_malformed_scale_grid(grid):
    with pytest.raises(ValueError, match=r"scale_grid must be 3 numbers, got"):
        ExperimentConfig.from_dict({"scale_grid": grid})


def _curves(seed=3):
    g = Grid1D(np.linspace(0.0, 1.0, 10))
    return FunctionalSample(substream(seed).standard_normal((5, g.n_points)), g)


def _band_replicates(replicates):
    return scb_one_sample(_curves(), "rmult-t", replicates=replicates)


def _alpha_case(build, value, id):
    return pytest.param(build, value, re.escape(f"alpha must lie in (0, 1), got {value!r}"), id=id)


def _noise_case(value):
    match = re.escape(f"sigma_obs must be finite and non-negative, got {value!r}")
    return pytest.param(lambda v: add_observation_noise(_curves(), v, substream(4)), value, match,
                        id=f"noise-{value!r}")


# A bool or a numeric string used to pass as a number (True as 1, "10" as
# 10) and None raised a TypeError; each is now a named ValueError. The band
# functions and add_observation_noise check alpha and the noise level with
# the config's own check, whatever the method.
@pytest.mark.parametrize(
    "build, value, match",
    [
        pytest.param(lambda v: ExperimentConfig.from_dict({"replications": v}), True,
                     "replications must be an integer, got True", id="replications-bool"),
        pytest.param(lambda v: ExperimentConfig.from_dict({"replications": v}), None,
                     "replications must be an integer, got None", id="replications-null"),
        pytest.param(lambda v: ExperimentConfig.from_dict({"bootstrap_replicates": v}), "10",
                     "bootstrap_replicates must be an integer, got '10'", id="replicates-string"),
        _alpha_case(lambda v: ExperimentConfig.from_dict({"alpha": v}), "0.05", "alpha-string"),
        pytest.param(lambda v: ExperimentConfig.from_dict({"sigma_obs": v}), True,
                     "sigma_obs must be finite and non-negative, got True", id="sigma-bool"),
        pytest.param(lambda v: ExperimentConfig.from_dict({"sigma_obs": v}), "0.1",
                     "sigma_obs must be finite and non-negative, got '0.1'", id="sigma-string"),
        pytest.param(_band_replicates, True, "replicates must be an integer, got True",
                     id="band-replicates-bool"),
        *(
            _alpha_case(lambda v, m=m: scb_one_sample(_curves(), m, alpha=v), value,
                        f"band-alpha-{m}-{value!r}")
            for m in ("tgkf", "rmult-t", "boots-t")
            for value in ("0.05", True, None, 0, 1)
        ),
        _alpha_case(lambda v: scb_two_sample(_curves(), _curves(4), "tgkf", alpha=v), True,
                    "two-sample-alpha-True"),
        *(_noise_case(value) for value in (True, "0.1", float("nan"), float("inf"), -0.1)),
        # A JSON "false" used to read as True (midpoint_grid) or be stored as
        # a string that failed mid-sweep (two_sample); flags are booleans.
        *(
            pytest.param(build, value, re.escape(f"{name} must be true or false, got {value!r}"),
                         id=f"{name}-{value!r}")
            for name, build in (
                ("two_sample", lambda v: ExperimentConfig.from_dict({"two_sample": v})),
                ("midpoint_grid",
                 lambda v: ExperimentConfig.from_dict({"model": {"midpoint_grid": v}})),
            )
            for value in ("false", 0, 1, None)
        ),
    ],
)
def test_numbers_must_be_real_and_not_bool(build, value, match):
    with pytest.raises(ValueError, match=match) as info:
        build(value)
    assert type(info.value) is ValueError


def test_threads_must_be_a_positive_integer(monkeypatch):
    # threads has no effect, but 0, -1 and 2.5 are still refused by name
    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    cfg = small_config(n_values=(8,), replications=2, true_replications=2)
    assert run_coverage(cfg, threads=2) == run_coverage(cfg)
    for run in (run_coverage, run_width):
        for threads in (0, -1):
            with pytest.raises(ValueError, match=f"^threads must be positive, got {threads}$"):
                run(cfg, threads=threads)
        for threads in (2.5, "2", True, None):
            with pytest.raises(ValueError, match=f"^threads must be an integer, got {threads!r}$"):
                run(cfg, threads=threads)
        assert run(cfg, threads=1.0) == run(cfg)


def test_reference_row_names_a_non_finite_statistic():
    # a finite draw whose scale passes the check gives a finite statistic,
    # so only a non-finite truth reaches this guard
    pipe = scbands.experiments._Pipeline(small_config(n_values=(10,)))
    pipe.truth = np.full_like(pipe.truth, np.nan)
    stats = scbands.experiments._reference_block(pipe, 0, range(2))
    assert stats == [(None, "FloatingPointError: max-t statistic is nan")] * 2


def test_width_cell_whose_bands_all_fail(monkeypatch):
    def unsolvable(lkc, model, alpha):
        raise QuantileNoSolutionError("EEC never reaches alpha/2 on the tail")

    monkeypatch.setattr(scbands.bands, "tgkf_quantile", unsolvable)
    report = run_width(small_config(n_values=(8,), true_replications=20))
    cell, true = report["cells"]
    assert cell["failures"] == cell["replications"] == 6
    assert cell["mean_quantile"] is None and cell["two_se"] is None
    assert true["method"] == "true" and true["failures"] == 0 and true["mean_quantile"] > 0


def test_reference_block_holds_one_array_per_group():
    # The block's mean field centers and squares its (R, N, P) draw in place,
    # so its traced peak stays close to the draw itself (2.16x with np.std's
    # temporary of the draw's size).
    cfg = ExperimentConfig(model=ModelSpec("B"), n_values=(100,), true_replications=3, seed=1)
    pipe = scbands.experiments._Pipeline(cfg)
    reps = range(3)
    (draw,) = pipe.draw_groups(0, reps, scbands.experiments._TRUE_TAGS)
    expected = scbands.experiments._reference_block(pipe, 0, reps)
    tracemalloc.start()
    try:
        stats = scbands.experiments._reference_block(pipe, 0, reps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats == expected
    assert peak <= 1.25 * draw.nbytes, peak / draw.nbytes


def _rows_one_band_at_a_time(pipe, n_index, reps):
    """The rows of _band_block built without it: each replicate's draw, and
    each method's band and coverage through the public one-band functions."""
    cfg, ex = pipe.cfg, scbands.experiments
    rows = []
    build = scb_two_sample if cfg.two_sample else scb_one_sample
    for rep in reps:
        groups = pipe.draw_groups(n_index, range(rep, rep + 1), ex._BAND_TAGS)
        row = []
        for m_index, method in enumerate(cfg.methods):
            seed = scbands.rng.child_sequence(cfg.seed, ex._TAG_METHOD, n_index, rep, m_index)
            try:
                samples = [FunctionalSample(values[0], pipe.grid) for values in groups]
                band = build(*samples, method, cfg.alpha, cfg.bootstrap_replicates, seed)
                row.append(((band.quantile, covers(band, pipe.truth)), None))
            except ValueError as exc:
                row.append((None, f"{type(exc).__name__}: {exc}"))
        rows.append(row)
    return rows


@pytest.mark.parametrize(
    "overrides",
    [{}, {"two_sample": True}, {"sigma_obs": 0.1, "methods": ("rmult-t", "tgkf")},
     {"scale_grid": (0.05, 0.15, 3), "n_values": (5,)},
     {"n_values": (300,), "replications": 5, "two_sample": True}],
    ids=["plain", "two-sample", "noisy-mixed", "scale-grid", "chunked"],
)
def test_a_band_block_builds_its_tgkf_bands_together_bit_for_bit(overrides):
    # one block holds every replicate here; its tGKF pairs are each
    # replicate's own band's, also on the (s, h) lattice, for two samples and
    # when the block's fields are taken in several chunks (N=300: one
    # replicate per chunk)
    cfg = small_config(**{"bootstrap_replicates": 50, **overrides})
    pipe = scbands.experiments._Pipeline(cfg)
    assert pipe.block_size(0) >= cfg.replications
    reps = range(cfg.replications)
    rows = scbands.experiments._band_block(pipe, 0, reps)
    assert rows == _rows_one_band_at_a_time(pipe, 0, reps)
    assert all(reason is None for row in rows for _, reason in row)


@pytest.mark.parametrize("two_sample, n", [(False, 8), (True, 8), (False, 300)])
def test_a_band_block_with_a_degenerate_replicate_is_rebuilt_one_band_at_a_time(
        monkeypatch, two_sample, n):
    # replicate 2's draw (of both groups) has a constant column: the block's
    # tGKF bands are then built one replicate at a time by the same engine,
    # so that replicate fails with the one-band path's reason and every
    # other row is the same as before
    cfg = small_config(methods=("tgkf", "rmult-t"), bootstrap_replicates=50,
                       two_sample=two_sample, n_values=(n,), replications=5)
    pipe = scbands.experiments._Pipeline(cfg)
    assert pipe.block_size(0) >= 5
    clean = scbands.experiments._band_block(pipe, 0, range(5))
    raw_block = scbands.experiments._raw_block
    band_tags = (scbands.experiments._TAG_DATA_Y, scbands.experiments._TAG_DATA_X)

    def patched(cfg, n_index, reps, data_tag, noise_tag):
        values = raw_block(cfg, n_index, reps, data_tag, noise_tag)
        if data_tag in band_tags and reps == range(2, 3):
            values[0, :, 5] = 0.25
        return values

    monkeypatch.setattr(scbands.experiments, "_raw_block", patched)
    batched = []
    monkeypatch.setattr(scbands.experiments, "_tgkf_bands", lambda *args: batched.append(
        len(args[0][0])) or scbands.bands._tgkf_bands(*args))
    rows = scbands.experiments._band_block(pipe, 0, range(5))
    assert batched == [5, 1, 1, 1, 1, 1]
    assert rows == _rows_one_band_at_a_time(pipe, 0, range(5))
    sd = "pooled sd" if two_sample else "pointwise sd"
    tgkf, rmult = rows[2]
    assert tgkf == (None, f"DegenerateVarianceError: {sd} is zero at grid point 5 (s=0.128205)")
    assert rmult[0] is None and rmult[1].startswith("DegenerateVarianceError: ")
    assert rows[:2] + rows[3:] == clean[:2] + clean[3:]


@pytest.mark.parametrize("overrides, tgkf_reasons", [
    ({"n_values": (2,), "seed": 4},
     {None, "QuantileNoSolutionError: EEC tail failed to drop below alpha/2"}),
    ({"n_values": (5,), "sigma_obs": 1e308}, {"ValueError: values contains non-finite entries"}),
], ids=["eec-tail", "noise-overflow"])
def test_a_failing_band_block_never_takes_the_lone_tgkf_band(monkeypatch, overrides, tgkf_reasons):
    # Real draws, one block. At N=2 the EEC tail fails to drop below alpha/2
    # in most replicates but not all; noise of sd 1e308 overflows every
    # draw. The block's tGKF bands are rebuilt replicate by replicate by
    # bands._tgkf_bands, with each replicate's own band's reason, and never
    # by the lone band's lkc_estimate.
    cfg = small_config(methods=("tgkf", "rmult-t"), bootstrap_replicates=50, replications=20,
                       **overrides)
    pipe = scbands.experiments._Pipeline(cfg)
    assert pipe.block_size(0) >= cfg.replications
    reps = range(cfg.replications)
    rows = scbands.experiments._band_block(pipe, 0, reps)
    assert {tgkf[1] for tgkf, _ in rows} == tgkf_reasons
    assert rows == _rows_one_band_at_a_time(pipe, 0, reps)

    def lone_band(*groups):
        raise AssertionError("the sweep took the lone tGKF band")

    monkeypatch.setattr(scbands.bands, "lkc_estimate", lone_band)
    assert scbands.experiments._band_block(pipe, 0, reps) == rows


def test_band_rows_draw_no_replicate_past_the_replication_count(monkeypatch):
    # At N=300 on 40 points a block holds 5 replicates: 7 band replications
    # draw replicates 0..6 once each, while the reference row draws whole
    # blocks (20 draws for 17 true replications)
    drawn = []
    raw_block = scbands.experiments._raw_block

    def recording(cfg, n_index, reps, data_tag, noise_tag):
        drawn.append((data_tag, n_index, list(reps)))
        return raw_block(cfg, n_index, reps, data_tag, noise_tag)

    monkeypatch.setattr(scbands.experiments, "_raw_block", recording)
    cfg = small_config(n_values=(300,), replications=7, true_replications=17,
                       methods=("tgkf", "rmult-t"), bootstrap_replicates=50)
    assert scbands.experiments._Pipeline(cfg).block_size(0) == 5
    for run in (run_coverage, run_width):
        drawn.clear()
        report = run(cfg, threads=2)
        assert all(c["replications"] == 7 for c in report["cells"] if c["method"] != "true")
        band = sorted(r for tag, _, reps in drawn if tag == scbands.experiments._TAG_DATA_Y
                      for r in reps)
        assert band == list(range(7))
        true = sorted(r for tag, _, reps in drawn if tag == scbands.experiments._TAG_TRUE_DATA_Y
                      for r in reps)
        assert true == (list(range(20)) if run is run_width else [])
