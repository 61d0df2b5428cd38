"""Simulation drivers: coverage and width tables."""

import numpy as np
import pytest

from scbands import ExperimentConfig, ModelSpec, run_coverage, run_width


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
    a = run_coverage(small_config())
    b = run_coverage(small_config())
    c = run_coverage(small_config(), threads=3)
    assert a == b == c
    shifted = run_coverage(small_config(seed=6))
    assert shifted != a


def test_coverage_cells_record_quantile_failures():
    # alpha = 1 makes the tail equation unsolvable in every replicate
    report = run_coverage(small_config(alpha=1.0, n_values=(8,)))
    (cell,) = report["cells"]
    assert cell["failures"] == cell["replications"]
    assert cell["hits"] == 0
    assert cell["coverage"] is None
    assert cell["se"] is None


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


def test_coverage_presmooth_mode():
    cfg = small_config(
        model=ModelSpec("A", resolution=60, midpoint_grid=True),
        n_values=(20,),
        sigma_obs=0.05,
        presmooth_bandwidth=0.05,
        presmooth_points=80,
        replications=5,
    )
    report = run_coverage(cfg)
    (cell,) = report["cells"]
    assert cell["failures"] == 0


def test_width_report_includes_reference():
    report = run_width(small_config(n_values=(10,)))
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
    a = run_width(small_config(n_values=(10,)))
    b = run_width(small_config(n_values=(10,)), threads=2)
    assert a == b


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
    with pytest.raises(ValueError):
        ExperimentConfig(replications=0)
    with pytest.raises(ValueError):
        ExperimentConfig(alpha=0.0)
    with pytest.raises(ValueError, match="curve models only"):
        ExperimentConfig(model=ModelSpec("C", resolution=10), scale_grid=(0.02, 0.1, 3))
    with pytest.raises(ValueError):
        ExperimentConfig(
            presmooth_bandwidth=0.05, scale_grid=(0.02, 0.1, 3)
        )
