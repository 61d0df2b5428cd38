"""Monte Carlo experiment drivers: coverage tables and width tables.

Both drivers share one scenario pipeline: draw a synthetic sample, add
observation noise when requested, optionally smooth (one bandwidth, or a
whole scale grid), then hand the analysis sample to the band engine. Every
replication draws from substreams addressed by (purpose, n-index, rep), so
a report depends only on (config, seed), never on thread count or
evaluation order. Estimator failures (degenerate variance, no quantile
solution) are recorded per cell instead of aborting the sweep.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bands import covers, parse_method, scb_one_sample, scb_two_sample, two_sample_residuals
from .bootstrap import ceiling_rank_quantile
from .fdata import Grid1D, _positive_sd, pointwise_mean
from .models import ModelSpec, _integer, add_observation_noise, gen_model, model_mean
from .rng import child_sequence, substream
from .scalespace import ScaleGrid, gaussian_kernel, scale_mean, smooth_sample

__all__ = ["ExperimentConfig", "run_coverage", "run_width"]

# Substream purpose tags. Coverage and width share the data tags; the
# width driver's brute-force reference row uses its own so that changing
# the replication count of one part never shifts the draws of another.
_TAG_DATA_Y = 0
_TAG_DATA_X = 1
_TAG_NOISE_Y = 2
_TAG_NOISE_X = 3
_TAG_METHOD = 4
_TAG_TRUE_DATA_Y = 9
_TAG_TRUE_NOISE_Y = 10
_TAG_TRUE_DATA_X = 11
_TAG_TRUE_NOISE_X = 12


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a coverage or width sweep needs, JSON round-trippable.

    scale_grid is a (h_min, h_max, count) triple smoothing each curve onto
    the full (s, h) lattice; presmooth_bandwidth smooths with one bandwidth
    onto an equidistant grid of presmooth_points. At most one of the two
    may be set. two_sample=True compares two independent equal-law groups
    of the same size (difference target identically zero).
    """

    model: ModelSpec = ModelSpec()
    n_values: tuple = (50,)
    methods: tuple = ("tgkf",)
    alpha: float = 0.05
    replications: int = 200
    bootstrap_replicates: int = 1000
    sigma_obs: float = 0.0
    presmooth_bandwidth: float = None
    presmooth_points: int = 400
    scale_grid: tuple = None
    true_replications: int = 10000
    two_sample: bool = False
    seed: int = 0
    out: str = None

    def __post_init__(self):
        object.__setattr__(
            self, "n_values", tuple(_integer("n_values entry", n) for n in self.n_values)
        )
        object.__setattr__(self, "methods", tuple(str(m) for m in self.methods))
        if not self.n_values or any(n < 2 for n in self.n_values):
            raise ValueError("n_values must hold sample sizes of at least 2")
        for m in self.methods:
            parse_method(m)
        if not self.methods:
            raise ValueError("need at least one method")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.replications < 1 or self.true_replications < 1:
            raise ValueError("replication counts must be positive")
        if self.bootstrap_replicates < 1:
            raise ValueError("bootstrap_replicates must be positive")
        if self.sigma_obs < 0:
            raise ValueError("sigma_obs must be non-negative")
        if self.presmooth_bandwidth is not None and self.scale_grid is not None:
            raise ValueError("choose either presmooth_bandwidth or scale_grid")
        if self.presmooth_points < 3:
            raise ValueError("presmooth_points must be at least 3")
        if self.scale_grid is not None:
            h_min, h_max, count = self.scale_grid
            count = _integer("scale_grid count", count)
            if not (0 < h_min < h_max and count >= 1):
                raise ValueError("scale_grid must be (h_min, h_max, count>=1)")
            object.__setattr__(self, "scale_grid", (float(h_min), float(h_max), count))
        if (self.presmooth_bandwidth is not None or self.scale_grid is not None) and (
            self.model.model == "C"
        ):
            raise ValueError("smoothing pipelines apply to curve models only")

    def bandwidths(self):
        """Smoothing bandwidths of the scale grid or the presmoother, or None."""
        if self.scale_grid is not None:
            h_min, h_max, count = self.scale_grid
            return np.linspace(h_min, h_max, count)
        if self.presmooth_bandwidth is not None:
            return np.array([self.presmooth_bandwidth])
        return None

    def to_dict(self):
        return {
            "model": {
                "name": self.model.model,
                "coef_law": self.model.coef_law,
                "nu": self.model.nu,
                "resolution": self.model.resolution,
                "midpoint_grid": self.model.midpoint_grid,
            },
            "n_values": list(self.n_values),
            "methods": list(self.methods),
            "alpha": self.alpha,
            "replications": self.replications,
            "bootstrap_replicates": self.bootstrap_replicates,
            "sigma_obs": self.sigma_obs,
            "presmooth_bandwidth": self.presmooth_bandwidth,
            "presmooth_points": self.presmooth_points,
            "scale_grid": list(self.scale_grid) if self.scale_grid else None,
            "true_replications": self.true_replications,
            "two_sample": self.two_sample,
            "seed": self.seed,
            "out": self.out,
        }

    @classmethod
    def from_dict(cls, doc):
        doc = dict(doc)
        model_doc = dict(doc.pop("model", {}))
        unknown = set(model_doc) - {"name", "coef_law", "nu", "resolution", "midpoint_grid"}
        if unknown:
            raise ValueError(f"unknown model config keys: {sorted(unknown)}")
        spec = ModelSpec(
            model=model_doc.get("name", "A"),
            coef_law=model_doc.get("coef_law", "gaussian"),
            nu=model_doc.get("nu", 7),
            resolution=model_doc.get("resolution", 200),
            midpoint_grid=bool(model_doc.get("midpoint_grid", False)),
        )
        fields = {
            "n_values", "methods", "alpha", "replications", "bootstrap_replicates",
            "sigma_obs", "presmooth_bandwidth", "presmooth_points", "scale_grid",
            "true_replications", "two_sample", "seed", "out",
        }
        unknown = set(doc) - fields
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        kwargs = {k: doc[k] for k in fields if k in doc}
        if kwargs.get("scale_grid") is not None:
            kwargs["scale_grid"] = tuple(kwargs["scale_grid"])
        return cls(model=spec, **kwargs)


class _Pipeline:
    """Precomputed transform + truth of a scenario (shared by all reps)."""

    def __init__(self, cfg):
        self.cfg = cfg
        grid = cfg.model.make_grid()
        bandwidths = cfg.bandwidths()
        if bandwidths is None:
            self.sg = None
            coords = grid.lattice_coords() if cfg.model.model == "C" else (grid.points,)
            self.truth = model_mean(cfg.model.model, *coords)
        else:
            if cfg.scale_grid is None:
                grid_s = Grid1D(np.linspace(0.0, 1.0, cfg.presmooth_points))
            else:
                grid_s = grid
            self.kernel = gaussian_kernel()
            self.sg = ScaleGrid(grid_s, bandwidths)
            mu = model_mean(cfg.model.model, grid.points)
            self.truth = scale_mean(
                mu, self.kernel, self.sg, normalize=True, measure_points=grid.points
            )
        if cfg.two_sample:
            self.truth = np.zeros_like(self.truth)

    def draw(self, n_index, rep, data_tag, noise_tag):
        sample = _raw_draw(self.cfg, n_index, rep, data_tag, noise_tag)
        if self.sg is not None:
            sample = smooth_sample(sample, self.kernel, self.sg, normalize=True)
        return sample


def _raw_draw(cfg, n_index, rep, data_tag=_TAG_DATA_Y, noise_tag=_TAG_NOISE_Y):
    """Model draw plus observation noise, before any smoothing."""
    n = cfg.n_values[n_index]
    sample = gen_model(cfg.model, n, substream(cfg.seed, data_tag, n_index, rep))
    if cfg.sigma_obs > 0:
        sample = add_observation_noise(
            sample, cfg.sigma_obs, substream(cfg.seed, noise_tag, n_index, rep)
        )
    return sample


def _map_items(worker, items, threads):
    if threads <= 1:
        return [worker(it) for it in items]
    with ThreadPoolExecutor(max_workers=int(threads)) as pool:
        return list(pool.map(worker, items))


def _failure_tolerant(fn, *args):
    try:
        return fn(*args), None
    except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        return None, f"{type(exc).__name__}: {exc}"


def _sweep(cfg, pipe, score, threads):
    """Score the band of every (N, rep, method); one block of rows per N.

    A row holds one (value, reason) pair per method: value is score(band),
    or None with the failure message as reason when the draw or the
    estimator failed.
    """
    m_count = len(cfg.methods)

    def band_score(sample, other, method, seed):
        if other is None:
            band = scb_one_sample(sample, method, cfg.alpha, cfg.bootstrap_replicates, seed)
        else:
            band = scb_two_sample(
                sample, other, method, cfg.alpha, cfg.bootstrap_replicates, seed
            )
        return score(band)

    def worker(item):
        n_index, rep = item
        try:
            sample = pipe.draw(n_index, rep, _TAG_DATA_Y, _TAG_NOISE_Y)
            other = (
                pipe.draw(n_index, rep, _TAG_DATA_X, _TAG_NOISE_X)
                if cfg.two_sample
                else None
            )
        except (ValueError, ArithmeticError) as exc:
            return [(None, f"{type(exc).__name__}: {exc}")] * m_count
        return [
            _failure_tolerant(
                band_score, sample, other, method,
                child_sequence(cfg.seed, _TAG_METHOD, n_index, rep, m_index),
            )
            for m_index, method in enumerate(cfg.methods)
        ]

    reps = cfg.replications
    items = [(i, r) for i in range(len(cfg.n_values)) for r in range(reps)]
    rows = _map_items(worker, items, threads)
    return [rows[i * reps : (i + 1) * reps] for i in range(len(cfg.n_values))]


def run_coverage(cfg, threads=1):
    """Coverage table: one cell per (N, method) with hit rate and binomial SE."""
    pipe = _Pipeline(cfg)
    blocks = _sweep(cfg, pipe, lambda band: covers(band, pipe.truth), threads)

    cells = []
    for n, block in zip(cfg.n_values, blocks):
        for m_index, method in enumerate(cfg.methods):
            outcomes = [row[m_index][0] for row in block]
            hits = sum(1 for o in outcomes if o is True)
            fails = sum(1 for o in outcomes if o is None)
            valid = cfg.replications - fails
            coverage = hits / valid if valid else None
            se = math.sqrt(coverage * (1 - coverage) / valid) if valid else None
            cells.append(
                {
                    "n": n,
                    "method": method,
                    "replications": cfg.replications,
                    "failures": fails,
                    "hits": hits,
                    "coverage": coverage,
                    "se": se,
                }
            )
    return {"kind": "coverage", "config": cfg.to_dict(), "cells": cells}


def _max_t_statistic(pipe, n_index, rep):
    """One draw of the maximal studentized deviation from the truth.

    Raises DegenerateVarianceError on a zero sd and FloatingPointError when
    the statistic is not finite.
    """
    cfg = pipe.cfg
    sample = pipe.draw(n_index, rep, _TAG_TRUE_DATA_Y, _TAG_TRUE_NOISE_Y)
    if cfg.two_sample:
        other = pipe.draw(n_index, rep, _TAG_TRUE_DATA_X, _TAG_TRUE_NOISE_X)
        _, _, scale = two_sample_residuals(sample, other)
        diff = pointwise_mean(sample) - pointwise_mean(other)
        rate = math.sqrt(sample.n_samples + other.n_samples - 2)
    else:
        diff = pointwise_mean(sample)
        scale = _positive_sd(sample)
        rate = math.sqrt(sample.n_samples)
    stat = float(np.max(rate * np.abs(diff - pipe.truth) / scale))
    if not math.isfinite(stat):
        raise FloatingPointError(f"max-t statistic is {stat}")
    return stat


def run_width(cfg, threads=1):
    """Width table: mean quantile +/- 2 SE per (N, method), plus the
    brute-force reference row from true_replications max-t draws."""
    pipe = _Pipeline(cfg)
    blocks = _sweep(cfg, pipe, lambda band: band.quantile, threads)

    true_items = [
        (i, r) for i in range(len(cfg.n_values)) for r in range(cfg.true_replications)
    ]
    true_stats = _map_items(
        lambda it: _failure_tolerant(_max_t_statistic, pipe, *it), true_items, threads
    )

    cells = []
    for n_index, (n, block) in enumerate(zip(cfg.n_values, blocks)):
        for m_index, method in enumerate(cfg.methods):
            quantiles = [row[m_index][0] for row in block]
            good = np.array([q for q in quantiles if q is not None])
            fails = cfg.replications - good.size
            if good.size:
                mean_q = float(good.mean())
                two_se = (
                    float(2.0 * good.std(ddof=1) / math.sqrt(good.size))
                    if good.size > 1
                    else None
                )
            else:
                mean_q, two_se = None, None
            cells.append(
                {
                    "n": n,
                    "method": method,
                    "replications": cfg.replications,
                    "failures": fails,
                    "mean_quantile": mean_q,
                    "two_se": two_se,
                }
            )
        block = true_stats[n_index * cfg.true_replications : (n_index + 1) * cfg.true_replications]
        stats = [value for value, _ in block if value is not None]
        cells.append(
            {
                "n": n,
                "method": "true",
                "replications": cfg.true_replications,
                "failures": cfg.true_replications - len(stats),
                "mean_quantile": ceiling_rank_quantile(stats, cfg.alpha) if stats else None,
                "two_se": None,
            }
        )
    return {"kind": "width", "config": cfg.to_dict(), "cells": cells}
