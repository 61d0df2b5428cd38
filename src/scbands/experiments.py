"""Monte Carlo experiment drivers: coverage tables and width tables.

Both drivers share one scenario pipeline: draw a synthetic sample, add
observation noise when requested, optionally smooth (one bandwidth, or a
whole scale grid), then hand the analysis sample to the band engine. Every
replication draws from substreams addressed by (purpose, n-index, rep), so
a report depends only on (config, seed), never on thread count or
evaluation order. Estimator failures (degenerate variance, no quantile
solution) are recorded per cell instead of aborting the sweep.

The width table's brute-force reference row is drawn in blocks of about
2^16 values, an (R, N, P) array of R replicates with one substream per
replicate, so its memory does not grow with true_replications and its
statistics equal those of one draw at a time.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .bands import covers, parse_method, scb_one_sample, scb_two_sample
from .bootstrap import ceiling_rank_quantile
from .fdata import FunctionalSample, Grid1D, Grid2D, _nonzero_scale
from .models import ModelSpec, _integer, _model_parts, gen_model_block
from .rng import child_sequence, substream
from .scalespace import ScaleGrid, gaussian_kernel, weight_matrix

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

# A block of reference-row draws holds about this many doubles, so the
# row's memory does not grow with true_replications.
_BLOCK_VALUES = 1 << 16

# Integer counts of ExperimentConfig; a non-integer one would fail mid-run.
_COUNT_FIELDS = ("replications", "bootstrap_replicates", "presmooth_points", "true_replications")
# JSON keys of the ModelSpec fields in a config; the model letter is "name".
_MODEL_KEYS = {f.name: "name" if f.name == "model" else f.name for f in fields(ModelSpec)}


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
        for name in _COUNT_FIELDS + ("seed",):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if not self.n_values or any(n < 2 for n in self.n_values):
            raise ValueError("n_values must hold sample sizes of at least 2")
        if not self.methods:
            raise ValueError("need at least one method")
        for m in self.methods:
            kind = parse_method(m)[1]
            if self.two_sample and kind not in ("tgkf", "gauss-sim"):
                raise ValueError(f"two_sample supports 'tgkf' and 'gauss-sim', not {m!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.replications < 1 or self.true_replications < 1:
            raise ValueError("replication counts must be positive")
        if self.bootstrap_replicates < 1:
            raise ValueError("bootstrap_replicates must be positive")
        if not (math.isfinite(self.sigma_obs) and self.sigma_obs >= 0):
            raise ValueError(f"sigma_obs must be finite and non-negative, got {self.sigma_obs}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.presmooth_bandwidth is not None and self.scale_grid is not None:
            raise ValueError("choose either presmooth_bandwidth or scale_grid")
        if self.presmooth_points < 3:
            raise ValueError("presmooth_points must be at least 3")
        if self.scale_grid is not None:
            h_min, h_max, count = self.scale_grid
            count = _integer("scale_grid count", count)
            if not (0 < h_min < h_max and (count == 1 or count >= 3)):
                raise ValueError("scale_grid must be (h_min, h_max, count), count 1 or >= 3")
            object.__setattr__(self, "scale_grid", (float(h_min), float(h_max), count))
        if self.bandwidths() is not None and self.model.model == "C":
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
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["model"] = {key: getattr(self.model, name) for name, key in _MODEL_KEYS.items()}
        return {k: list(v) if isinstance(v, tuple) else v for k, v in doc.items()}

    @classmethod
    def from_dict(cls, doc):
        doc = dict(doc)
        model_doc = doc.pop("model", {})
        model_names = {key: name for name, key in _MODEL_KEYS.items()}
        unknown = set(model_doc) - set(model_names)
        if unknown:
            raise ValueError(f"unknown model config keys: {sorted(unknown)}")
        unknown = set(doc) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        spec = ModelSpec(**{model_names[k]: v for k, v in model_doc.items()})
        return cls(model=spec, **doc)


class _Pipeline:
    """Smoothing map, analysis grid and truth of a scenario (shared by all reps).

    The weight matrix of a smoothing scenario is built once: the truth is
    W @ mu, and every block of draws is smoothed by the same W.
    """

    def __init__(self, cfg):
        self.cfg = cfg
        grid, _, mu, _ = _model_parts(cfg.model)
        bandwidths = cfg.bandwidths()
        if bandwidths is None:
            self.weights, self.grid, self.truth = None, grid, mu
        else:
            if cfg.scale_grid is None:
                grid_s = Grid1D(np.linspace(0.0, 1.0, cfg.presmooth_points))
            else:
                grid_s = grid
            sg = ScaleGrid(grid_s, bandwidths)
            self.weights = weight_matrix(gaussian_kernel(), grid.points, sg)
            self.grid = grid_s if sg.n_h == 1 else Grid2D(grid_s.points, sg.h_points)
            self.truth = self.weights @ mu
        if cfg.two_sample:
            self.truth = np.zeros_like(self.truth)
        # Values per path of the widest array a block of draws holds.
        self.width = max(grid.n_points, self.grid.n_points)

    def draw_block(self, n_index, reps, data_tag, noise_tag):
        """(R, N, P) analysis values of the replicates reps, after any smoothing."""
        vals = _raw_block(self.cfg, n_index, reps, data_tag, noise_tag)
        return vals if self.weights is None else vals @ self.weights.T

    def draw(self, n_index, rep, data_tag, noise_tag):
        values = self.draw_block(n_index, [rep], data_tag, noise_tag)[0]
        return FunctionalSample(values, self.grid)


def _raw_block(cfg, n_index, reps, data_tag=_TAG_DATA_Y, noise_tag=_TAG_NOISE_Y):
    """(R, N, P) model draws plus observation noise of the replicates reps.

    Replicate r draws its paths from substream (seed, data_tag, n_index, r)
    and its noise from substream (seed, noise_tag, n_index, r), so a block
    holds exactly the draws its replicates would make one at a time.
    """
    n = cfg.n_values[n_index]
    gens = [substream(cfg.seed, data_tag, n_index, r) for r in reps]
    vals = gen_model_block(cfg.model, n, gens)
    if cfg.sigma_obs > 0:
        for r, v in zip(reps, vals):
            v += substream(cfg.seed, noise_tag, n_index, r).normal(0.0, cfg.sigma_obs, v.shape)
    return vals


def _raw_draw(cfg, n_index, rep):
    """One replicate's model draw plus observation noise, before any smoothing
    (the sample that ``scbands generate`` writes)."""
    return FunctionalSample(_raw_block(cfg, n_index, [rep])[0], _model_parts(cfg.model)[0])


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


def _reference_block(pipe, n_index, reps):
    """(value, reason) of the maximal studentized deviation of each replicate.

    The block's means, scales and max-t statistics are computed along
    axis 1 of its (R, N, P) draws. A replicate with a zero scale fails with
    the DegenerateVarianceError of fdata._nonzero_scale, one whose
    statistic is not finite with FloatingPointError.
    """
    cfg = pipe.cfg
    n = cfg.n_values[n_index]
    y = pipe.draw_block(n_index, reps, _TAG_TRUE_DATA_Y, _TAG_TRUE_NOISE_Y)
    with np.errstate(all="ignore"):
        if cfg.two_sample:
            # Equal group sizes: c = N/M = 1 in two_sample_residuals.
            x = pipe.draw_block(n_index, reps, _TAG_TRUE_DATA_X, _TAG_TRUE_NOISE_X)
            center = y.mean(axis=1) - x.mean(axis=1)
            scale = np.sqrt(2.0 * y.var(axis=1, ddof=1) + 2.0 * x.var(axis=1, ddof=1))
            rate, name = math.sqrt(2 * n - 2), "pooled sd"
        else:
            center, scale = y.mean(axis=1), y.std(axis=1, ddof=1)
            rate, name = math.sqrt(n), "pointwise sd"
        stats = np.max(rate * np.abs(center - pipe.truth) / scale, axis=1)
    has_zero = np.any(scale == 0, axis=1)

    def checked(r):
        if has_zero[r]:
            _nonzero_scale(scale[r], pipe.grid, name)
        stat = float(stats[r])
        if not math.isfinite(stat):
            raise FloatingPointError(f"max-t statistic is {stat}")
        return stat

    return [_failure_tolerant(checked, r) for r in range(len(reps))]


def _reference_row(pipe, threads):
    """(value, reason) of every reference draw, one list per N, in blocks."""
    cfg = pipe.cfg
    reps = cfg.true_replications
    items = []
    for i, n in enumerate(cfg.n_values):
        size = max(1, _BLOCK_VALUES // (n * pipe.width))
        items += [(i, range(r, min(r + size, reps))) for r in range(0, reps, size)]
    blocks = _map_items(lambda item: _reference_block(pipe, *item), items, threads)
    stats = [stat for block in blocks for stat in block]
    return [stats[i * reps : (i + 1) * reps] for i in range(len(cfg.n_values))]


def run_width(cfg, threads=1):
    """Width table: mean quantile +/- 2 SE per (N, method), plus the
    brute-force reference row from true_replications max-t draws."""
    pipe = _Pipeline(cfg)
    blocks = _sweep(cfg, pipe, lambda band: band.quantile, threads)
    true_rows = _reference_row(pipe, threads)

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
        stats = [value for value, _ in true_rows[n_index] if value is not None]
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
