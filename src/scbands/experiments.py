"""Monte Carlo experiment drivers: coverage tables and width tables.

Both drivers share one scenario pipeline: draw a synthetic sample, add
observation noise when requested, optionally smooth onto a scale grid (one
bandwidth, or a whole lattice of them), then hand the analysis sample to
the band engine. Every replication draws from substreams addressed by
(purpose, n-index, rep), so a report depends only on (config, seed), never
on thread count or evaluation order. Estimator failures (degenerate
variance, no quantile solution) are recorded per cell instead of aborting
the sweep.

The bands and the width table's brute-force reference row share one
scheduler of replicate blocks: a band block holds one replicate, a
reference block about 2^16 values (one (R, N, P) array per group, centered
in place, one substream per replicate), so the reference row's memory does
not grow with true_replications and its statistics equal one-at-a-time draws.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from functools import partial
from numbers import Real

import numpy as np

from .bands import covers, parse_method, scb_one_sample, scb_two_sample
from .bootstrap import ceiling_rank_quantile
from .fdata import FunctionalSample, _mean_field, _nonzero_scale
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
# (data, noise) tag pairs of Y and X, for the bands and for the reference row.
_BAND_TAGS = ((_TAG_DATA_Y, _TAG_NOISE_Y), (_TAG_DATA_X, _TAG_NOISE_X))
_TRUE_TAGS = ((_TAG_TRUE_DATA_Y, _TAG_TRUE_NOISE_Y), (_TAG_TRUE_DATA_X, _TAG_TRUE_NOISE_X))

# A block of reference-row draws holds about this many doubles, so the
# row's memory does not grow with true_replications.
_BLOCK_VALUES = 1 << 16

# Integer counts of ExperimentConfig; a non-integer one would fail mid-run.
_COUNT_FIELDS = ("replications", "bootstrap_replicates", "true_replications")
# JSON keys of the ModelSpec fields in a config; the model letter is "name".
_MODEL_KEYS = {f.name: "name" if f.name == "model" else f.name for f in fields(ModelSpec)}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a coverage or width sweep needs, JSON round-trippable.

    scale_grid is a (h_min, h_max, count) triple of count equidistant
    bandwidths: each curve is smoothed onto the (s, h) lattice of the data
    grid's points and the bandwidths, or onto the data grid itself when
    count is 1 (write one bandwidth h as (h, h, 1)). two_sample=True
    compares two independent equal-law groups of the same size (difference
    target identically zero).
    """

    model: ModelSpec = ModelSpec()
    n_values: tuple = (50,)
    methods: tuple = ("tgkf",)
    alpha: float = 0.05
    replications: int = 200
    bootstrap_replicates: int = 1000
    sigma_obs: float = 0.0
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
            if parse_method(m)[1] == "boots" and self.two_sample:
                raise ValueError(f"two_sample supports every method but 'boots(-t)', not {m!r}")
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
        if self.scale_grid is not None:
            grid = self.scale_grid
            items = () if isinstance(grid, (str, bytes)) or not np.iterable(grid) else tuple(grid)
            if [isinstance(v, Real) and not isinstance(v, bool) for v in items] != [True] * 3:
                raise ValueError(f"scale_grid must be 3 numbers, got {grid!r}")
            h_min, h_max = float(items[0]), float(items[1])
            count = _integer("scale_grid count", items[2])
            if not (0 < h_min <= h_max < math.inf and (count == 1 or count >= 3 and h_min < h_max)):
                raise ValueError(
                    "scale_grid must be (h_min, h_max, count) with 0 < h_min < h_max, "
                    "count 1 or >= 3 (h_min = h_max at count 1)"
                )
            object.__setattr__(self, "scale_grid", (h_min, h_max, count))
            if self.model.model == "C":
                raise ValueError("smoothing pipelines apply to curve models only")

    def bandwidths(self):
        """The smoothing bandwidths of scale_grid, or None."""
        return None if self.scale_grid is None else np.linspace(*self.scale_grid)

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
            sg = ScaleGrid(grid, bandwidths)
            self.weights = weight_matrix(gaussian_kernel(), grid.points, sg)
            self.grid, self.truth = sg.grid, self.weights @ mu
        if cfg.two_sample:
            self.truth = np.zeros_like(self.truth)
        # Values per path of the widest array a block of draws holds.
        self.width = max(grid.n_points, self.grid.n_points)

    def draw_block(self, n_index, reps, data_tag, noise_tag):
        """(R, N, P) analysis values of the replicates reps, after any smoothing."""
        vals = _raw_block(self.cfg, n_index, reps, data_tag, noise_tag)
        return vals if self.weights is None else vals @ self.weights.T

    def draw_groups(self, n_index, reps, tags):
        """draw_block of Y, and of X in two-sample mode, for (data, noise) tags."""
        return [self.draw_block(n_index, reps, *pair) for pair in tags[: 1 + self.cfg.two_sample]]


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


def _failure_tolerant(fn, *args):
    try:
        return fn(*args), None
    except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        return None, f"{type(exc).__name__}: {exc}"


def _sweep(pipe, reps, block_values, score_block, threads):
    """Rows of the replicates 0..reps-1 of every N, one list of rows per N.

    Each N's replicates are cut into blocks of about block_values values
    (at least one replicate), the blocks run on the thread pool, and
    score_block(n_index, reps) returns one row per replicate of its block.
    """
    items = []
    for i, n in enumerate(pipe.cfg.n_values):
        size = max(1, block_values // (n * pipe.width))
        items += [(i, range(r, min(r + size, reps))) for r in range(0, reps, size)]
    if threads <= 1:
        blocks = [score_block(*item) for item in items]
    else:
        with ThreadPoolExecutor(max_workers=int(threads)) as pool:
            blocks = list(pool.map(lambda item: score_block(*item), items))
    rows = [row for block in blocks for row in block]
    return [rows[i * reps : (i + 1) * reps] for i in range(len(pipe.cfg.n_values))]


def _band_block(pipe, score, n_index, reps):
    """One row per replicate of reps, holding a (value, reason) pair per method.

    value is score(band), or None with the failure message as reason when
    the draw or the estimator failed.
    """
    cfg = pipe.cfg
    build = scb_two_sample if cfg.two_sample else scb_one_sample

    def band_score(samples, method, seed):
        return score(build(*samples, method, cfg.alpha, cfg.bootstrap_replicates, seed))

    def scores(rep):
        groups = pipe.draw_groups(n_index, [rep], _BAND_TAGS)
        samples = [FunctionalSample(values[0], pipe.grid) for values in groups]
        return [
            _failure_tolerant(
                band_score, samples, method,
                child_sequence(cfg.seed, _TAG_METHOD, n_index, rep, m_index),
            )
            for m_index, method in enumerate(cfg.methods)
        ]

    rows = [_failure_tolerant(scores, rep) for rep in reps]
    return [[(None, reason)] * len(cfg.methods) if reason else row for row, reason in rows]


def _band_rows(pipe, score, threads):
    """Band rows of every N, one replicate per block: a band is the unit of work."""
    return _sweep(pipe, pipe.cfg.replications, 1, partial(_band_block, pipe, score), threads)


def _cells(n, methods, columns, summary):
    """One report cell per method, over its column of (value, reason) pairs.

    A cell counts the replications and the failures (value None), then
    adds summary(values) of the replications that did not fail.
    """
    cells = []
    for method, pairs in zip(methods, columns):
        values = [value for value, _ in pairs if value is not None]
        cells.append({"n": n, "method": method, "replications": len(pairs),
                      "failures": len(pairs) - len(values), **summary(values)})
    return cells


def run_coverage(cfg, threads=1):
    """Coverage table: one cell per (N, method) with hit rate and binomial SE."""
    pipe = _Pipeline(cfg)
    rows = _band_rows(pipe, lambda band: covers(band, pipe.truth), threads)

    def summary(outcomes):
        hits, valid = sum(outcomes), len(outcomes)
        coverage = hits / valid if valid else None
        se = math.sqrt(coverage * (1 - coverage) / valid) if valid else None
        return {"hits": hits, "coverage": coverage, "se": se}

    cells = []
    for n, block in zip(cfg.n_values, rows):
        cells += _cells(n, cfg.methods, zip(*block), summary)
    return {"kind": "coverage", "config": cfg.to_dict(), "cells": cells}


def _reference_block(pipe, n_index, reps):
    """(value, reason) of the maximal studentized deviation of each replicate.

    The mean field (fdata._mean_field) and the max-t statistics are taken
    along axis 1 of the block's (R, N, P) draws. A replicate with a zero
    scale fails with the DegenerateVarianceError of fdata._nonzero_scale,
    one whose statistic is not finite with FloatingPointError.
    """
    groups = pipe.draw_groups(n_index, reps, _TRUE_TAGS)
    with np.errstate(all="ignore"):
        center, scale, rate = _mean_field(*groups)
        stats = np.max(rate * np.abs(center - pipe.truth) / scale, axis=1)
    has_zero = np.any(scale == 0, axis=1)
    name = "pooled sd" if pipe.cfg.two_sample else "pointwise sd"

    def checked(r):
        if has_zero[r]:
            _nonzero_scale(scale[r], pipe.grid, name)
        stat = float(stats[r])
        if not math.isfinite(stat):
            raise FloatingPointError(f"max-t statistic is {stat}")
        return stat

    return [_failure_tolerant(checked, r) for r in range(len(reps))]


def _reference_row(pipe, threads):
    """(value, reason) of every reference draw, one list per N, in blocks of
    about _BLOCK_VALUES values."""
    block = partial(_reference_block, pipe)
    return _sweep(pipe, pipe.cfg.true_replications, _BLOCK_VALUES, block, threads)


def run_width(cfg, threads=1):
    """Width table: mean quantile +/- 2 SE per (N, method), plus the
    brute-force reference row from true_replications max-t draws."""
    pipe = _Pipeline(cfg)
    rows = _band_rows(pipe, lambda band: band.quantile, threads)
    true_rows = _reference_row(pipe, threads)

    def summary(quantiles):
        if not quantiles:
            return {"mean_quantile": None, "two_se": None}
        good = np.array(quantiles)
        two_se = float(2.0 * good.std(ddof=1) / math.sqrt(good.size)) if good.size > 1 else None
        return {"mean_quantile": float(good.mean()), "two_se": two_se}

    def true_summary(stats):
        quantile = ceiling_rank_quantile(stats, cfg.alpha) if stats else None
        return {"mean_quantile": quantile, "two_se": None}

    cells = []
    for n, block, true_row in zip(cfg.n_values, rows, true_rows):
        cells += _cells(n, cfg.methods, zip(*block), summary)
        cells += _cells(n, ("true",), (true_row,), true_summary)
    return {"kind": "width", "config": cfg.to_dict(), "cells": cells}
