"""Monte Carlo experiment drivers: coverage tables and width tables.

Both drivers share one scenario pipeline: draw a synthetic sample, add
observation noise when requested, optionally smooth onto a scale grid (one
bandwidth, or a whole lattice of them), then hand the analysis sample to
the band engine. Every draw comes from a substream addressed by (purpose,
n-index, block), so a report depends only on (config, seed), never on
evaluation order. Estimator failures (degenerate variance, no quantile
solution) are recorded per cell instead of aborting the sweep.

The bands and the width table's brute-force reference row share one
scheduler of replicate blocks, _sweep, the only code that cuts blocks. A
block holds about _BLOCK_VALUES values: one (R, N, P) array per group, so
memory does not grow with the replication counts. Block boundaries depend
only on N, the grid width and _BLOCK_VALUES.

A band block draws each replicate from the substreams of its own index and
stops at the replication count; since its draws are addressed by
replicate, the clipping moves no draw. Its tGKF bands are built together
on the stack of its draws, with one lockstep quantile solve
(bands._tgkf_bands), or by that engine one replicate at a time when the
block fails; its resampling bands one replicate at a time. A reference
block draws all its paths from one substream per purpose and centers them
in place; it is drawn whole, its rows past the replication count dropped,
so raising true_replications keeps every earlier statistic.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .bands import _inside, _parse_method_for, _tgkf_bands, scb_one_sample, scb_two_sample
from .bootstrap import ceiling_rank_quantile
from .errors import (_check_alpha, _check_sigma_obs, _count, _flag, _integer, _is_real,
                     _real_array, _sequence)
from .fdata import FunctionalSample, _bad_scale, _mean_field, _nonzero_scale
from .models import ModelSpec, _model_parts, gen_model_block
from .rng import STREAM_LAYOUT, child_sequence, substream
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
# row's memory does not grow with true_replications. The blocks are the
# reference row's stream addresses: changing this moves its draws.
_BLOCK_VALUES = 1 << 16

# Positive integer counts of ExperimentConfig; any other value would fail mid-run.
_COUNT_FIELDS = ("replications", "bootstrap_replicates", "true_replications")
# JSON keys of the ModelSpec fields in a config; the model letter is "name".
_MODEL_KEYS = {f.name: "name" if f.name == "model" else f.name for f in fields(ModelSpec)}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a coverage or width sweep needs, JSON round-trippable.

    scale_grid is a (h_min, h_max, count) triple of count equidistant
    bandwidths: each curve is smoothed onto the (s, h) lattice of the data
    grid's points and the bandwidths, or onto the data grid itself when
    count is 1 (write one bandwidth h as (h, h, 1)); ScaleGrid checks the
    bandwidths on the model's grid when the config is read. two_sample=True
    compares two independent equal-law groups of the same size (difference
    target identically zero). methods are kept under their canonical names
    (METHOD_NAMES), each at most once.
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
        if not isinstance(self.model, ModelSpec):
            raise ValueError(f"model must be a ModelSpec, got {self.model!r}")
        n_values = _sequence("n_values", self.n_values)
        object.__setattr__(self, "n_values", tuple(_integer("n_values entry", n) for n in n_values))
        for name in _COUNT_FIELDS:
            object.__setattr__(self, name, _count(name, getattr(self, name), positive=True))
        object.__setattr__(self, "seed", _count("seed", self.seed))
        object.__setattr__(self, "two_sample", _flag("two_sample", self.two_sample))
        if not self.n_values or any(n < 2 for n in self.n_values):
            raise ValueError("n_values must hold sample sizes of at least 2")
        methods = _sequence("methods", self.methods)
        methods = tuple(_parse_method_for(m, self.two_sample)[0] for m in methods)
        if not methods:
            raise ValueError("need at least one method")
        if len(set(methods)) < len(methods):
            raise ValueError(f"methods list a method twice: {methods!r}")
        object.__setattr__(self, "methods", methods)
        _check_alpha(self.alpha)
        _check_sigma_obs(self.sigma_obs)
        if not (self.out is None or isinstance(self.out, str)):
            raise ValueError(f"out must be a path, got {self.out!r}")
        if self.scale_grid is not None:
            items = _sequence("scale_grid", self.scale_grid, "3 numbers")
            if [_is_real(v) for v in items] != [True] * 3:
                raise ValueError(f"scale_grid must be 3 numbers, got {self.scale_grid!r}")
            h_min, h_max = float(items[0]), float(items[1])
            count = _count("scale_grid count", items[2], positive=True)
            object.__setattr__(self, "scale_grid", (h_min, h_max, count))
            ScaleGrid(self.model.make_grid(), self.bandwidths())
            if count == 1 and h_min != h_max:  # np.linspace drops h_max
                raise ValueError(f"scale_grid count 1 needs h_min = h_max, got {self.scale_grid!r}")

    def bandwidths(self):
        """The smoothing bandwidths of scale_grid, or None; an end or a step past
        what a double holds leaves a non-finite entry, without a warning."""
        with np.errstate(over="ignore", invalid="ignore"):
            return None if self.scale_grid is None else np.linspace(*self.scale_grid)

    def to_dict(self):
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["model"] = {key: getattr(self.model, name) for name, key in _MODEL_KEYS.items()}
        return {k: list(v) if isinstance(v, tuple) else v for k, v in doc.items()}

    @classmethod
    def from_dict(cls, doc):
        if not isinstance(doc, dict):
            raise ValueError(f"config must be a JSON object, got {doc!r}")
        model_doc = doc.get("model", {})
        if not isinstance(model_doc, dict):
            raise ValueError(f"model must be an object of model keys, got {model_doc!r}")
        model_names = {key: name for name, key in _MODEL_KEYS.items()}
        unknown = set(model_doc) - set(model_names)
        if unknown:
            raise ValueError(f"unknown model config keys: {sorted(unknown)}")
        unknown = set(doc) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        spec = ModelSpec(**{model_names[k]: v for k, v in model_doc.items()})
        return cls(**{**doc, "model": spec})


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
        # checked once here, so the bands compare with it unchecked
        self.truth = _real_array("truth", self.truth, 1, "a one-dimensional sequence")
        # Values per path of the widest array a block of draws holds.
        self.width = max(grid.n_points, self.grid.n_points)

    def block_size(self, n_index):
        """Replicates (at least one) per block of about _BLOCK_VALUES values at n_values[n_index]."""
        return max(1, _BLOCK_VALUES // (self.cfg.n_values[n_index] * self.width))

    def draw_groups(self, n_index, reps, tags):
        """(R, N, P) analysis values of the block of replicates reps (_raw_block),
        after any smoothing: of Y, and of X in two-sample mode, for (data, noise) tags."""
        pairs = tags[: 1 + self.cfg.two_sample]
        groups = (_raw_block(self.cfg, n_index, reps, *pair) for pair in pairs)
        return [vals if self.weights is None else vals @ self.weights.T for vals in groups]


def _raw_block(cfg, n_index, reps, data_tag=_TAG_DATA_Y, noise_tag=_TAG_NOISE_Y):
    """(R, N, P) model draws plus observation noise of the block of replicates reps.

    reps is range(b R, (b + 1) R): the block draws all its paths from
    substream (seed, data_tag, n_index, b) in one call and all its noise
    from substream (seed, noise_tag, n_index, b) in one call. A block of
    one replicate r is thus addressed by r itself.
    """
    size = len(reps)
    block = reps.start // size
    vals = gen_model_block(cfg.model, cfg.n_values[n_index],
                           substream(cfg.seed, data_tag, n_index, block), size)
    if cfg.sigma_obs > 0:
        vals += substream(cfg.seed, noise_tag, n_index, block).normal(0.0, cfg.sigma_obs,
                                                                        vals.shape)
    return vals


def _raw_draw(cfg, n_index, rep):
    """One replicate's model draw plus observation noise, before any smoothing
    (the sample that ``scbands generate`` writes)."""
    vals = _raw_block(cfg, n_index, range(rep, rep + 1))[0]
    return FunctionalSample(vals, _model_parts(cfg.model)[0])


def _failure_tolerant(fn, *args):
    try:
        return fn(*args), None
    except (ValueError, ArithmeticError) as exc:
        return None, f"{type(exc).__name__}: {exc}"


def _sweep(pipe, block, reps):
    """Rows of the replicates 0..reps-1 of every N, one list of rows per N.

    Each N's replicates are cut into whole blocks range(b R, (b + 1) R) of
    R = pipe.block_size replicates, evaluated in order; the rows past reps
    are dropped. block(pipe, n_index, reps) returns one row per replicate of
    its block (a band block, per replicate below the replication count).
    """
    rows = []
    for i in range(len(pipe.cfg.n_values)):
        size = pipe.block_size(i)
        blocks = [block(pipe, i, range(r, r + size)) for r in range(0, reps, size)]
        rows.append([row for block_rows in blocks for row in block_rows][:reps])
    return rows


def _band(pipe, values, method, seed):
    """(quantile, covered) of the method's band on one replicate's (N, P)
    values of each group. They are checked as samples first, so a draw that
    overflowed fails with the lone band's reason; the tGKF band is then the
    one-replicate block of bands._tgkf_bands, any other scb_one_sample's or
    scb_two_sample's."""
    cfg = pipe.cfg
    samples = [FunctionalSample(v, pipe.grid) for v in values]
    if method == "tgkf":
        return _tgkf_bands([s.values[None] for s in samples], pipe.grid, cfg.alpha, pipe.truth)[0]
    build = scb_two_sample if cfg.two_sample else scb_one_sample
    band = build(*samples, method, cfg.alpha, cfg.bootstrap_replicates, seed)
    return band.quantile, bool(_inside(band.lower, band.upper, pipe.truth))


def _band_block(pipe, n_index, reps):
    """One row per replicate of reps below cfg.replications, holding a
    (value, reason) pair per method.

    value is the band's (quantile, covered) pair, or None with the failure
    message as reason when the estimator failed. Each replicate is drawn
    from the substreams of its own index into the block's (R, N, P) stack
    of each group. The block's tGKF bands are built together from the
    stacks (bands._tgkf_bands); if that raises, _band builds them one
    replicate at a time with the same engine, like the resampling bands, so
    every reason is the replicate's own band's.
    """
    cfg = pipe.cfg
    reps = range(reps.start, min(reps.stop, cfg.replications))
    draws = [pipe.draw_groups(n_index, range(rep, rep + 1), _BAND_TAGS) for rep in reps]
    stacks = [np.concatenate(group) for group in zip(*draws)]
    del draws  # the block holds its draws once, in the stacks
    tgkf = None
    if "tgkf" in cfg.methods:
        tgkf = _failure_tolerant(_tgkf_bands, stacks, pipe.grid, cfg.alpha, pipe.truth)[0]
    return [[(tgkf[k], None) if tgkf is not None and method == "tgkf"
             else _failure_tolerant(_band, pipe, [s[k] for s in stacks], method,
                                    child_sequence(cfg.seed, _TAG_METHOD, n_index, rep, m))
             for m, method in enumerate(cfg.methods)]
            for k, rep in enumerate(reps)]


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
    """Coverage table: one cell per (N, method) with hit rate and binomial SE.

    threads must be a positive integer and has no effect: the blocks run in
    order on the calling thread.
    """
    _count("threads", threads, positive=True)
    pipe = _Pipeline(cfg)
    rows = _sweep(pipe, _band_block, cfg.replications)

    def summary(pairs):
        hits, valid = sum(covered for _, covered in pairs), len(pairs)
        coverage = hits / valid if valid else None
        se = math.sqrt(coverage * (1 - coverage) / valid) if valid else None
        return {"hits": hits, "coverage": coverage, "se": se}

    cells = []
    for n, block in zip(cfg.n_values, rows):
        cells += _cells(n, cfg.methods, zip(*block), summary)
    return {"kind": "coverage", "config": cfg.to_dict(), "stream_layout": STREAM_LAYOUT,
            "cells": cells}


def _reference_block(pipe, n_index, reps):
    """(value, reason) of the maximal studentized deviation of each replicate
    of the whole block reps (_raw_block): the max-t statistic of the mean
    field (fdata._mean_field) along axis 1 of its (R, N, P) draws. A
    replicate whose scale cannot studentize (fdata._bad_scale) fails with
    fdata._nonzero_scale's error, one with a non-finite statistic with
    FloatingPointError."""
    groups = pipe.draw_groups(n_index, reps, _TRUE_TAGS)
    with np.errstate(all="ignore"):
        center, scale, rate, _ = _mean_field(*groups)
        stats = np.max(rate * np.abs(center - pipe.truth) / scale, axis=1)
    has_bad = np.any(_bad_scale(scale), axis=1)
    name = "pooled sd" if pipe.cfg.two_sample else "pointwise sd"

    def checked(r):
        if has_bad[r]:
            _nonzero_scale(scale[r], pipe.grid, name)
        stat = float(stats[r])
        if not math.isfinite(stat):
            raise FloatingPointError(f"max-t statistic is {stat}")
        return stat

    return [_failure_tolerant(checked, r) for r in range(len(reps))]


def run_width(cfg, threads=1):
    """Width table: mean quantile +/- 2 SE per (N, method), plus the
    brute-force reference row from true_replications max-t draws.

    threads is checked and ignored as in run_coverage.
    """
    _count("threads", threads, positive=True)
    pipe = _Pipeline(cfg)
    rows = _sweep(pipe, _band_block, cfg.replications)
    true_rows = _sweep(pipe, _reference_block, cfg.true_replications)

    def summary(pairs):
        if not pairs:
            return {"mean_quantile": None, "two_se": None}
        good = np.array([quantile for quantile, _ in pairs])
        two_se = float(2.0 * good.std(ddof=1) / math.sqrt(good.size)) if good.size > 1 else None
        return {"mean_quantile": float(good.mean()), "two_se": two_se}

    def true_summary(stats):
        quantile = ceiling_rank_quantile(stats, cfg.alpha) if stats else None
        return {"mean_quantile": quantile, "two_se": None}

    cells = []
    for n, block, true_row in zip(cfg.n_values, rows, true_rows):
        cells += _cells(n, cfg.methods, zip(*block), summary)
        cells += _cells(n, ("true",), (true_row,), true_summary)
    return {"kind": "width", "config": cfg.to_dict(), "stream_layout": STREAM_LAYOUT,
            "cells": cells}
