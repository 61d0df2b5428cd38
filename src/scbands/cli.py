"""Command line front end.

Subcommands:
    generate   draw a synthetic sample and write it to CSV
    scb        read one or two sample CSVs and write a confidence band as JSON
    coverage   run a coverage sweep, write CSV + JSON, print the table
    width      run a width sweep, write CSV + JSON, print the table

Every subcommand takes --config pointing at a JSON document with the
experiment configuration (see ExperimentConfig.from_dict). The scb config
additionally carries "input" and lists exactly one method; "input_x" adds a
second group and makes the band one of the mean difference, and
"two_sample": true requires it. With "scale_grid" set, scb first smooths
each group's curves onto its (s, h) lattice (smooth_sample with the
Gaussian kernel), so the band covers the whole scale-space surface.
--seed and --out override the config. Failures print a one-line JSON
object {"error": ..., "message": ...} to stderr and exit with status 1.
"""

import argparse
import functools
import json
import sys

from .bands import scb_one_sample, scb_two_sample
from .experiments import ExperimentConfig, _raw_draw, run_coverage, run_width
from .sampleio import (
    format_report_table,
    read_sample,
    write_band,
    write_report_csv,
    write_report_json,
    write_sample,
)
from .scalespace import ScaleGrid, gaussian_kernel, smooth_sample

__all__ = ["main"]

_INPUT_KEYS = ("input", "input_x")
_SWEEPS = {"coverage": run_coverage, "width": run_width}


def _load_config(args):
    with open(args.config) as fh:
        doc = json.load(fh)
    inputs = {}
    if isinstance(doc, dict):  # from_dict names any other document
        inputs = {k: doc.pop(k, None) for k in _INPUT_KEYS}
        doc.update((k, v) for k, v in (("seed", args.seed), ("out", args.out)) if v is not None)
    return ExperimentConfig.from_dict(doc), inputs


def _cmd_generate(cfg, inputs):
    sample = _raw_draw(cfg, 0, 0)
    path = cfg.out or "sample.csv"
    write_sample(path, sample)
    print(f"wrote {sample.n_samples} x {sample.n_points} sample to {path}")
    return 0


def _cmd_scb(cfg, inputs):
    if not inputs["input"]:
        raise ValueError('scb needs an "input" sample CSV in the config')
    if len(cfg.methods) != 1:
        raise ValueError(f"scb makes one band, but the config lists methods {cfg.methods}")
    if cfg.two_sample and not inputs["input_x"]:
        raise ValueError('scb has "two_sample": true but no "input_x" sample CSV')
    method = cfg.methods[0]
    groups = [read_sample(inputs[k]) for k in _INPUT_KEYS if inputs[k]]
    bandwidths = cfg.bandwidths()
    if bandwidths is not None:
        kernel = gaussian_kernel()
        groups = [smooth_sample(g, kernel, ScaleGrid(g.grid, bandwidths)) for g in groups]
    build = scb_two_sample if len(groups) == 2 else scb_one_sample
    band = build(*groups, method, cfg.alpha, replicates=cfg.bootstrap_replicates, seed=cfg.seed)
    path = cfg.out or "band.json"
    write_band(path, band)
    print(f"wrote {method} band (alpha={cfg.alpha}, quantile={band.quantile:.6g}) to {path}")
    return 0


def _write_report(report, stem):
    for suffix in (".csv", ".json"):
        if stem.endswith(suffix):
            stem = stem[: -len(suffix)]
    write_report_csv(stem + ".csv", report)
    write_report_json(stem + ".json", report)
    print(format_report_table(report))
    print(f"wrote {stem}.csv and {stem}.json")
    return 0


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="scbands",
        description="Simultaneous confidence bands for functional data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("generate", "draw a synthetic sample and write it to CSV"),
        ("scb", "compute a confidence band for one or two sample CSVs"),
        ("coverage", "run a coverage sweep"),
        ("width", "run a width sweep"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the config output path")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        cfg, inputs = _load_config(args)
        if args.command in _SWEEPS:
            return _write_report(_SWEEPS[args.command](cfg), cfg.out or args.command)
        command = _cmd_scb if args.command == "scb" else _cmd_generate
        return command(cfg, inputs)
    except Exception as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
