"""Where along a fibre, and at which smoothing scale, do two groups differ?

A diffusion-imaging study measures a profile along a nerve fibre tract for
every subject, with rough subject-to-subject variation and measurement
noise. Comparing two groups asks where along the fibre their mean profiles
differ, and smoothing first forces a choice of bandwidth that the answer
depends on. This demo makes both choices unnecessary: it smooths each
group's noisy profiles over a whole range of bandwidths and bands the mean
difference over the (location, bandwidth) surface, with one familywise
error level for every cell jointly.

The "fibres" are synthetic: two groups of model B curves (rough, locally
varying noise) with white observation noise, and a bump added to the
first group's profiles. The demo writes both groups as sample CSVs and a
config, and runs the command line's band command on them, exactly as

    scbands scb --config fibre_comparison.json --out fibre_band.json

would. It prints the (s, h) cells where the band excludes zero and writes
them to fibre_comparison.csv.
"""

import csv
import json

import numpy as np

from scbands import (
    FunctionalSample,
    ModelSpec,
    add_observation_noise,
    gen_model,
    substream,
    write_sample,
)
from scbands.cli import main as scbands_cli

SEED = 11
N_Y, N_X = 40, 35
SIGMA_OBS = 0.1
EFFECT_AT, EFFECT_WIDTH, EFFECT_HEIGHT = 0.35, 0.05, 0.35
SCALE_GRID = [0.02, 0.1, 20]


def fibres(n, stream):
    """n noisy model B profiles, drawn from streams stream and stream + 1."""
    spec = ModelSpec("B", resolution=100, midpoint_grid=True)
    curves = gen_model(spec, n, substream(SEED, stream))
    return add_observation_noise(curves, SIGMA_OBS, substream(SEED, stream + 1))


def main():
    y, x = fibres(N_Y, 0), fibres(N_X, 2)
    s = y.grid.points
    effect = EFFECT_HEIGHT * np.exp(-0.5 * ((s - EFFECT_AT) / EFFECT_WIDTH) ** 2)
    write_sample("fibres_y.csv", FunctionalSample(y.values + effect, y.grid))
    write_sample("fibres_x.csv", x)
    config = {
        "methods": ["tgkf"],
        "alpha": 0.05,
        "scale_grid": SCALE_GRID,
        "input": "fibres_y.csv",
        "input_x": "fibres_x.csv",
        "two_sample": True,
    }
    with open("fibre_comparison.json", "w") as fh:
        json.dump(config, fh, indent=2)
    status = scbands_cli(["scb", "--config", "fibre_comparison.json", "--out", "fibre_band.json"])
    if status != 0:
        raise SystemExit(status)

    with open("fibre_band.json") as fh:
        band = json.load(fh)
    s_points = np.array(band["grid"]["x_points"])
    h_points = np.array(band["grid"]["y_points"])
    shape = (s_points.size, h_points.size)
    center, lower, upper = (np.array(band[k]).reshape(shape) for k in ("center", "lower", "upper"))
    excludes = (lower > 0) | (upper < 0)

    print(f"\n{N_Y} vs {N_X} noisy fibre profiles, {s_points.size} locations x "
          f"{h_points.size} bandwidths, simultaneous quantile {band['quantile']:.4f}")
    print(f"true effect: +{EFFECT_HEIGHT} bump at s = {EFFECT_AT} (sd {EFFECT_WIDTH})")
    print(f"\n{'bandwidth':>10} {'cells excluding zero':>21} {'where along the fibre':>22}")
    for j, h in enumerate(h_points):
        hits = s_points[excludes[:, j]]
        where = f"[{hits.min():.3f}, {hits.max():.3f}]" if hits.size else "-"
        print(f"{h:10.4f} {hits.size:21d} {where:>22}")
    print(f"\n{int(excludes.sum())} of {excludes.size} (s, h) cells exclude zero; every one "
          "is a finding at the 5% familywise level over the whole surface")

    with open("fibre_comparison.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["s", "h", "center", "lower", "upper"])
        for i, j in zip(*np.nonzero(excludes)):
            row = (s_points[i], h_points[j], center[i, j], lower[i, j], upper[i, j])
            writer.writerow([f"{v:.6f}" for v in row])
    print("wrote fibre_comparison.csv (s, h, center, lower, upper of those cells)")


if __name__ == "__main__":
    main()
