"""Bands over every smoothing bandwidth at once.

Smoothing noisy measurements forces a bandwidth choice, and a band built
at one bandwidth says nothing about the curve seen at another. Here the
band covers the whole location-bandwidth surface simultaneously: smooth
the raw curves onto a lattice of bandwidths, treat the lattice as a 2-D
domain, and price one quantile for all of it. Wherever the band excludes
zero, the signal is real at that location and scale, with one familywise
error level for every cell jointly.

Writes scale_space_tour.csv with one row per (location, bandwidth) cell.
"""

import csv

import numpy as np

from scbands import (
    FunctionalSample,
    Grid1D,
    ScaleGrid,
    covers,
    gaussian_kernel,
    scb_scale_space,
    substream,
    weight_matrix,
)

SEED = 8
N = 60
P = 100
BUMP = 0.7


def main():
    # true signal: a single sharp bump under heavy, partly shared noise
    measure = (np.arange(P) + 0.5) / P
    signal = 0.9 * np.exp(-0.5 * ((measure - BUMP) / 0.04) ** 2)
    gen = substream(SEED, 0)
    curves = signal + 0.5 * gen.standard_normal((N, P)) + 0.3 * np.outer(
        gen.standard_normal(N), np.cos(np.pi * measure)
    )
    raw = FunctionalSample(curves, Grid1D(measure))

    sg = ScaleGrid(Grid1D(measure), np.linspace(0.02, 0.12, 12))
    kernel = gaussian_kernel()
    band = scb_scale_space(raw, kernel, sg, method="tgkf", alpha=0.05)
    # the band's target: the true signal under the same smoothing map
    smoothed_truth = weight_matrix(kernel, measure, sg) @ signal

    print(f"N={N} noisy curves, {P} locations x {sg.h_points.size} bandwidths")
    print(f"simultaneous quantile over the surface: {band.quantile:.4f}")
    print(f"band covers the smoothed truth everywhere: {covers(band, smoothed_truth)}")

    lower = band.lower.reshape(P, sg.h_points.size)
    upper = band.upper.reshape(P, sg.h_points.size)
    peak = int(np.argmax(signal))
    print(f"\n{'bandwidth':>10} {'cells excluding zero':>21} {'lower bound at bump':>20}")
    for j, h in enumerate(sg.h_points):
        excl = int(((lower[:, j] > 0) | (upper[:, j] < 0)).sum())
        print(f"{h:10.3f} {excl:21d} {lower[peak, j]:+20.3f}")
    print("\nwider bandwidths smear the bump over more locations (the detected")
    print("region grows) while diluting its height (the guaranteed effect at")
    print("the peak shrinks); the surface band quantifies both at once")

    x, h = band.grid.lattice_coords()
    with open("scale_space_tour.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["s", "h", "center", "lower", "upper", "smoothed_truth"])
        for row in zip(x, h, band.center, band.lower, band.upper, smoothed_truth):
            writer.writerow([f"{v:.6f}" for v in row])
    print("wrote scale_space_tour.csv (s, h, center, lower, upper, smoothed_truth)")


if __name__ == "__main__":
    main()
