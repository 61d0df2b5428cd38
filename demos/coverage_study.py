"""Measure how often 95% simultaneous bands actually cover the truth.

Runs the coverage driver over a small grid of sample sizes for the
closed-form quantile and the Rademacher multiplier bootstrap, on the rough
21-bump process where curvature estimation has to work hardest. Each cell
repeats the draw-band-check cycle and reports the hit rate with its
binomial standard error. Takes roughly half a minute.
"""

import sys

from scbands import ExperimentConfig, ModelSpec, format_report_table, run_coverage

SEED = 11


def main():
    replications = int(sys.argv[1]) if len(sys.argv) > 1 else 300
    cfg = ExperimentConfig(
        model=ModelSpec("B"),
        n_values=(20, 50, 100),
        methods=("tgkf", "rmult-t"),
        alpha=0.05,
        replications=replications,
        bootstrap_replicates=500,
        seed=SEED,
    )
    print(f"coverage of nominal 95% bands, {replications} replications per cell\n")
    table = run_coverage(cfg)
    print(format_report_table(table))
    print("\nan ideal row shows coverage 0.95; small N drifts low because")
    print("both the mean and the band width are estimated from few curves")


if __name__ == "__main__":
    main()
