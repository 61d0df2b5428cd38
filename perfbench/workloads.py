"""The benchmark's three workloads and the checks on their outputs.

Each workload builds its inputs from the seed in its constructor (the
set-up), and ``op()`` runs one timed operation: one sweep, or one round of
band requests. ``op()`` returns (kind, seconds, output) records; only the
call into ``scbands`` is inside the clock. ``check()`` then returns the
number of units checked and a list of failure messages. Package functions
are looked up on their module at call time, so the traced run sees them.

Checks never compare with golden seeded numbers: sweep windows are the
acceptance criteria widened to the replication counts used here, and band
quantiles are compared with references computed in the set-up.
"""

import contextlib
import dataclasses
import io
import json
import math
import time
from pathlib import Path

import numpy as np
from scipy import optimize, special, stats

ALPHA = 0.05


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    try:
        out = fn(*args, **kwargs)
    except Exception as exc:  # a raised band or sweep is a counted failure
        out = exc
    return time.perf_counter() - start, out


def _raised(kind, out):
    """(units, failed units, messages) for an operation that raised."""
    return 1, 1, [f"{kind}: raised {type(out).__name__}: {out}"]


class _Sweep:
    """Shared part of the two sweep workloads: repeat one fixed sweep."""

    kinds = ("sweep",)
    min_ops = 3

    def __init__(self, sb, cfg, threads):
        self.sb = sb
        self.cfg = cfg
        self.threads = threads
        self.first = None
        self.setup_failures = []
        self._run(dataclasses.replace(cfg, replications=2, true_replications=2), threads)

    def op(self, threads=None):
        seconds, report = _timed(self._run, self.cfg, threads or self.threads)
        return [("sweep", seconds, report)]

    def check(self, kind, report):
        """Units are cells; a report unlike the first fails every cell."""
        if isinstance(report, Exception):
            return _raised(kind, report)
        cells = report["cells"]
        if self.first is None:
            self.first = report
        elif report != self.first:
            return len(cells), len(cells), ["sweep report differs from the first one"]
        failures = []
        for cell in cells:
            problem = self._check_cell(cell)
            if cell["failures"]:
                problem = f"{cell['failures']} failed replications"
            if problem:
                failures.append(f"n={cell['n']} {cell['method']}: {problem}")
        return len(cells), len(failures), failures


class SweepCoverage(_Sweep):
    """Coverage of tgkf and rmult-t bands, model A, N=50, on two threads."""

    name = "sweep-coverage"

    def __init__(self, sb, seed, small):
        cfg = sb.ExperimentConfig(
            model=sb.ModelSpec("A"),
            n_values=(50,),
            methods=("tgkf", "rmult-t"),
            alpha=ALPHA,
            replications=4 if small else 15,
            bootstrap_replicates=100 if small else 1000,
            seed=seed,
        )
        super().__init__(sb, cfg, threads=2)

    def _run(self, cfg, threads):
        return self.sb.experiments.run_coverage(cfg, threads=threads)

    def _check_cell(self, cell):
        # Criterion 3 asks for coverage in [0.93, 0.97]. At this replication
        # count, flag a hit count only if it has probability below 1e-6
        # for every coverage inside that window.
        hits, r = cell["hits"], cell["replications"]
        if stats.binom.cdf(hits, r, 0.93) < 1e-6 or stats.binom.sf(hits - 1, r, 0.97) < 1e-6:
            return f"{hits} of {r} covered, implausible for coverage in [0.93, 0.97]"
        return None


# Criteria 1 and 2: (n, method) -> (target, tolerance). For the reference
# rows the tolerance is widened by five standard errors of the
# ceiling-rank quantile, measured over ten seeds at 1000 draws (0.13 at
# N=10, 0.055 at N=100) and scaled by sqrt(1000 / draws).
_WIDTH_TARGETS = {
    (20, "tgkf"): (3.368, 0.05),
    (100, "tgkf"): (3.000, 0.03),
    (10, "true"): (4.118, 0.10),
    (100, "true"): (2.993, 0.03),
}
_REFERENCE_SE_AT_1000 = {10: 0.13, 100: 0.055}


class SweepWidth(_Sweep):
    """Mean tgkf quantile and the brute-force reference row, model B."""

    name = "sweep-width"

    def __init__(self, sb, seed, small):
        cfg = sb.ExperimentConfig(
            model=sb.ModelSpec("B"),
            n_values=(10, 20, 100),
            methods=("tgkf",),
            alpha=ALPHA,
            replications=4 if small else 30,
            true_replications=50 if small else 1000,
            seed=seed,
        )
        super().__init__(sb, cfg, threads=1)

    def _run(self, cfg, threads):
        return self.sb.experiments.run_width(cfg, threads=threads)

    def _check_cell(self, cell):
        q = cell["mean_quantile"]
        floor = stats.t.ppf(1.0 - ALPHA / 2.0, cell["n"] - 1)
        if q is None or not math.isfinite(q) or q < floor:
            return f"mean quantile {q} below the pointwise t quantile {floor:.4f}"
        key = (cell["n"], cell["method"])
        if key not in _WIDTH_TARGETS:
            return None
        target, tol = _WIDTH_TARGETS[key]
        if cell["method"] == "true":
            se = _REFERENCE_SE_AT_1000[cell["n"]] * math.sqrt(1000.0 / cell["replications"])
            tol += 5.0 * se
        else:
            tol += 2.5 * cell["two_se"]
        if abs(q - target) > tol:
            return f"mean quantile {q:.4f} outside {target} +- {tol:.4f}"
        return None


def _eec_root(lkc, dof, alpha):
    """Largest root of the t-field EEC = alpha/2, written out independently
    of scbands.kinematic and solved with Brent's method."""

    def excess(u):
        shape = (1.0 + u * u / dof) ** (-0.5 * (dof - 1.0))
        total = stats.t.sf(u, dof) + lkc[0] * shape / (2.0 * np.pi)
        if len(lkc) == 2:
            const = np.exp(special.gammaln(0.5 * (dof + 1.0)) - special.gammaln(0.5 * dof))
            total += lkc[1] * const / np.sqrt(0.5 * dof) * u * shape / (2.0 * np.pi) ** 1.5
        return total - 0.5 * alpha

    # The EEC decreases beyond the pointwise quantile, so the bracket holds
    # exactly one root.
    return optimize.brentq(excess, stats.t.ppf(1.0 - alpha / 2.0, dof), 50.0, xtol=1e-13)


class BandRequests:
    """The analyst path: one request of each kind per round."""

    name = "band-requests"
    kinds = ("tgkf-1d", "tgkf-2d", "tgkf-scale", "boots-t", "gauss-sim", "cli-scb")
    threads = 1
    min_ops = 100  # so each kind's p90 has ten requests beyond it

    def __init__(self, sb, seed, tmpdir):
        self.sb = sb
        n = 50
        self.curves = sb.gen_model(sb.ModelSpec("A"), n, sb.substream(seed, 0))
        self.surfaces = sb.gen_model(sb.ModelSpec("C", resolution=50), n, sb.substream(seed, 1))
        raw = sb.gen_model(
            sb.ModelSpec("B", resolution=100, midpoint_grid=True), n, sb.substream(seed, 2)
        )
        self.raw = sb.add_observation_noise(raw, 0.1, sb.substream(seed, 3))
        self.kernel = sb.gaussian_kernel()
        self.scale_grid = sb.ScaleGrid(self.raw.grid, np.linspace(0.02, 0.1, 20))
        self.seed = seed
        self.replicates = 1000
        self.setup_failures = []

        tmp = Path(tmpdir)
        csv_path = tmp / "sample.csv"
        sb.write_sample(csv_path, self.curves)
        config = tmp / "scb.json"
        config.write_text(json.dumps(
            {"methods": ["tgkf"], "alpha": ALPHA, "seed": seed, "input": str(csv_path)}
        ))
        self.cli_out = tmp / "band.json"
        self.cli_args = ["scb", "--config", str(config), "--out", str(self.cli_out)]
        self.cli_band = sb.band_to_dict(sb.scb_one_sample(sb.read_sample(csv_path), "tgkf", ALPHA))

        smoothed = sb.smooth_sample(self.raw, self.kernel, self.scale_grid)
        self.reference = {
            "tgkf-1d": self._reference_quantile(self.curves),
            "tgkf-2d": self._reference_quantile(self.surfaces),
            "tgkf-scale": self._reference_quantile(smoothed),
        }
        self.reference["cli-scb"] = self.reference["tgkf-1d"]
        self.floor = stats.t.ppf(1.0 - ALPHA / 2.0, n - 1)
        self.first = {}
        for kind, _, out in self.op():  # the untimed warm-up round
            self.setup_failures += self.check(kind, out)[2]

    def _reference_quantile(self, sample):
        sb = self.sb
        lam = sb.lambda_hat(sb.normed_residuals(sample))
        if isinstance(sample.grid, sb.Grid1D):
            lkc = (sb.lkc_1d(lam, sample.grid),)
        else:
            lkc = sb.lkc_2d(lam, sample.grid)
        dof = sample.n_samples - 1
        q = sb.tgkf_quantile(sb.LKCVector(1, lkc), sb.ECDensityModel.student_t(dof), ALPHA)
        root = _eec_root(lkc, dof, ALPHA)
        if abs(q - root) > 1e-8:
            self.setup_failures.append(f"tgkf quantile {q!r} is not the EEC root {root!r}")
        return q

    def op(self):
        bands = self.sb.bands
        requests = [
            ("tgkf-1d", bands.scb_one_sample, (self.curves, "tgkf", ALPHA)),
            ("tgkf-2d", bands.scb_one_sample, (self.surfaces, "tgkf", ALPHA)),
            ("tgkf-scale", bands.scb_scale_space,
             (self.raw, self.kernel, self.scale_grid, "tgkf", ALPHA)),
            ("boots-t", bands.scb_one_sample,
             (self.curves, "boots-t", ALPHA, self.replicates, self.seed)),
            ("gauss-sim", bands.scb_one_sample,
             (self.curves, "gauss-sim", ALPHA, self.replicates, self.seed)),
        ]
        records = [(kind, *_timed(fn, *args)) for kind, fn, args in requests]
        with contextlib.redirect_stdout(io.StringIO()):
            records.append(("cli-scb", *_timed(self.sb.cli.main, self.cli_args)))
        return records

    def check(self, kind, out):
        """One unit per request."""
        if isinstance(out, Exception):
            return _raised(kind, out)
        if kind == "cli-scb":
            if out != 0:
                return 1, 1, [f"cli-scb: exit status {out}"]
            band = json.loads(self.cli_out.read_text())
            if band != self.cli_band:
                return 1, 1, ["cli-scb: band JSON differs from the in-process band"]
        else:
            band = self.sb.band_to_dict(out)
        problems = self._check_band(kind, band)
        return 1, int(bool(problems)), problems

    def _check_band(self, kind, band):
        lower, center, upper = (np.asarray(band[k]) for k in ("lower", "center", "upper"))
        q = band["quantile"]
        problems = []
        if not (np.all(lower <= center) and np.all(center <= upper)):
            problems.append("band violates lower <= center <= upper")
        if not math.isfinite(q) or q < self.floor:
            problems.append(f"quantile {q} below the pointwise t quantile {self.floor:.4f}")
        if kind in self.reference and abs(q - self.reference[kind]) > 1e-8:
            problems.append(f"quantile {q!r} differs from the set-up value {self.reference[kind]!r}")
        if self.first.setdefault(kind, q) != q:
            problems.append(f"quantile {q!r} differs from the first request's {self.first[kind]!r}")
        return [f"{kind}: {p}" for p in problems]


def make(name, sb, seed, small, tmpdir):
    if name == SweepCoverage.name:
        return SweepCoverage(sb, seed, small)
    if name == SweepWidth.name:
        return SweepWidth(sb, seed, small)
    return BandRequests(sb, seed, tmpdir)
