"""Bit-identity check: write a fixed set of seeded scbands outputs, or compare
the current tree's outputs with a file written earlier.

    PYTHONPATH=src python tools/golden.py --out before.pkl
    # ... change the code ...
    PYTHONPATH=src python tools/golden.py --against before.pkl

--against lists every output that moved with its largest relative move, or
says that nothing moved, and exits 1 when something moved. The file also
records the Python, numpy and scipy versions and the BLAS build: a matmul's
last bits depend on the BLAS kernel and its thread count, so compare files
written on one machine with one BLAS thread (OPENBLAS_NUM_THREADS=1). For
that reason this is a review tool, not a test. FILE is a pickle: pass
--against only a file this tool wrote.

The outputs: the model parts (grid, basis, mean, amplitude) of models A, B,
B on its midpoint design, and C; draws, noisy draws and gradients; bands
of all 8 methods at seeds 0 and 7 on models A, B (chisq), C and a noisy B
sample, and their errors on samples with a zero-variance column; the 6
two-sample methods; LKC vectors and gradient covariances; sample CSV text
and its read-back, also of an edge layout (CRLF ends, quoted cells, blank
lines) as it is and with a digit separator that only the line scan reads;
band JSON; scale-space bands over 20 and 1 bandwidths;
1,000 seeded tGKF solves (1-D and 2-D, Gaussian and t); run_coverage /
run_width reports of seven configs at 1 and 2 threads, three of them edge
configs whose tGKF bands fail in some or all replicates; and the band-requests
benchmark workload's requests at its own sizes at seeds 1 and 2: tgkf,
boots-t and gauss-sim (B=1000) on model A (N=50, P=200), tgkf on model C
(50 x 50, N=50), the scale-space tgkf band of noisy model B on its midpoint
design (P=100, sigma_obs=0.1, 20 bandwidths from 0.02 to 0.1) and the CLI
scb band JSON of the model A sample. An error is kept as its type and
message. A RuntimeWarning (numpy's overflow and invalid-value warnings) is
raised as an error, so a stray warning shows as a moved output.
"""

import argparse
import contextlib
import io
import json
import os
import pickle
import platform
import re
import sys
import tempfile
import warnings
from dataclasses import fields

import numpy as np
import scipy

import scbands as sb
from scbands.cli import main as cli_main
from scbands.fdata import gradient
from scbands.models import _model_parts

_SPECS = {
    "A": sb.ModelSpec("A", resolution=60),
    "B-chisq": sb.ModelSpec("B", coef_law="chisq", nu=3, resolution=80),
    "B-midpoint": sb.ModelSpec("B", coef_law="t3", resolution=50, midpoint_grid=True),
    "C": sb.ModelSpec("C", resolution=20),
}
_SEEDS = (0, 7)
_REPLICATES = 300


def environment():
    """Versions and BLAS build that the outputs' last bits depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _grid(grid):
    return {f.name: getattr(grid, f.name) for f in fields(grid)}


def _caught(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # an error is an output too
        return f"{type(exc).__name__}: {exc}"


def _band(build, *args):
    """The band build(*args) as a dict of its fields, or its error as text."""
    band = _caught(build, *args)
    if isinstance(band, str):
        return band
    return {"center": band.center, "lower": band.lower, "upper": band.upper,
            "quantile": band.quantile, "method": band.method, "grid": _grid(band.grid)}


def _samples():
    """Seeded one-sample analysis data: name -> FunctionalSample."""
    out = {}
    for (name, spec), n in zip(_SPECS.items(), (50, 20, 30, 15)):
        out[name] = sb.gen_model(spec, n, sb.substream(101, len(out)))
    out["B-noisy"] = sb.add_observation_noise(out["B-midpoint"], 0.1, sb.substream(102))
    out["A-small"] = sb.gen_model(_SPECS["A"], 12, sb.substream(103))
    for name in ("A", "C"):  # one column without spread: every band names its point
        values = np.array(out[name].values)
        values[:, 7] = 1.5
        out[f"{name}-flat"] = sb.FunctionalSample(values, out[name].grid)
    return out


def model_outputs(out, samples):
    for name, spec in _SPECS.items():
        grid, basis, mu, amp = _model_parts(spec)
        out[f"model_parts/{name}"] = {"grid": _grid(grid), "basis": basis, "mean": mu,
                                      "amplitude": amp}
        out[f"gen_model_block/{name}"] = sb.gen_model_block(spec, 4, sb.substream(104), 3)
    for name, sample in samples.items():
        out[f"draw/{name}"] = sample.values
        out[f"gradient/{name}"] = gradient(sample)
    s = np.linspace(0.0, 1.0, 7)
    for name in "AB":
        out[f"model_mean/{name}"] = sb.model_mean(name, s)
    out["model_mean/C"] = sb.model_mean("C", s, s[::-1])


def band_outputs(out, samples):
    for name, sample in samples.items():
        for method in sb.METHOD_NAMES:
            for seed in _SEEDS:
                out[f"band/{name}/{method}/{seed}"] = _band(
                    sb.scb_one_sample, sample, method, 0.05, _REPLICATES, seed)
    pairs = {
        "A": (samples["A"], sb.gen_model(_SPECS["A"], 40, sb.substream(105))),
        "C": (samples["C"], sb.gen_model(_SPECS["C"], 12, sb.substream(106))),
    }
    two = [m for m in sb.METHOD_NAMES if not m.startswith("boots")]
    for name, (y, x) in pairs.items():
        for method in two:
            for seed in _SEEDS:
                out[f"band2/{name}/{method}/{seed}"] = _band(
                    sb.scb_two_sample, y, x, method, 0.05, _REPLICATES, seed)
        groups = sb.two_sample_residuals(y, x)[3]
        out[f"lkc2/{name}"] = sb.lkc_estimate(*groups).curvatures
    for name, sample in samples.items():
        res = _caught(sb.normed_residuals, sample)
        if isinstance(res, str):
            out[f"lkc/{name}"] = res
            continue
        out[f"lambda_hat/{name}"] = sb.lambda_hat(res)
        out[f"lkc/{name}"] = sb.lkc_estimate(res).curvatures
    for name in ("A", "C"):
        band = sb.scb_one_sample(samples[name])
        out[f"band_json/{name}"] = json.dumps(sb.band_to_dict(band))


def io_outputs(out, samples):
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("A", "C"):
            path = os.path.join(tmp, f"{name}.csv")
            sb.write_sample(path, samples[name])
            with open(path) as fh:
                out[f"csv/{name}"] = fh.read()
            back = sb.read_sample(path)
            out[f"csv_read/{name}"] = {"values": back.values, "grid": _grid(back.grid)}
        # model A's text with CRLF ends, quoted cells and blank lines, read as
        # it is (numpy's reader) and with one digit separator (the line scan)
        header, *lines = out["csv/A"].splitlines()
        rows = ['"' + line.replace(",", '","') + '"' for line in lines]
        separated = [re.sub(r"(\d)(\d)", r"\1_\2", rows[0], count=1), *rows[1:]]
        path = os.path.join(tmp, "edge.csv")
        out["csv_read/edge"] = {}
        for layout, data in (("layout", rows), ("scan", separated)):
            with open(path, "w", newline="") as fh:
                fh.write("\r\n\r\n".join([header, *data]) + "\r\n")
            out["csv_read/edge"][layout] = _caught(lambda: sb.read_sample(path).values)


def scale_space_outputs(out):
    raw = sb.add_observation_noise(sb.gen_model(_SPECS["B-midpoint"], 25, sb.substream(107)),
                                   0.1, sb.substream(108))
    locs = sb.Grid1D(np.linspace(0.0, 1.0, 30))
    for count, bandwidths in ((20, np.linspace(0.02, 0.1, 20)), (1, [0.05])):
        sg = sb.ScaleGrid(locs, bandwidths)
        out[f"weight_matrix/{count}"] = sb.weight_matrix(sb.gaussian_kernel(), raw.grid.points, sg)
        for method in ("tgkf", "gmult-t", "gauss-sim"):
            out[f"scale_band/{count}/{method}"] = _band(
                sb.scb_scale_space, raw, sb.gaussian_kernel(), sg, method, 0.05, _REPLICATES, 3)


def solver_outputs(out, count=1000):
    gen = np.random.default_rng(20240601)
    quantiles = []
    for _ in range(count):
        dim = int(gen.integers(1, 3))
        curv = tuple(10.0 ** gen.uniform(-3, 3, dim))
        family = (sb.ECDensityModel.gaussian() if gen.random() < 0.25
                  else sb.ECDensityModel.student_t(float(10.0 ** gen.uniform(0, 6))))
        alpha = float(10.0 ** gen.uniform(-10, np.log10(0.999)))
        quantiles.append(_caught(sb.tgkf_quantile, sb.LKCVector(1, curv), family, alpha))
    out["tgkf_solves"] = quantiles


def report_outputs(out):
    configs = {
        "sweep-coverage": sb.ExperimentConfig(
            model=sb.ModelSpec("A"), n_values=(50,), methods=("tgkf", "rmult-t"),
            replications=15, bootstrap_replicates=1000, seed=1),
        "sweep-width": sb.ExperimentConfig(
            model=sb.ModelSpec("B"), n_values=(10, 20, 100), methods=("tgkf",),
            replications=30, true_replications=1000, seed=1),
        "model-C": sb.ExperimentConfig(
            model=sb.ModelSpec("C", resolution=15), n_values=(10,),
            methods=("tgkf", "gmult-t"), replications=6, bootstrap_replicates=200,
            true_replications=300, seed=2),
        "two-sample-scale": sb.ExperimentConfig(
            model=sb.ModelSpec("B", resolution=40), n_values=(8, 30),
            methods=("tgkf", "rmult-t"), replications=6, bootstrap_replicates=200,
            sigma_obs=0.1, scale_grid=(0.02, 0.1, 8), true_replications=257,
            two_sample=True, seed=3),
        # edge configs: at N=2 most tGKF replicates fail (all on model C; model A's
        # block mixes failing and succeeding ones), and noise of sd 1e308
        # overflows every draw
        "edge-A": sb.ExperimentConfig(
            model=sb.ModelSpec("A", resolution=40), n_values=(2, 3),
            methods=("tgkf", "rmult-t", "boots-t"), replications=20, bootstrap_replicates=200,
            true_replications=300, seed=4),
        "edge-C": sb.ExperimentConfig(
            model=sb.ModelSpec("C", resolution=15), n_values=(2,), methods=("tgkf", "gmult-t"),
            replications=6, bootstrap_replicates=200, true_replications=300, seed=4),
        "edge-overflow": sb.ExperimentConfig(
            model=sb.ModelSpec("A", resolution=40), n_values=(5,), methods=("tgkf", "rmult-t"),
            replications=4, bootstrap_replicates=200, sigma_obs=1e308, true_replications=50,
            two_sample=True, seed=1),
    }
    for name, cfg in configs.items():
        for threads in (1, 2):
            out[f"coverage/{name}/{threads}"] = sb.run_coverage(cfg, threads=threads)
            out[f"width/{name}/{threads}"] = sb.run_width(cfg, threads=threads)


def band_request_outputs(out):
    """The band-requests workload's requests, built as that workload builds them."""
    for seed in (1, 2):
        curves = sb.gen_model(sb.ModelSpec("A"), 50, sb.substream(seed, 0))
        surfaces = sb.gen_model(sb.ModelSpec("C", resolution=50), 50, sb.substream(seed, 1))
        raw = sb.add_observation_noise(
            sb.gen_model(sb.ModelSpec("B", resolution=100, midpoint_grid=True), 50,
                         sb.substream(seed, 2)),
            0.1, sb.substream(seed, 3))
        sg = sb.ScaleGrid(raw.grid, np.linspace(0.02, 0.1, 20))
        key = f"band_request/{seed}"
        out[f"{key}/tgkf-1d"] = _band(sb.scb_one_sample, curves, "tgkf", 0.05)
        out[f"{key}/tgkf-2d"] = _band(sb.scb_one_sample, surfaces, "tgkf", 0.05)
        out[f"{key}/tgkf-scale"] = _band(
            sb.scb_scale_space, raw, sb.gaussian_kernel(), sg, "tgkf", 0.05)
        for method in ("boots-t", "gauss-sim"):
            out[f"{key}/{method}"] = _band(sb.scb_one_sample, curves, method, 0.05, 1000, seed)
        with tempfile.TemporaryDirectory() as tmp:
            csv_path, config = os.path.join(tmp, "sample.csv"), os.path.join(tmp, "scb.json")
            band_path = os.path.join(tmp, "band.json")
            sb.write_sample(csv_path, curves)
            with open(config, "w") as fh:
                json.dump({"methods": ["tgkf"], "alpha": 0.05, "seed": seed,
                           "input": csv_path}, fh)
            with contextlib.redirect_stdout(io.StringIO()):  # the CLI's "wrote ..." line
                status = cli_main(["scb", "--config", config, "--out", band_path])
            with open(band_path) as fh:
                out[f"{key}/cli-scb"] = (status, fh.read())


def collect():
    out = {}
    samples = _samples()
    model_outputs(out, samples)
    band_outputs(out, samples)
    io_outputs(out, samples)
    scale_space_outputs(out)
    solver_outputs(out)
    report_outputs(out)
    band_request_outputs(out)
    return out


def _leaves(value, path=""):
    """(path, leaf) pairs of a nested output; containers give way to their items."""
    if isinstance(value, dict):
        yield path + "{}", tuple(sorted(map(str, value)))
        for key in sorted(value, key=str):
            yield from _leaves(value[key], f"{path}/{key}")
    elif isinstance(value, (list, tuple)):
        yield path + "[]", len(value)
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}/{i}")
    else:
        yield path, value


def _move(new, old):
    """0.0 when new is old bit for bit, inf when they differ in kind, shape or
    text, else the largest |new - old| / |old| (|new - old| where old is 0)."""
    if isinstance(new, (str, bytes, type(None))) or isinstance(old, (str, bytes, type(None))):
        return 0.0 if type(new) is type(old) and new == old else np.inf
    a, b = np.asarray(new), np.asarray(old)
    if a.shape != b.shape or a.dtype != b.dtype:
        return np.inf
    if a.tobytes() == b.tobytes():
        return 0.0
    if a.dtype.kind not in "iuf":
        return np.inf
    a, b = a.astype(float), b.astype(float)
    with np.errstate(all="ignore"):
        diff = np.abs(a - b)
        rel = np.where(b == 0, diff, diff / np.abs(b))
    rel[np.isnan(a) & np.isnan(b)] = 0.0
    return float(np.nanmax(np.where(np.isnan(rel), np.inf, rel)))


def compare(new, old):
    """{output name: largest relative move} of the outputs that moved."""
    moved = {}
    for name in sorted(set(new) | set(old)):
        if name not in new or name not in old:
            moved[name] = np.inf
            continue
        leaves, old_leaves = list(_leaves(new[name])), list(_leaves(old[name]))
        worst = 0.0 if len(leaves) == len(old_leaves) else np.inf
        for (path, a), (old_path, b) in zip(leaves, old_leaves):
            worst = max(worst, np.inf if path != old_path else _move(a, b))
        if worst:
            moved[name] = worst
    return moved


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", help="write the outputs of this tree to FILE")
    mode.add_argument("--against", help="compare this tree's outputs with FILE")
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        doc = {"environment": environment(), "outputs": collect()}
    if args.out:
        with open(args.out, "wb") as fh:
            pickle.dump(doc, fh, protocol=4)
        print(f"wrote {len(doc['outputs'])} outputs to {args.out}")
        return 0
    with open(args.against, "rb") as fh:
        old = pickle.load(fh)
    for key, value in doc["environment"].items():
        if old["environment"].get(key) != value:
            print(f"environment differs: {key} {old['environment'].get(key)!r} -> {value!r}")
    moved = compare(doc["outputs"], old["outputs"])
    for name, worst in moved.items():
        print(f"moved: {name}  largest relative move {worst:.3g}")
    total = len(set(doc["outputs"]) | set(old["outputs"]))
    if moved:
        print(f"{len(moved)} of {total} outputs moved")
    else:
        print(f"nothing moved: all {total} outputs are bit-identical")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
