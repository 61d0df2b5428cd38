"""scbands benchmark: time-to-table sweeps and per-request band latency.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is sweep-coverage, sweep-width, band-requests, or ``all`` (each
workload in turn). Every workload runs in fresh worker processes started
from this one, with the checkout's ``src`` on PYTHONPATH and BLAS pinned
to one thread; nothing is installed or built.

With --trace 0 the run reports the end-to-end metrics: set-up time
(median of several fresh processes), peak memory, and the median relative
cost of one operation (one sweep, or one round of six band requests): its
wall time divided by that of a fixed reference probe timed just before and
just after it. The raw median operation time, per-kind latencies, sweep
time and the failed fraction are printed as well, each with its unit and
sample count. With --trace 1 it reports the per-layer
metrics of a run in which every public scbands function is wrapped.

Every output is checked. The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}; everything else,
including the environment stamp, goes to lines before it and to
.perfbench/<workload>-seed<N>-trace<0|1>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("sweep-coverage", "sweep-width", "band-requests")
SETUP_RUNS = 3
IMPORT_RUNS = 3
RUN_BUDGET_S = 170
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Reserved for checking a claimed gain on inputs nobody tuned against.
VERIFY_SEED = 90173

# Which end-to-end figure each per-layer metric should move, and where.
MOVES = {
    "kinematic.*": "tgkf-1d.p50_ms; sweep_s on sweep-width; slightly sweep_s on sweep-coverage",
    "bootstrap.mult_*, bootstrap.replicates": "sweep_s on sweep-coverage; no change on sweep-width",
    "bootstrap.boots_ms": "boots-t.p50_ms",
    "bootstrap.gauss_sim_ms": "gauss-sim.p50_ms",
    "rng.*": "sweep_s on both sweeps",
    "models.*": "sweep_s on sweep-width; setup_s on band-requests",
    "fdata.*": "sweep_s on sweep-width; tgkf-1d.p50_ms",
    "lkc.*": "tgkf-2d.p50_ms; tgkf-scale.p50_ms",
    "scalespace.*": "tgkf-scale.p50_ms",
    "bands.self_ms": "every band kind",
    "experiments.*": "sweep_s",
    "sampleio.*, cli.self_ms": "cli-scb.p50_ms",
    "scbands.import_ms": "setup_s",
}


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in BLAS_VARS:
        env[var] = BLAS_THREADS
    return env


def run_child(cmd, deadline):
    """Run a child to completion; returns (monotonic start, stdout)."""
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"timed out: {' '.join(cmd)}") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"exit status {proc.returncode}: {' '.join(cmd)}")
    return start, out


def run_worker(args, mode, deadline):
    result = OUT_DIR / f"worker-{os.getpid()}.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--mode", mode, "--result", str(result),
    ] + (["--small"] if args.small else [])
    start, _ = run_child(cmd, deadline)
    try:
        return start, json.loads(result.read_text())
    finally:
        result.unlink()


def import_ms(deadline):
    code = (
        "import time; t = time.perf_counter(); import scbands; "
        "print(time.perf_counter() - t); print(scbands.__file__)"
    )
    _, out = run_child([sys.executable, "-c", code], deadline)
    seconds, path = out.splitlines()
    if Path(ROOT / "src") not in Path(path).resolve().parents:
        raise BenchError(f"scbands imported from {path}")
    return float(seconds) * 1e3


def stamp(args, env, threads):
    commit = "unavailable"
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
            commit = rev.stdout.strip() if rev.returncode == 0 else commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return dict(env, seed=args.seed, verify_seed=VERIFY_SEED, workload=args.workload,
                sweep_threads=threads, commit=commit, src_lines=src_lines)


def p90(values):
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def measure(args):
    """One workload: returns (metrics, details, result); each metric is
    (value, unit, samples)."""
    deadline = time.monotonic() + RUN_BUDGET_S
    if args.trace:
        imports = [import_ms(deadline) for _ in range(1 if args.small else IMPORT_RUNS)]
        _, res = run_worker(args, "trace", deadline)
        metrics = {name: (value, unit, res["traced_ops"]) for name, (value, unit) in res["layers"].items()}
        metrics["scbands.import_ms"] = (statistics.median(imports), "ms", len(imports))
        return metrics, {}, res

    setups = []
    for _ in range(0 if args.small else SETUP_RUNS - 1):
        start, res = run_worker(args, "setup", deadline)
        setups.append(res["ready_at"] - start)
    start, res = run_worker(args, "run", deadline)
    setups.append(res["ready_at"] - start)
    ops, rel, probes = res["op_seconds"], res["op_rel"], res["probe_seconds"]
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": (res["peak_rss_kib"] * 1024 / 1e6, "MB", 1),
        "op_p50_rel": (statistics.median(rel), "ratio", len(rel)),
    }
    details = {
        "op_p50_ms": (statistics.median(ops) * 1e3, "ms", len(ops)),
        "probe_p50_ms": (statistics.median(probes) * 1e3, "ms", len(probes)),
        "failed_frac": (res["failed"] / res["attempted"], "ratio", res["attempted"]),
    }
    if args.workload == "band-requests":
        for kind, seconds in res["latencies"].items():
            details[f"{kind}.p50_ms"] = (statistics.median(seconds) * 1e3, "ms", len(seconds))
            details[f"{kind}.p90_ms"] = (p90(seconds) * 1e3, "ms", len(seconds))
    else:
        details["sweep_s"] = (statistics.median(ops), "s", len(ops))
    return metrics, details, res


def report(args, metrics, details, res):
    env = stamp(args, res["env"], res["threads"])
    print(f"== {args.workload} (seed {args.seed}, trace {args.trace})")
    for key, value in env.items():
        print(f"   {key}: {value}")
    for name, (value, unit, samples) in {**metrics, **details}.items():
        print(f"   {name:<34} {value:>14.6g} {unit:<8} n={samples}")
    if args.trace:
        for layer, moves in MOVES.items():
            print(f"   {layer} should move: {moves}")
    for message in res["failures"]:
        print(f"   FAILED {message}")
    doc = {
        "env": env,
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "failures": res["failures"],
        "metrics": {n: {"value": v, "unit": u, "samples": s} for n, (v, u, s) in metrics.items()},
        "details": {n: {"value": v, "unit": u, "samples": s} for n, (v, u, s) in details.items()},
    }
    if args.trace:
        doc["moves"] = MOVES
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return doc


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="minimal problem sizes and one set-up (smoke test)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "scbands" / "__init__.py").is_file():
        print(f"error: no scbands package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)

    docs = {}
    try:
        for name in WORKLOADS if args.workload == "all" else (args.workload,):
            one = argparse.Namespace(**{**vars(args), "workload": name})
            docs[name] = report(one, *measure(one))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    def values(doc):
        return {n: {"value": m["value"], "unit": m["unit"]} for n, m in doc["metrics"].items()}

    if len(docs) == 1:
        (doc,) = docs.values()
        metrics = values(doc)
    else:
        metrics = {f"{w}/{n}": m for w, doc in docs.items() for n, m in values(doc).items()}
    print(json.dumps({
        "correct": all(doc["correct"] for doc in docs.values()),
        "attempted": sum(doc["attempted"] for doc in docs.values()),
        "failed": sum(doc["failed"] for doc in docs.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
