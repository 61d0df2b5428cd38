"""Run one workload in a fresh process and write the result as JSON.

run.py starts this script with the checkout's ``src`` on PYTHONPATH and
BLAS pinned to one thread. Modes:

    setup  build the inputs, then stop (a set-up time sample)
    run    build the inputs, then repeat timed operations for --seconds,
           timing a fixed reference probe before the first operation and
           after each one
    trace  build the inputs; on a threaded workload, time untraced
           operations at its thread count and at one thread for --seconds;
           then run a fixed number of operations with every scbands
           function wrapped, each after an untraced twin, and derive the
           per-layer metrics from the spans

The result records ``ready_at``, the monotonic clock reading when the
set-up finished, so the parent can measure set-up from process start.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy
from scipy import stats

import scbands
import scbands.cli
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
TRACED_OPS = {"sweep-coverage": 1, "sweep-width": 1, "band-requests": 10}

# Fixed inputs of the reference probe, the same for every seed.
_PROBE_RNG = np.random.default_rng(20130101)
_PROBE_SAMPLE = _PROBE_RNG.standard_normal((50, 200))
_PROBE_MATRIX = _PROBE_RNG.standard_normal((200, 200))


def probe(cpus=None):
    """Time a fixed task with the package's mix of work (interpreted
    Python, small numpy reductions, scipy distribution calls, one-thread
    BLAS) that calls no scbands code; about 40 ms. On a shared machine the
    speed of a core can swing by tens of percent within minutes, and an
    operation's time divided by the probe's time next to it cancels most
    of that swing. The probe runs where the operation runs: in place for a
    one-thread operation; given ``cpus``, pinned to each in turn, and the
    mean is returned."""
    if cpus is None:
        return _probe_once()
    allowed = os.sched_getaffinity(0)
    try:
        times = []
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times.append(_probe_once())
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.mean(times)


def _probe_once():
    start = time.perf_counter()
    total = 0
    for i in range(60000):
        total += i * i % 7
    for _ in range(120):
        _PROBE_SAMPLE.mean(axis=0).std()
        stats.t.sf(_PROBE_SAMPLE[0], 9)
        np.linalg.norm(_PROBE_MATRIX @ _PROBE_MATRIX[:, :20])
    return time.perf_counter() - start


def timed_run(wl, seconds, min_ops):
    latencies = {kind: [] for kind in wl.kinds}
    op_seconds, op_rel = [], []
    cpus = sorted(os.sched_getaffinity(0)) if wl.threads > 1 else None
    probes = [probe(cpus)]
    attempted = failed = 0
    messages = []
    deadline = time.perf_counter() + seconds
    while len(op_seconds) < min_ops or time.perf_counter() < deadline:
        records = wl.op()
        probes.append(probe(cpus))
        op_seconds.append(sum(took for _, took, _ in records))
        op_rel.append(op_seconds[-1] / (0.5 * (probes[-2] + probes[-1])))
        for kind, took, out in records:
            latencies[kind].append(took)
            units, bad, problems = wl.check(kind, out)
            attempted += units
            failed += bad
            messages += problems
    return {
        "op_seconds": op_seconds,
        "op_rel": op_rel,
        "probe_seconds": probes,
        "latencies": latencies,
        "attempted": attempted,
        "failed": failed,
        "failures": messages[:20],
    }


def traced_run(wl, seconds, traced_ops, spans_path):
    # A threaded workload first alternates untraced operations at its own
    # thread count and at one thread, which is what the traced phase runs.
    threaded = wl.threads > 1
    plain, single, checks = [], [], []
    deadline = time.perf_counter() + seconds
    while threaded and (not plain or time.perf_counter() < deadline):
        for threads, times in ((wl.threads, plain), (1, single)):
            records = wl.op(threads=threads)
            times.append(sum(took for _, took, _ in records))
            checks += [wl.check(kind, out) for kind, _, out in records]

    # Traced phase. Each traced operation follows an untraced one at the
    # same thread count, so a drift in machine speed cancels in the overhead.
    spans = tracer.Tracer()
    traced, paired = [], 0.0
    for _ in range(traced_ops):
        records = wl.op(threads=1) if threaded else wl.op()
        paired += sum(took for _, took, _ in records)
        checks += [wl.check(kind, out) for kind, _, out in records]
        spans.install(scbands)
        root = spans.begin("bench.op")
        try:
            traced += wl.op(threads=1) if threaded else wl.op()
        finally:
            spans.end(root)
            spans.uninstall()
    # Checked after uninstalling, so checks are not traced; the sweep check
    # compares the traced report with the first untraced one.
    checks += [wl.check(kind, out) for kind, _, out in traced]

    rows = spans.span_rows()
    spans_path.write_text(json.dumps({"spans": rows}))
    metrics = tracer.layer_metrics(rows, spans.counts, spans.weight_maps, traced_ops)
    roots = sum(end - start for name, start, end, parent, _ in rows if parent < 0)
    metrics["experiments.thread_speedup"] = (
        (statistics.median(single) / statistics.median(plain) if threaded else 0.0), "ratio"
    )
    metrics["trace.overhead_frac"] = (roots / 1e9 / paired - 1.0, "ratio")
    return {
        "layers": metrics,
        "attempted": sum(c[0] for c in checks),
        "failed": sum(c[1] for c in checks),
        "failures": [m for c in checks for m in c[2]][:20],
        "traced_ops": traced_ops,
    }


def environment():
    config = getattr(np.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(TRACED_OPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--small", action="store_true", help="minimal sizes (smoke test)")
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(scbands.__file__).resolve().parents:
        raise SystemExit(f"scbands was imported from {scbands.__file__}, not from {src}")

    tmpdir = tempfile.mkdtemp(prefix="tmp-", dir=args.result.parent)
    try:
        wl = workloads.make(args.workload, scbands, args.seed, args.small, tmpdir)
        result = {"ready_at": time.monotonic()}
        if args.mode == "run":
            result.update(timed_run(wl, args.seconds, 3 if args.small else wl.min_ops))
        elif args.mode == "trace":
            ops = 2 if args.small else TRACED_OPS[args.workload]
            spans_path = args.result.parent / f"spans-{args.workload}-seed{args.seed}.json"
            result.update(traced_run(wl, args.seconds, ops, spans_path))
        if wl.setup_failures and args.mode != "setup":
            result["attempted"] += 1
            result["failed"] += 1
            result["failures"] = wl.setup_failures + result["failures"]
        result["threads"] = wl.threads
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["env"] = environment()
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
