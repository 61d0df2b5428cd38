"""In-memory span tracer for the traced benchmark run.

The tracer replaces every public function of every ``scbands`` module with
a wrapper that records one span per call. A function is replaced in every
module namespace that holds it (``scbands.bands.tgkf_quantile`` as well as
``scbands.kinematic.tgkf_quantile``), so calls from one module into another
are seen. The package itself is not modified on disk, and uninstalling
restores the original objects. The untimed run never installs it.

A span is (name, start_ns, end_ns, parent, thread). Names are
``<layer>.<function>``, where the layer is the module that defines the
function; the benchmark's own spans use the layer ``bench`` and the
tracer's bookkeeping uses ``trace``, so neither is charged to a module.
"""

import functools
import inspect
import os
import sys
import threading
import time
import zlib

import numpy as np

LAYERS = (
    "fdata", "lkc", "kinematic", "bootstrap", "rng", "models",
    "scalespace", "bands", "experiments", "sampleio", "cli",
)

# Coefficients per drawn path of each synthetic model: 7 Bernstein
# polynomials (A), 21 bumps (B), a 6 x 6 bump lattice (C).
_BASIS_SIZE = {"A": 7, "B": 21, "C": 36}


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread")

    def __init__(self, name, parent, thread):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = self.end = 0


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.weight_maps = set()
        self._local = threading.local()
        self._patched = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def begin(self, name):
        stack = self._stack()
        span = Span(name, stack[-1] if stack else None, threading.get_ident())
        self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter_ns()
        return span

    def end(self, span):
        span.end = time.perf_counter_ns()
        self._stack().pop()

    def _wrap(self, name, fn):
        hook = _HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(span)
            if hook is not None:
                # Bookkeeping runs in its own span so no layer is charged.
                book = begin("trace.hook")
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    hook(self, bound.arguments, result)
                finally:
                    end(book)
            return result

        return traced

    def install(self, package):
        prefix = package.__name__ + "."
        modules = [package] + [
            mod for name, mod in sorted(sys.modules.items()) if name.startswith(prefix)
        ]
        wrappers = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                origin = obj.__module__ or ""
                if not origin.startswith(prefix):
                    continue
                if obj not in wrappers:
                    layer = origin[len(prefix):]
                    wrappers[obj] = self._wrap(f"{layer}.{obj.__name__}", obj)
                setattr(mod, attr, wrappers[obj])
                self._patched.append((mod, attr, obj))
        return len(wrappers)

    def uninstall(self):
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def span_rows(self):
        """Spans as [name, start_ns, end_ns, parent_index, thread] rows."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [
            [s.name, s.start, s.end, -1 if s.parent is None else index[id(s.parent)], s.thread]
            for s in self.spans
        ]


def self_times(rows):
    """Self time of each span row: its duration minus its children's."""
    child = [0] * len(rows)
    for name, start, end, parent, _ in rows:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(rows)]


def layer_metrics(rows, counts, weight_maps, ops):
    """Per-layer metrics, per operation (one sweep or one request round)."""
    selfs = self_times(rows)
    total = {}
    calls = {}
    layer_self = {}
    layer_calls = {}
    for (name, start, end, _, _), own in zip(rows, selfs):
        total[name] = total.get(name, 0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0) + own
        layer_calls[layer] = layer_calls.get(layer, 0) + 1
    mult_self = sum(
        own for (name, *_), own in zip(rows, selfs) if name == "bootstrap.mult_t_quantile"
    )

    in_solver = 0
    for name, _, _, parent, _ in rows:
        if name != "kinematic.eec":
            continue
        while parent >= 0 and rows[parent][0] != "kinematic.tgkf_quantile":
            parent = rows[parent][3]
        in_solver += parent >= 0

    def per_op_ms(*names):
        return sum(total.get(n, 0) for n in names) / 1e6 / ops

    def per_op_count(value):
        return value / ops

    def ratio(num, den):
        return num / den if den else 0.0

    solves = calls.get("kinematic.tgkf_quantile", 0)
    streams = calls.get("rng.substream", 0) + counts.get("new_generators", 0)
    builds = calls.get("scalespace.weight_matrix", 0)
    return {
        "kinematic.solve_ms": (per_op_ms("kinematic.tgkf_quantile"), "ms"),
        "kinematic.solves": (per_op_count(solves), "count"),
        "kinematic.eec_evals_per_solve": (ratio(in_solver, solves), "count"),
        "kinematic.ec_density_calls": (per_op_count(calls.get("kinematic.ec_density", 0)), "count"),
        "bootstrap.mult_ms": (per_op_ms("bootstrap.mult_t_quantile"), "ms"),
        "bootstrap.replicates": (per_op_count(counts.get("replicates", 0)), "count"),
        "bootstrap.mult_gflop_s": (ratio(counts.get("mult_flops", 0), mult_self), "GFLOP/s"),
        "bootstrap.boots_ms": (per_op_ms("bootstrap.boots_t_quantile"), "ms"),
        "bootstrap.gauss_sim_ms": (per_op_ms("bootstrap.gauss_sim_quantile"), "ms"),
        "rng.substreams": (per_op_count(streams), "count"),
        "rng.substream_ms": (per_op_ms("rng.substream"), "ms"),
        "rng.draws_per_stream": (ratio(counts.get("draws", 0), streams), "count"),
        "models.gen_model_ms": (per_op_ms("models.gen_model"), "ms"),
        "models.draws": (per_op_count(counts.get("curves", 0)), "count"),
        "fdata.self_ms": (layer_self.get("fdata", 0) / 1e6 / ops, "ms"),
        "fdata.calls": (per_op_count(layer_calls.get("fdata", 0)), "count"),
        "lkc.lambda_hat_ms": (per_op_ms("lkc.lambda_hat"), "ms"),
        "lkc.integrals_ms": (per_op_ms("lkc.lkc_1d", "lkc.lkc_2d"), "ms"),
        "scalespace.smooth_ms": (per_op_ms("scalespace.smooth_sample"), "ms"),
        "scalespace.weight_matrix_ms": (per_op_ms("scalespace.weight_matrix"), "ms"),
        "scalespace.weight_matrix_calls": (per_op_count(builds), "count"),
        "scalespace.weight_matrix_distinct": (ratio(len(weight_maps), builds), "ratio"),
        "bands.self_ms": (layer_self.get("bands", 0) / 1e6 / ops, "ms"),
        "experiments.self_ms": (layer_self.get("experiments", 0) / 1e6 / ops, "ms"),
        "experiments.cell_failures": (per_op_count(counts.get("cell_failures", 0)), "count"),
        "sampleio.read_ms": (per_op_ms("sampleio.read_sample"), "ms"),
        "sampleio.write_ms": (
            per_op_ms("sampleio.write_sample", "sampleio.write_band",
                      "sampleio.write_report_csv", "sampleio.write_report_json"),
            "ms",
        ),
        "sampleio.bytes_read": (per_op_count(counts.get("bytes_read", 0)), "B"),
        "cli.self_ms": (layer_self.get("cli", 0) / 1e6 / ops, "ms"),
    }


# Hooks run after a traced call with its bound arguments and result. They
# count the work each call did, so ratios are measured where work happens.

def _values(sample):
    return getattr(sample, "values", np.asarray(sample))


def _hook_mult(tracer, args, result):
    n, p = _values(args["sample"]).shape
    cfg = args["cfg"]
    tracer.count("replicates", cfg.replicates)
    tracer.count("draws", cfg.replicates * n)
    # Three B x N x P products when studentized, one otherwise.
    tracer.count("mult_flops", (3 if cfg.studentized else 1) * 2 * cfg.replicates * n * p)


def _hook_boots(tracer, args, result):
    n = _values(args["sample"]).shape[0]
    tracer.count("replicates", args["cfg"].replicates)
    tracer.count("draws", args["cfg"].replicates * n)


def _hook_gauss_sim(tracer, args, result):
    draws = int(args["draws"])
    tracer.count("replicates", draws)
    tracer.count("draws", draws * np.shape(args["covariance"])[0])


def _hook_gen_model(tracer, args, result):
    n = int(args["n"])
    tracer.count("curves", n)
    tracer.count("draws", n * _BASIS_SIZE[args["spec"].model])


def _hook_noise(tracer, args, result):
    tracer.count("draws", result.values.size)


def _hook_as_generator(tracer, args, result):
    if not isinstance(args["rng"], np.random.Generator):
        tracer.count("new_generators")


def _hook_weight_matrix(tracer, args, result):
    data = np.ascontiguousarray(result)
    tracer.weight_maps.add((data.shape, zlib.crc32(data.data)))


def _hook_read_sample(tracer, args, result):
    tracer.count("bytes_read", os.path.getsize(args["path"]))


def _hook_sweep(tracer, args, result):
    tracer.count("cell_failures", sum(c["failures"] for c in result["cells"]))


_HOOKS = {
    "bootstrap.mult_t_quantile": _hook_mult,
    "bootstrap.boots_t_quantile": _hook_boots,
    "bootstrap.gauss_sim_quantile": _hook_gauss_sim,
    "models.gen_model": _hook_gen_model,
    "models.add_observation_noise": _hook_noise,
    "rng.as_generator": _hook_as_generator,
    "scalespace.weight_matrix": _hook_weight_matrix,
    "sampleio.read_sample": _hook_read_sample,
    "experiments.run_coverage": _hook_sweep,
    "experiments.run_width": _hook_sweep,
}
