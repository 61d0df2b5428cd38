"""Smoke test of the benchmark at minimal problem sizes.

    python3 -m pytest perfbench/tests

Runs every workload once untraced and once traced, then checks that every
metric named in BENCHMARK.json appears with its unit, that span self
times are non-negative, and that no layer's self time inside a root span
exceeds that span.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3

sys.path.insert(0, str(BENCH))
import tracer  # noqa: E402


def run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--small"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


def units(result):
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


@pytest.fixture(scope="module")
def traced():
    return {w: result_of(run(w, 1)) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = result_of(run(workload, 0))
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(traced, workload):
    assert units(traced[workload]) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_fit_in_their_root_span(traced, workload):
    rows = json.loads((ROOT / ".perfbench" / f"spans-{workload}-seed{SEED}.json").read_text())
    rows = rows["spans"]
    selfs = tracer.self_times(rows)
    assert rows and min(selfs) >= 0
    # A parent is always recorded before its children.
    root = []
    for i, (_, _, _, parent, _) in enumerate(rows):
        root.append(i if parent < 0 else root[parent])
    per_root_layer = {}
    for i, (row, own) in enumerate(zip(rows, selfs)):
        key = (root[i], row[0].split(".", 1)[0])
        per_root_layer[key] = per_root_layer.get(key, 0) + own
    for (r, layer), own in per_root_layer.items():
        assert own <= rows[r][2] - rows[r][1], (workload, layer)


def test_every_layer_is_traced_on_some_workload(traced):
    seen = set()
    for workload in WORKLOADS:
        rows = json.loads((ROOT / ".perfbench" / f"spans-{workload}-seed{SEED}.json").read_text())
        seen |= {name.split(".", 1)[0] for name, *_ in rows["spans"]}
    assert set(tracer.LAYERS) <= seen


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
