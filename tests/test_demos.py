"""The demo scripts run end to end, each in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"
SRC = DEMOS.parent / "src"


# Command-line arguments per script: coverage_study.py reads its replication
# count from argv[1], and its default 300 would take about 5 s.
ARGS = {"coverage_study.py": ["5"]}


@pytest.mark.parametrize(
    "script",
    ["band_basics.py", "fibre_comparison.py", "group_comparison.py", "scale_space_tour.py",
     "coverage_study.py"],
)
def test_demo_exits_cleanly(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(DEMOS / script), *ARGS.get(script, [])],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
