"""The demo scripts run end to end, each in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"
SRC = DEMOS.parent / "src"


# coverage_study.py is left out: its 300-replication coverage sweep on four
# threads takes about 5 s, ten times any demo here, and it only calls
# run_coverage and format_report_table, which the experiment and CLI tests
# already run.
@pytest.mark.parametrize(
    "script",
    ["band_basics.py", "fibre_comparison.py", "group_comparison.py", "scale_space_tour.py"],
)
def test_demo_exits_cleanly(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(DEMOS / script)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
