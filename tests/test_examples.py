"""Smoke runs of the example scripts.

Each example runs as a subprocess, the way a user runs it, and must exit 0
and print its key result line.  ``compare_planners.py`` and
``reproduce_paper.py`` are left out: they take seconds to minutes.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script,expected", [
    ("quickstart.py", "Chosen plan:"),
    ("elastic_spot_training.py", "time idle (no resources)  : 0.0 s"),
    ("geo_distributed_cost.py", "max throughput, us-west1 only"),
], ids=["quickstart", "elastic_spot_training", "geo_distributed_cost"])
def test_example_runs(script, expected):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "examples" / script)], env=env,
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert expected in result.stdout
