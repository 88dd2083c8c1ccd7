"""Smoke test: the quick demos run to completion against the package."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# 05 runs rate ensembles (minutes) and stays out of this check
QUICK_DEMOS = ["01_sampling_and_marks", "02_partition_and_overlaps",
               "03_corrector_and_capacity", "04_mesoscopic_covering", "06_grid_backend"]


@pytest.mark.parametrize("name", QUICK_DEMOS)
def test_demo_runs(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", f"{name}.py")],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
