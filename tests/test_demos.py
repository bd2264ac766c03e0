"""The scripts in ``demos/`` run to completion against the current API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"

# one line each demo prints when it gets to its end
EXPECTED = {
    "kahan_rank_reveal.py": "qlp reveal profile at k = 95:",
    "rsvd_vs_powerurv.py": "at k = ell the curves meet",
    "cost_models.py": "leading-order flops at m = n = 1000 (units of n^3):",
    "accuracy_benchmark.py": "profiles written to out_accuracy/",
}


@pytest.mark.parametrize("demo", sorted(EXPECTED))
def test_demo_runs(tmp_path, demo):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    res = subprocess.run([sys.executable, str(DEMOS / demo)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    assert EXPECTED[demo] in res.stdout
