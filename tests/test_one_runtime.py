"""The package runs on numpy's one BLAS runtime and never imports scipy.

A second OpenBLAS (scipy's) would add its own thread pool, memory and
import time; the kernels reach LAPACK through numpy's copy instead.
"""

import json
import os
import subprocess
import sys

import pytest

SCRIPT = """
import json, os, sys, tempfile
import urv, urv.cli
a, _ = urv.gen_slow_decay(60, 40, seed=0)
urv.qlp(a)
urv.householder_qr(a)
with tempfile.TemporaryDirectory() as d:
    code = urv.cli.main(["bench", "--matrix", "slow", "--m", "30", "--n", "20",
                         "--alg", "qlp", "--out", os.path.join(d, "p.csv")])
with open("/proc/self/maps") as fh:
    paths = {line.split(maxsplit=5)[5].strip() for line in fh if len(line.split()) > 5}
print(json.dumps({
    "code": code,
    "scipy": sorted(m for m in sys.modules if m.startswith("scipy")),
    "openblas": sorted(p for p in paths if "openblas" in os.path.basename(p).lower()),
}))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps")
def test_one_blas_runtime_no_scipy():
    res = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True,
                         timeout=300, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout.splitlines()[-1])
    assert out["code"] == 0
    assert out["scipy"] == []
    assert len(out["openblas"]) == 1, out["openblas"]
