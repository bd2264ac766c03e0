"""The seam between the library and ``perfbench/``.

The benchmark's tracer and self-test patch library functions at the module
attributes through which they are called (``urv.cli.power_urv``, ...).
These tests pin the names it patches and that the CLI calls through them,
and run the benchmark's self-test.
"""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import urv
import urv.cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_sites_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    sites = tracing._sites(urv)
    assert sites
    for _, modules, attr, _, _ in sites:
        for module in modules:
            assert hasattr(module, attr), f"{module.__name__}.{attr}"


@pytest.mark.parametrize("alg, fn", [("ddh", "ddh_urv"), ("powerurv", "power_urv"),
                                     ("qlp", "qlp"), ("rsvd", "rsvd")])
def test_bench_calls_through_cli_attribute(tmp_path, monkeypatch, alg, fn):
    original, calls = getattr(urv.cli, fn), []

    def patched(*args, **kwargs):
        calls.append(fn)
        return original(*args, **kwargs)

    monkeypatch.setattr(urv.cli, fn, patched)
    assert urv.cli.main(["bench", "--matrix", "slow", "--m", "30", "--n", "20",
                         "--alg", alg, *(["--ell", "8"] if alg == "rsvd" else []),
                         "--out", str(tmp_path / "p.csv")]) == 0
    assert calls == [fn]


def test_selftest_passes():
    # tiny sizes, about 2 s; it writes only under the ignored .perfbench_out/
    res = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")], cwd=PERFBENCH.parent,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stdout + res.stderr
