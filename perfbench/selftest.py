#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that

* every workload, untraced and traced, prints every metric that
  BENCHMARK.json names, each with its unit, and fails nothing;
* a corrupted factorization, profile CSV or lemma result reaching the
  checker counts as a failed operation, and the run still finishes;
* the benchmark exits nonzero, printing no result, in a directory that
  holds only BENCHMARK.json and perfbench/.

Runs in well under a minute; exits 0 when every check holds.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stderr
from dataclasses import replace

import run
import workloads

SEED = 3
SECONDS = 0.01


def spec_metrics(trace):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def tiny_run(urv, name, trace=0):
    stream = io.StringIO()
    result = run.run_workload(urv, 0.0, name, SEED, SECONDS, trace,
                              factories=workloads.TINY, stream=stream)
    return result, stream.getvalue()


def check_names(urv, failures):
    for trace in (0, 1):
        want = spec_metrics(trace)
        for name in workloads.TINY:
            result, text = tiny_run(urv, name, trace)
            got = {m: v["unit"] for m, v in result["metrics"].items()}
            if got != want:
                failures.append(f"{name} trace {trace}: metrics {sorted(set(got) ^ set(want))} "
                                f"differ from BENCHMARK.json, or their units do")
            lines = text.splitlines()
            for metric, unit in want.items():
                if not any(ln.split()[:1] == [metric] and ln.endswith(" " + unit) for ln in lines):
                    failures.append(f"{name} trace {trace}: no line prints {metric} in {unit}")
            if json.loads(lines[-1]) != result:
                failures.append(f"{name} trace {trace}: last line is not the result")
            if not result["correct"] or result["failed"]:
                failures.append(f"{name} trace {trace}: {result['failed']} failed operations")


def expect_failures(urv, name, label, failures):
    with redirect_stderr(io.StringIO()):   # the runner reports each failure there
        result, _ = tiny_run(urv, name)
    if result["correct"] or result["failed"] == 0 or result["attempted"] <= result["failed"]:
        failures.append(f"{label}: attempted {result['attempted']}, failed {result['failed']}, "
                        f"correct {result['correct']}")


def check_corruption(urv, failures):
    power_urv, write_csv = urv.power_urv, urv.cli.write_profile_csv

    def corrupted(mutate):
        def fake(*args, **kwargs):
            f = power_urv(*args, **kwargs)
            return replace(f, **mutate(f))
        return fake

    def lower_entry(f):
        r = f.r.copy()
        r[-1, 0] = 1e-3 * abs(r).max()
        return {"r": r}

    def extra_row(path, err, rev):
        write_csv(path, err, rev)
        with open(path, "a") as fh:
            fh.write("0,0,0,0,0,0,0,0\n")

    cases = [
        ("R not triangular", "factor_large", urv, "power_urv", corrupted(lower_entry)),
        ("U scaled by 1 + 1e-8", "sketch_tall", urv, "power_urv",
         corrupted(lambda f: {"u": f.u * (1 + 1e-8)})),
        ("lemma discrepancy 1e-3", "factor_large", urv, "lemma_check",
         lambda *args, **kwargs: 1e-3),
        ("profile CSV with an extra row", "paper_profile", urv.cli, "write_profile_csv",
         extra_row),
    ]
    for label, name, module, attr, fake in cases:
        saved = getattr(module, attr)
        setattr(module, attr, fake)
        try:
            expect_failures(urv, name, label, failures)
        finally:
            setattr(module, attr, saved)


def check_without_source(failures):
    bare = run.ROOT / ".perfbench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "factor_large", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            failures.append(f"without src/ the run exited {proc.returncode} "
                            f"and printed {proc.stdout[-200:]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if not any(bare.parent.iterdir()):
            bare.parent.rmdir()


def main():
    urv, _ = run.import_urv()
    failures = []
    check_names(urv, failures)
    check_corruption(urv, failures)
    check_without_source(failures)
    for line in failures:
        print("FAIL", line)
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
