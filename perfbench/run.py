#!/usr/bin/env python3
"""Benchmark of the urv library.

    python3 perfbench/run.py --workload paper_profile --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/`` directory and nowhere else.  One run sets the workload up three
times (``setup_s`` is the import time plus the median set-up), then makes
passes of back-to-back calls until the timed calls add up to ``--seconds``
(at least one whole pass).  Each output is checked after its clock stops;
a call that raises or fails its check counts as failed.

With ``--trace 0`` the metrics are the end-to-end ones of
``workloads.END_TO_END``: per-operation medians, accuracy ratios, set-up
time and peak memory.  With ``--trace 1`` every call is made twice,
untraced and traced, and the metrics are the per-layer ones of
``tracing.LAYER_METRICS``, medians over the passes, with the tracing
overhead measured against the untraced copies.

Human-readable lines and the machine fingerprint come first; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 3


def import_urv():
    """Import the library from this checkout's src/; (module, seconds taken)."""
    if not (SRC / "urv" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no library source at {SRC / 'urv'}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import urv
    import urv.cli
    import_s = time.perf_counter() - t0
    if Path(urv.__file__).resolve().parent != (SRC / "urv").resolve():
        raise SystemExit(f"perfbench: imported urv from {urv.__file__}, not {SRC}")
    return urv, import_s


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return sizes


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def fingerprint(urv, workload, seed) -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "workload": workload.name,
        "workload_seed": seed,
        "working_set_bytes": workload.working_set_bytes,
        "caches": _cache_sizes(),
        "nproc": len(os.sched_getaffinity(0)),
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "urv": urv.__version__,
        "commit": _git_commit(),
    }


def median(values):
    return float(statistics.median(values)) if values else None


def run_setup(workload, urv, trace):
    """Set the workload up SETUP_REPS times; (median seconds, spans of the traced rep).

    In a traced run the last set-up is traced, for ``matrices.gen.setup_s``.
    """
    times, spans = [], []
    for rep in range(SETUP_REPS):
        tracer = tracing.Tracer() if trace and rep == SETUP_REPS - 1 else None
        ctx = tracing.tracing(urv, tracer) if tracer else nullcontext()
        t0 = time.perf_counter()
        with ctx:
            workload.setup()
        times.append(time.perf_counter() - t0)
        if tracer:
            spans = tracer.spans
    return median(times), spans


class Tally:
    """Durations of the calls that passed, and counts of attempted and failed calls."""

    def __init__(self):
        self.durations = defaultdict(list)
        self.spent = defaultdict(float)
        self.calls = defaultdict(int)
        self.timed = 0.0
        self.attempted = self.failed = 0

    def time_call(self, workload, call, first, tracer=None) -> float:
        """Time one call, check its output untimed; returns the seconds it took."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = tracer.call(call.span, call.run) if tracer and call.span else call.run()
            failure = None
        except Exception:
            out, failure = None, sys.exc_info()
        dt = time.perf_counter() - t0
        self.timed += dt
        self.spent[call.op] += dt
        self.calls[call.op] += 1
        if failure is None:
            try:
                call.check(out, first)
            except Exception:
                failure = sys.exc_info()
        if failure is None:
            self.durations[call.op].append(dt)
        else:
            self.failed += 1
            print(f"perfbench: {workload.name} {call.op} failed:", file=sys.stderr)
            traceback.print_exception(*failure, file=sys.stderr)
        return dt


def run_untraced(workload, seconds) -> Tally:
    """Passes until the timed calls add up to ``seconds``, after at least one.

    After the first pass the run stops before a call that, at the mean time
    of its operation so far, would end more than halfway past ``seconds``.
    """
    tally = Tally()
    p = 0
    while True:
        for call in workload.calls(p):
            mean = tally.spent[call.op] / max(tally.calls[call.op], 1)
            if p and tally.timed + mean / 2 >= seconds:
                return tally
            tally.time_call(workload, call, first=p == 0)
        p += 1
        if tally.timed >= seconds or tally.failed == tally.attempted:
            return tally


def run_traced(workload, seconds, urv):
    """Passes in which every call is made twice in a row, untraced and traced.

    Which copy goes first alternates from call to call, so the wandering
    speed of the machine and any warm-cache advantage of the second copy
    fall equally on both.  Stops between passes once ``seconds`` are timed,
    after at least one.  Returns the tally, the untraced and the traced time
    of each pass, and each pass's per-layer metrics with the time of its
    top-level spans.
    """
    tally = Tally()
    plain, traced, rows = [], [], []
    p = 0
    while p < 1 or (tally.timed < seconds and tally.failed < tally.attempted):
        tracer = tracing.Tracer()
        plain_s = traced_s = 0.0
        for i, call in enumerate(workload.calls(p)):
            for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
                if with_trace:
                    with tracing.tracing(urv, tracer):
                        traced_s += tally.time_call(workload, call, False, tracer)
                else:
                    plain_s += tally.time_call(workload, call, p == 0)
        plain.append(plain_s)
        traced.append(traced_s)
        top = sum(s.seconds for s in tracer.spans if s.parent is None)
        rows.append((tracing.layer_metrics(tracer.spans), top))
        p += 1
    return tally, plain, traced, rows


def end_to_end_metrics(workload, setup_s, tally) -> dict:
    # workloads.py imports numpy, so it is imported only after the timed
    # import of the library, which keeps numpy's import inside setup_s.
    import workloads

    values = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for op, timing, ratio in workloads.OPERATIONS:
        values[timing] = median(tally.durations.get(op, []))
        if ratio:
            values[ratio] = workload.err_ratio.get(ratio)
    return {name: values[name] for name, _, _ in workloads.END_TO_END}


def per_layer_metrics(workload, setup_spans, plain, traced, rows) -> dict:
    values = {}
    for name, *_ in tracing.LAYER_METRICS:
        column = [row[name] for row, _ in rows if name in row]
        values[name] = median(column) if column else None
    values["matrices.gen.setup_s"] = float(
        sum(s.seconds for s in setup_spans if s.name == "matrices.gen"))
    values["diagnostics.lemma_check.discrepancy_max"] = max(
        workload.lemma_discrepancies, default=None)
    plain_s = sum(plain)
    if plain_s:
        values["trace.overhead_frac"] = (sum(traced) - plain_s) / plain_s
        values["trace.coverage"] = sum(top for _, top in rows) / plain_s
    return values


def run_workload(urv, import_s, name, seed, seconds, trace, factories=None, stream=sys.stdout):
    """Run one workload and print its report; returns the result object."""
    import workloads

    factories = factories or workloads.WORKLOADS
    workdir = ROOT / ".perfbench_out" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = factories[name](urv, seed, workdir)
        setup_med, setup_spans = run_setup(workload, urv, trace)
        setup_s = import_s + setup_med
        workload.prepare()
        if trace:
            tally, plain, traced, rows = run_traced(workload, seconds, urv)
        else:
            tally = run_untraced(workload, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    if trace:
        values = per_layer_metrics(workload, setup_spans, plain, traced, rows)
        units = {m: unit for m, unit, *_ in tracing.LAYER_METRICS}
    else:
        values = end_to_end_metrics(workload, setup_s, tally)
        units = {m: unit for m, unit, _ in workloads.END_TO_END}
    correct = tally.failed == 0 and all(v is not None for v in values.values())
    for metric, value in values.items():
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"{metric:45s} {shown:>12s} {units[metric]}", file=stream)
    counts = {op: len(d) for op, d in sorted(tally.durations.items())}
    print(f"samples per operation {counts}, timed {tally.timed:.2f} s, "
          f"set-up {setup_s:.4f} s (import {import_s:.4f} s)", file=stream)
    if trace:
        print(f"pass seconds untraced {plain} traced {traced}", file=stream)
    print("fingerprint " + json.dumps(fingerprint(urv, workload, seed), sort_keys=True),
          file=stream)
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
    }
    print(json.dumps(result), file=stream)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    urv, import_s = import_urv()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    run_workload(urv, import_s, args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
