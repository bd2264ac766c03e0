#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/series.py --workload factor_large --seeds 1-10 --seconds 20
    python3 perfbench/series.py --workload paper_profile --workload sketch_tall \\
        --seeds 1-3 --trace 1 --out perfbench/trajectory/BENCH_01_x.json

Each run is a separate ``perfbench/run.py`` process, started from the root
of the checkout and waited for.  For every metric the summary gives the
median over the runs, the quartiles from ``statistics.quantiles(n=4)`` and
the spread: the quartile distance as a share of the median.  A metric is
steady when its spread is below a third of its bound in BENCHMARK.json
(``setup_s`` is not held to its bound, as the benchmark contract has it).

``--out`` records a point of the BENCH trajectory: the summary goes under
``untraced`` or ``traced`` in that JSON file (other keys are kept), next to
the map from each per-layer metric to the end-to-end metrics it should and
should not move.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    fp = [json.loads(ln[len("fingerprint "):]) for ln in lines if ln.startswith("fingerprint ")]
    return json.loads(lines[-1]), (fp[0] if fp else None)


def summarise(results, bounds):
    names = list(results[0]["metrics"])
    table = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        if med:
            spread = (q3 - q1) / abs(med)
        else:
            spread = 0.0 if q3 == q1 else float("inf")
        row = {"unit": results[0]["metrics"][name]["unit"], "median": med,
               "q1": q1, "q3": q3, "spread": spread, "values": values}
        if name in bounds:
            row["bound"] = bounds[name]
            row["steady"] = name == "setup_s" or spread < bounds[name] / 3
        table[name] = row
    return table


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=None,
                    help="defaults to run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", default=None, help="write the summary as JSON here")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]} if not args.trace else {}
    seeds = parse_seeds(args.seeds)
    summary = {"seconds": seconds, "trace": args.trace, "seeds": seeds, "workloads": {}}
    for workload in args.workload:
        results, fingerprint = [], None
        for seed in seeds:
            result, fp = run_once(workload, seed, seconds, args.trace)
            fingerprint = fingerprint or fp
            results.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        table = summarise(results, bounds)
        summary["workloads"][workload] = {
            "fingerprint": fingerprint,
            "all_correct": all(r["correct"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "metrics": table,
        }
        for name, row in table.items():
            flag = "" if row.get("steady", True) else "  NOT STEADY"
            bound = f" bound {row['bound']}" if "bound" in row else ""
            print(f"  {name:45s} median {row['median']:.6g} {row['unit']}"
                  f"  spread {row['spread']:.3f}{bound}{flag}", flush=True)
    if args.out:
        record(Path(args.out), "traced" if args.trace else "untraced", summary)
    return 0


def record(path, key, summary):
    point = json.loads(path.read_text()) if path.exists() else {}
    point[key] = summary
    point["layer_map"] = {name: {"unit": unit, "moves": moves, "does_not_move": still}
                          for name, unit, _better, moves, still in tracing.LAYER_METRICS}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(point, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
