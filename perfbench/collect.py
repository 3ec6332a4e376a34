"""Repeat benchmark runs over several seeds and summarize them.

Usage:
  python3 perfbench/collect.py [--workloads a,b] [--runs 10] [--first-seed 100]
                               [--trace-runs 1] [--out perfbench/baseline.json]

Runs ``run.py`` once per seed and workload, with ``run_seconds`` from
BENCHMARK.json, and prints for each end-to-end metric the median, the
quartiles and the spread (inter-quartile distance over the median)
beside the metric's bound. ``--trace-runs`` traced runs per workload add
per-layer medians. ``--out`` writes the summary with the machine it ran
on, the workloads' reasons and the layer map, as a baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import RUN_LAYER
from tracer import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    elapsed = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    print(f"{workload} seed {seed} trace {trace}: {elapsed:.1f} s, correct={result['correct']}",
          file=sys.stderr)
    return result


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "runs": len(values),
        "values": values,
    }


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--trace-runs", type=int, default=0)
    parser.add_argument("--out", default="")
    args = parser.parse_args()
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    for workload in args.workloads.split(","):
        seeds = range(args.first_seed, args.first_seed + args.runs)
        runs = [one_run(workload, seed, seconds, 0) for seed in seeds]
        traced = [one_run(workload, seed, seconds, 1) for seed in seeds[: args.trace_runs]]
        entry = {"end_to_end": {}, "per_layer": {}}
        for name in bounds:
            entry["end_to_end"][name] = summarize([r["metrics"][name]["value"] for r in runs])
        for name in [m[0] for m in LAYER_METRICS] + [name for name, _unit in RUN_LAYER]:
            values = [r["metrics"][name]["value"] for r in traced]
            if values and None not in values:
                entry["per_layer"][name] = statistics.median(values)
        summary[workload] = entry
        print(f"== {workload} ({args.runs} runs, seeds {seeds.start}..{seeds.stop - 1})")
        for name, stats in entry["end_to_end"].items():
            spread = stats["spread"]
            flag = "" if spread is None or name == "setup_s" or spread < bounds[name] / 3 else "  WIDE"
            print(f"  {name:<16} median {stats['median']:<12.6g} q1 {stats['q1']:<12.6g} "
                  f"q3 {stats['q3']:<12.6g} spread {spread:.4f} bound {bounds[name]}{flag}")
    if args.out:
        payload = {
            "machine": machine(),
            "run_seconds": seconds,
            "seeds": [args.first_seed, args.first_seed + args.runs - 1],
            "workloads": {w["name"]: w["why"] for w in bench["workloads"]},
            "layer_map": {name: moves for name, _u, _n, moves in LAYER_METRICS},
            "baseline": summary,
        }
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
