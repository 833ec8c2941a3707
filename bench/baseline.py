"""Measure a baseline: every workload on several seeds, then one traced run each.

    python3 bench/baseline.py [--seeds 1,2,...,10] [--seconds 35] [--out bench/baseline.json]

Runs ``bench/run.py`` once per workload and seed, one process at a time,
the workloads of one seed back to back, so that a drift in the machine's
speed spreads over every workload alike. Writes the median, the quartiles
and their spread (the distance between the quartiles over the median) of
every end-to-end metric per workload, with the sample count, plus the
per-layer table of one traced run per workload.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from run import BENCH_DIR, WORKLOADS


def bench(workload: str, seed: int, seconds: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", seconds, "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: output check failed")
    return result


def summary(values: list[float], unit: str) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"unit": unit, "n": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--seconds", default="35")
    parser.add_argument("--out", default=str(BENCH_DIR / "baseline.json"))
    args = parser.parse_args()
    seeds = [int(seed) for seed in args.seeds.split(",")]

    runs: dict[str, list[dict]] = {workload: [] for workload in WORKLOADS}
    for seed in seeds:
        for workload in WORKLOADS:
            runs[workload].append(bench(workload, seed, args.seconds, 0)["metrics"])
            print(workload, seed, {k: v["value"] for k, v in runs[workload][-1].items()},
                  flush=True)
    traced = {workload: bench(workload, seeds[0], args.seconds, 1) for workload in WORKLOADS}

    baseline = {
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {len(os.sched_getaffinity(0))} CPUs",
        "seconds": float(args.seconds),
        "seeds": seeds,
        "end_to_end": {
            workload: {
                name: summary([run[name]["value"] for run in rows], rows[0][name]["unit"])
                for name in rows[0]
            }
            for workload, rows in runs.items()
        },
        "per_layer": {
            workload: {"seed": seeds[0],
                       "metrics": {name: metric["value"]
                                   for name, metric in result["metrics"].items()}}
            for workload, result in traced.items()
        },
    }
    Path(args.out).write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    for workload, metrics in baseline["end_to_end"].items():
        for name, stats in metrics.items():
            print(f"{workload:<20} {name:<16} median {stats['median']:<12.6g} "
                  f"spread {stats['spread']:.4f} {stats['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
