#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 kgbench/steadiness.py --workloads kg_cold_build jelly_scan \
        --seeds 1 2 3 4 5 --seconds 15 --out spread.json

For every workload and metric it prints the median and the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as a
share of the median: the spread each bound in BENCHMARK.json must cover
three times over.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, float]:
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600,
    )
    return json.loads(out.stdout.strip().splitlines()[-1]), time.perf_counter() - t0


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med if med else 0.0}


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", nargs="+", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--out", default=None)
    args = p.parse_args()
    report = {}
    for w in args.workloads:
        runs, elapsed = [], []
        for seed in args.seeds:
            res, dt = run_once(w, seed, args.seconds, args.trace)
            runs.append(res)
            elapsed.append(dt)
            print(f"{w} seed {seed}: {dt:.1f} s, correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}", flush=True)
        names = runs[0]["metrics"]
        report[w] = {
            "run_elapsed_s": spread(elapsed) if len(elapsed) > 1 else elapsed,
            "all_correct": all(r["correct"] for r in runs),
            "metrics": {
                k: dict(spread([r["metrics"][k]["value"] for r in runs]),
                        unit=names[k]["unit"],
                        values=[r["metrics"][k]["value"] for r in runs])
                for k in names
            },
        }
        for k, s in report[w]["metrics"].items():
            print(f"  {k:32s} median {s['median']:.6g} {s['unit']}  iqr/median {s['iqr_share']:.4f}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
