#!/usr/bin/env python3
"""Run-to-run steadiness of the benchmark's metrics.

    python3 perfbench/steadiness.py --workloads wgs_30x,hotspot_skew \
        --seeds 1-10 [--seconds 15] [--trace 0]

Runs perfbench/run.py once per (workload, seed), from the repository
root, and prints for every metric the median, the first and third
quartiles (statistics.quantiles(values, n=4)), the spread (q3 - q1) /
median and, for end-to-end metrics, that spread as a share of the
metric's bound in BENCHMARK.json.  A spread above a third of its bound is
flagged.  --seconds defaults to BENCHMARK.json's run_seconds.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if done.returncode != 0 or result is None or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: run failed "
                         f"(exit code {done.returncode})")
    return result


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def report(workload, runs, bounds):
    print(f"\n{workload}: {len(runs)} runs")
    print(f"  {'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6} {'use':>6}")
    worst = 0.0
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        unit = runs[0]["metrics"][name]["unit"]
        median, q1, q3, rel = spread(values)
        bound = bounds.get(name)
        use = rel / bound if bound else None
        flag = ""
        if use is not None:
            worst = max(worst, use)
            flag = "  <-- above a third of its bound" if use > 1 / 3 else ""
        print(f"  {name + ' [' + unit + ']':34} {median:12.6g} {q1:12.6g} "
              f"{q3:12.6g} {rel:8.4f} {bound if bound else '':>6} "
              f"{'' if use is None else f'{use:6.2f}'}{flag}")
    return worst


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    worst = 0.0
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            runs.append(run_once(workload, seed, args.seconds, args.trace))
            print(f"{workload} seed {seed}: done", file=sys.stderr, flush=True)
        worst = max(worst, report(workload, runs, bounds))
    if not args.trace:
        print(f"\nlargest spread as a share of its bound: {worst:.2f}")


if __name__ == "__main__":
    main()
