#!/usr/bin/env python3
"""Per-sample accuracy over many seeds, to set run.py's accuracy floors.

    python3 perfbench/floors.py --workloads wgs_30x,hotspot_skew --seeds 1-50

Run from the repository root.  For every (workload, seed) it simulates
the inputs and executes each sample once, as run.py does, and scores the
sample's VCF against its truth.  It prints, per workload and accuracy
metric, the lowest per-sample value, the median, and the floor that value
suggests: MARGIN below the lowest, rounded down to a hundredth.  Accuracy
depends only on the seed and the code, not on the machine, so these
figures need to be taken again only when the pipeline's output changes.
"""

import argparse
import math
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from steadiness import parse_seeds  # noqa: E402

# A sample of 100 kb holds only 20-40 truth indels, so one indel moves its
# ratio by 0.03-0.05; hotspot_skew's lowest indel recall fell by 0.07 from
# seeds 1-50 to seeds 1-100.
MARGIN = 0.10


def sample_accuracy(harness, worker, work, workload, seed):
    """{metric: ratio} for every sample of one seed."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench.simulate(harness, work, workload, seed, repeat=1)
    out = []
    for k in range(bench.WORKLOADS[workload]["samples"]):
        bench.fresh_spill_dir(work)
        argv = bench.execution_argv(harness, worker, workload, work,
                                    "execute", k)
        code, result, _ = bench.run_child(argv, work)
        if code != 0 or result is None:
            raise SystemExit(f"{workload} seed {seed} sample {k}: "
                             f"exit code {code}")
        counts = bench.accuracy_counts(
            bench.read_vcf(work / f"in{k}_truth.vcf"),
            bench.read_vcf(work / f"out{k}.vcf"))
        out.append({m: bench.ratio(c) for m, c in counts.items()})
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(bench.WORKLOADS))
    parser.add_argument("--seeds", default="1-50")
    args = parser.parse_args()

    root = Path.cwd()
    harness, worker = bench.build(root)
    work = root / ".bench_work" / "floors"
    try:
        for workload in args.workloads.split(","):
            samples = []
            for seed in parse_seeds(args.seeds):
                samples += sample_accuracy(harness, worker, work, workload,
                                           seed)
            print(f"\n{workload}: {len(samples)} samples, seeds {args.seeds}")
            print(f"  {'metric':16} {'lowest':>8} {'median':>8} "
                  f"{'floor':>6} {'in run.py':>9}")
            for m, floor in bench.WORKLOADS[workload]["floors"].items():
                values = [s[m] for s in samples]
                lowest = min(values)
                print(f"  {m:16} {lowest:8.4f} "
                      f"{statistics.median(values):8.4f} "
                      f"{math.floor((lowest - MARGIN) * 100) / 100:6.2f} "
                      f"{floor:9.2f}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
