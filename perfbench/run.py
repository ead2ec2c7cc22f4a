#!/usr/bin/env python3
"""End-to-end GPF benchmark: simulated FASTQ in, VCF out.

    python3 perfbench/run.py --workload wgs_30x --seed 1 --seconds 20 --trace 0

Run from the repository root.  It builds perfbench_harness and gpf_worker
from source (into $CARGO_TARGET_DIR or .bench_build), simulates the
workload's inputs from --seed and writes them as FASTA/FASTQ/VCF files,
then runs the user-facing path (load files, build the backend,
core::run_wgs_pipeline, save the VCF) once per child process, over and
over, for --seconds after one warm-up execution.  Every execution's VCF is
checked against the first one's digest and against the simulated truth.

The last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}.  With --trace 0 the metrics are the end-to-end ones,
all from untraced executions; with --trace 1 they are the per-layer ones,
which add one traced execution and single-threaded passes over each
module (see perfbench/README.md).  The exit code is 0 only when every
execution passed its checks.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
THREADS = min(4, os.cpu_count() or 1)
SETUP_REPEAT = 5
WARMUP_EXECUTIONS = 1
CHILD_TIMEOUT_S = 60.0
CHILD_ENV = dict(os.environ)

# Inputs vary per workload; the PipelineConfig is always the one `gpf_tool
# pipeline` uses.  Each run simulates `samples` independent donor samples
# from --seed (sizes below are per sample) and takes them in turn, so one
# run's figures average over several genomes.  The lowcov_* samples are
# larger and fewer: every spilled shuffle block is written with fsync, and
# the block count does not grow with the genome, so larger samples keep
# disk stalls a smaller share of wall time.  `coverage` is the simulator's
# mean depth.  The simulator weights 10 kb regions, so hotspot_skew's 0.1
# is one region in ten, sampled at 20x the weight of the rest: 29x mean is
# 10x outside the hotspot and 200x inside it, which holds about 69% of the
# reads.  Floors are the per-sample accuracy every execution must reach:
# floors.py's lowest per-sample value over seeds 0-100 (lowcov_*: 0-50),
# less 0.10 (the figures are in README.md).
WORKLOADS = {
    "wgs_30x": {
        "samples": 4,
        "sim": {"genome-bp": 100_000, "contigs": 2, "coverage": 30},
        "backend": [],
        "floors": {"snp_recall": 0.73, "snp_precision": 0.86,
                   "indel_recall": 0.54, "indel_precision": 0.80},
    },
    "hotspot_skew": {
        "samples": 4,
        "sim": {"genome-bp": 100_000, "contigs": 2, "coverage": 29,
                "hotspot-fraction": 0.1, "hotspot-multiplier": 20},
        "backend": [],
        "floors": {"snp_recall": 0.60, "snp_precision": 0.86,
                   "indel_recall": 0.46, "indel_precision": 0.80},
    },
    "lowcov_spill": {
        "samples": 2,
        "sim": {"genome-bp": 500_000, "contigs": 4, "coverage": 8},
        "backend": ["--backend", "spill", "--store-budget", "65536"],
        "floors": {"snp_recall": 0.57, "snp_precision": 0.89,
                   "indel_recall": 0.53, "indel_precision": 0.87},
    },
    "lowcov_distributed": {
        "samples": 2,
        "sim": {"genome-bp": 500_000, "contigs": 4, "coverage": 8},
        "backend": ["--backend", "distributed", "--workers", "2"],
        "floors": {"snp_recall": 0.57, "snp_precision": 0.89,
                   "indel_recall": 0.53, "indel_precision": 0.87},
    },
}

# name -> unit.  BENCHMARK.json lists the same names and units.
END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "mbases_per_s": "Mbase/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "snp_recall": "fraction",
    "snp_precision": "fraction",
    "indel_recall": "fraction",
    "indel_precision": "fraction",
}

PROCESSES = ["MyBwaMapping", "MySort", "MyMarkDuplicate", "MyIndelRealign",
             "MyBaseRecalibration", "MyHaplotypeCaller"]
P95_PROCESSES = ["MyBwaMapping", "MyIndelRealign", "MyHaplotypeCaller"]

# Per-layer metrics taken as the median over the untraced executions.
FROM_EXECUTIONS = {
    "formats.load_s": "s",
    "formats.load_mb_per_s": "MB/s",
    "formats.save_s": "s",
    "engine.stages": "count",
    "engine.tasks": "count",
    "engine.compute_s": "s",
    "engine.serialization_s": "s",
    "engine.shuffle_bytes": "bytes",
    "engine.shuffle_records": "count",
    "engine.failed_attempts": "count",
    "engine.speculative_launches": "count",
    "engine.parallel_efficiency": "fraction",
    **{f"core.{p}.wall_s": "s" for p in PROCESSES},
    **{f"core.{p}.task_p95_ms": "ms" for p in P95_PROCESSES},
    "core.final_partitions": "count",
    "exec.backend_start_s": "s",
    "exec.bytes_put": "bytes",
    "exec.bytes_fetched": "bytes",
    "exec.bytes_spilled": "bytes",
    "exec.lineage_recoveries": "count",
    "store.residency_hits": "count",
    "store.residency_misses": "count",
    "store.residency_evictions": "count",
}

# Per-layer metrics from the traced pass (perfbench_harness layers).
FROM_TRACED_PASS = {
    "align.index_build_s": "s",
    "align.pairs": "count",
    "align.busy_s": "s",
    "align.pairs_per_s": "1/s",
    "align.mapped_fraction": "fraction",
    "cleaner.sort_s": "s",
    "cleaner.markdup_s": "s",
    "cleaner.duplicates_marked": "count",
    "cleaner.realign_s": "s",
    "cleaner.reads_considered": "count",
    "cleaner.reads_realigned": "count",
    "cleaner.bqsr_s": "s",
    "caller.find_regions_s": "s",
    "caller.active_regions": "count",
    "caller.assembled_regions": "count",
    "caller.reads_processed": "count",
    "caller.call_s": "s",
    "caller.pairhmm_cells": "count",
    "caller.pairhmm_s": "s",
    "caller.pairhmm_gcups": "GCUPS",
    "compress.encode_mb_per_s": "MB/s",
    "compress.decode_mb_per_s": "MB/s",
    "compress.bytes_per_record": "bytes",
    "trace.overhead_s": "s",
    "trace.program_spans": "count",
}

PER_LAYER = {**FROM_EXECUTIONS, **FROM_TRACED_PASS}

INPUT_FILES = ["ref.fa", "1.fastq", "2.fastq", "known.vcf", "truth.vcf"]


class BenchError(Exception):
    """A failure that ends the run without a result line."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- build ------------------------------------------------------------------

def build(root):
    """Builds the harness and worker; returns (harness, worker) paths."""
    build_dir = (root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
                 / "perfbench")
    cache = build_dir / "CMakeCache.txt"
    if (cache.is_file() and
            f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in cache.read_text()):
        shutil.rmtree(build_dir)  # configured from another checkout
    if not cache.is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_logged(cmd)
    run_logged(["cmake", "--build", str(build_dir), "-j", str(THREADS),
                "--target", "perfbench_harness", "gpf_worker"])
    return (build_dir / "perfbench_harness",
            build_dir / "gpf_src" / "runtime" / "gpf_worker")


def run_logged(cmd):
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=CHILD_ENV)
    if done.returncode != 0:
        raise BenchError(f"command failed ({done.returncode}): {' '.join(cmd)}")


# --- child processes --------------------------------------------------------

def run_child(argv, cwd):
    """Runs one harness child in its own process group and reaps it.

    Returns (exit code, parsed JSON from its stdout or None, rusage).  The
    rusage covers the child and every descendant it reaped (the
    distributed backend's workers).
    """
    out_path = cwd / "child.out"
    with open(out_path, "wb") as out:
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=sys.stderr,
                                env=CHILD_ENV, process_group=0)
    killer = threading.Timer(CHILD_TIMEOUT_S, kill_group, (proc.pid,))
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        kill_group(proc.pid)  # nothing may outlive the execution
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        result = json.loads(out_path.read_text().strip().splitlines()[-1])
    except (ValueError, IndexError):
        result = None
    return proc.returncode, result, usage


def kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


# --- inputs and checks ------------------------------------------------------

def simulate(harness, work, workload, seed, repeat=SETUP_REPEAT):
    samples = WORKLOADS[workload]["samples"]
    argv = [str(harness), "simulate", "--prefix", "in", "--seed", str(seed),
            "--samples", str(samples), "--repeat", str(repeat)]
    for key, value in WORKLOADS[workload]["sim"].items():
        argv += [f"--{key}", str(value)]
    code, result, _ = run_child(argv, work)
    if code != 0 or result is None:
        raise BenchError(f"simulate failed with exit code {code}")
    digest = hashlib.sha256()
    for k in range(samples):
        for name in INPUT_FILES:
            digest.update((work / f"in{k}_{name}").read_bytes())
    # The fastest repeat: other load on a shared machine only ever adds
    # time.
    result["setup_s"] = min(
        result[f"setup_s.{i}"] for i in range(repeat))
    result["input_digest"] = digest.hexdigest()
    return result


def read_vcf(path):
    """(contig, pos, ref, alt) per record."""
    records = []
    with open(path) as f:
        for line in f:
            if line.startswith("#") or not line.strip():
                continue
            fields = line.split("\t")
            records.append((fields[0], int(fields[1]), fields[3], fields[4]))
    return records


def is_snp(v):
    return len(v[2]) == 1 and len(v[3]) == 1


def accuracy_counts(truth, calls, indel_slack=16):
    """(matched, total) for recall and precision per variant type, scored
    as the variant_discovery example does: SNPs must match exactly, indels
    must sit within `indel_slack` bases of an indel on the same contig."""
    def matcher(pool):
        snps = {v for v in pool if is_snp(v)}
        indels = {}
        for v in pool:
            if not is_snp(v):
                indels.setdefault(v[0], []).append(v[1])

        def match(v):
            if is_snp(v):
                return v in snps
            return any(abs(p - v[1]) <= indel_slack
                       for p in indels.get(v[0], ()))
        return match

    in_calls, in_truth = matcher(calls), matcher(truth)
    out = {}
    for kind, pick in (("snp", is_snp), ("indel", lambda v: not is_snp(v))):
        t = [v for v in truth if pick(v)]
        c = [v for v in calls if pick(v)]
        out[f"{kind}_recall"] = (sum(map(in_calls, t)), len(t))
        out[f"{kind}_precision"] = (sum(map(in_truth, c)), len(c))
    return out


def ratio(counts):
    matched, total = counts
    return matched / total if total else 0.0


# --- the run ----------------------------------------------------------------

def execution_argv(harness, worker, workload, work, command, sample):
    return ([str(harness), command, f"in{sample}_ref.fa",
             f"in{sample}_1.fastq", f"in{sample}_2.fastq",
             f"in{sample}_known.vcf", f"out{sample}.vcf",
             "--threads", str(THREADS), "--worker-bin", str(worker),
             "--spill-dir", str(work / "spill")]
            + WORKLOADS[workload]["backend"])


def fresh_spill_dir(work):
    shutil.rmtree(work / "spill", ignore_errors=True)
    (work / "spill").mkdir()


def run(args, root):
    if not (root / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no GPF sources under {root / 'src'}; run from the "
                         "repository root")
    # Compilers and the program put temporary files under TMPDIR; keep
    # them inside the checkout.
    tmp = root / ".bench_work" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    CHILD_ENV["TMPDIR"] = str(tmp)
    harness, worker = build(root)
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(args, harness, worker, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


class Executions:
    """Runs and checks executions; keeps the timed ones per sample."""

    def __init__(self, args, harness, worker, work):
        self.args, self.harness, self.worker, self.work = (
            args, harness, worker, work)
        self.floors = WORKLOADS[args.workload]["floors"]
        self.attempted = self.failed = 0
        self.samples = WORKLOADS[args.workload]["samples"]
        self.digests = [None] * self.samples
        self.counts = [None] * self.samples
        self.timed = [[] for _ in range(self.samples)]

    def run(self, k, timed):
        fresh_spill_dir(self.work)
        self.attempted += 1
        argv = execution_argv(self.harness, self.worker, self.args.workload,
                              self.work, "execute", k)
        code, result, usage = run_child(argv, self.work)
        if code != 0 or result is None:
            return self.fail(k, f"exit code {code}")
        out = self.work / f"out{k}.vcf"
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        if self.digests[k] is None:
            self.digests[k] = digest
            self.counts[k] = accuracy_counts(
                read_vcf(self.work / f"in{k}_truth.vcf"), read_vcf(out))
            log(f"sample {k}: {result['variants']:.0f} variants, sha256 "
                f"{digest}, " + ", ".join(f"{m} {ratio(c):.4f}"
                                          for m, c in self.counts[k].items()))
            low = [m for m, floor in self.floors.items()
                   if ratio(self.counts[k][m]) < floor]
            if low:
                return self.fail(k, "accuracy below floor: " + ", ".join(low))
        elif digest != self.digests[k]:
            return self.fail(k, "VCF digest differs from the first execution")
        result["cpu_s"] = usage.ru_utime + usage.ru_stime
        result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
        log(f"execution {self.attempted} (sample {k}"
            f"{'' if timed else ', warm-up'}): wall {result['wall_s']:.3f} s, "
            f"cpu {result['cpu_s']:.3f} s, rss {result['peak_rss_mb']:.1f} MB")
        if timed:
            self.timed[k].append(result)

    def fail(self, k, why):
        self.failed += 1
        log(f"execution {self.attempted} (sample {k}) failed: {why}")

    def mean_median(self, key):
        """Median over each executed sample's timed executions, averaged
        over those samples: the per-execution figure for this workload."""
        return statistics.fmean(statistics.median(r[key] for r in runs)
                                for runs in self.timed if runs)

    def pooled_accuracy(self):
        return {m: ratio((sum(c[m][0] for c in self.counts),
                          sum(c[m][1] for c in self.counts)))
                for m in self.floors}


def measure(args, harness, worker, work):
    inputs = simulate(harness, work, args.workload, args.seed)
    log(f"inputs: seed {args.seed}, {WORKLOADS[args.workload]['samples']} "
        f"samples, {inputs['pairs']:.0f} "
        f"pairs, {inputs['truth_snps']:.0f} SNPs + "
        f"{inputs['truth_indels']:.0f} indels, sha256 "
        f"{inputs['input_digest']}")
    ex = Executions(args, harness, worker, work)
    for _ in range(WARMUP_EXECUTIONS):
        ex.run(0, timed=False)
    # Untraced executions take the samples in turn, each at least once,
    # until the seconds are up.  With --trace 1 the traced pass on sample 0
    # comes first, inside the seconds, and only sample 0 is executed after
    # it, so that every per-layer figure describes the same sample.
    started = time.monotonic()
    layers = traced_pass(ex) if args.trace and ex.failed == 0 else None
    samples = [0] if args.trace else list(range(ex.samples))
    executed = 0
    while ex.failed == 0 and (executed < len(samples) or
                              time.monotonic() - started < args.seconds):
        ex.run(samples[executed % len(samples)], timed=True)
        executed += 1

    metrics = {}
    if ex.failed == 0:
        wall = ex.mean_median("wall_s")
        if args.trace:
            metrics = {k: ex.mean_median(k) for k in FROM_EXECUTIONS}
            layers["trace.overhead_s"] = layers["trace.traced_wall_s"] - wall
            metrics.update({k: layers[k] for k in FROM_TRACED_PASS})
        else:
            metrics = {
                "wall_s": wall,
                "cpu_s": ex.mean_median("cpu_s"),
                "mbases_per_s": inputs["bases"] / ex.samples / 1e6 / wall,
                "peak_rss_mb": ex.mean_median("peak_rss_mb"),
                "setup_s": inputs["setup_s"],
                **ex.pooled_accuracy(),
            }
    units = PER_LAYER if args.trace else END_TO_END
    correct = ex.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": ex.attempted,
        "failed": ex.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def traced_pass(ex):
    """The per-layer pass on sample 0; counts as one more execution, and
    its VCF must match the warm-up's."""
    trace_out = ex.work.parent / f"{ex.args.workload}.trace.json"
    argv = execution_argv(ex.harness, ex.worker, ex.args.workload, ex.work,
                          "layers", 0) + ["--trace-out", str(trace_out)]
    fresh_spill_dir(ex.work)
    ex.attempted += 1
    code, result, _ = run_child(argv, ex.work)
    if code != 0 or result is None:
        ex.fail(0, f"traced pass exit code {code}")
        return None
    digest = hashlib.sha256((ex.work / "out0.vcf").read_bytes()).hexdigest()
    if digest != ex.digests[0]:
        ex.fail(0, "traced pass VCF digest differs from the first execution")
        return None
    log(f"trace written to {trace_out}")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        return run(args, Path.cwd())
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
