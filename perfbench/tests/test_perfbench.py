"""Self-tests of the benchmark itself.

    python3 -m unittest discover -s perfbench/tests -v

Run from the repository root.  The determinism tests build the harness
(as run.py does), then simulate and execute lowcov_spill's inputs, so they
take about a minute.
"""

import json
import re
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run as bench  # noqa: E402

ROOT = HERE.parent.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


class MetricTables(unittest.TestCase):
    def test_every_metric_has_a_valid_name_and_a_unit(self):
        for table in (bench.END_TO_END, bench.PER_LAYER):
            for name, unit in table.items():
                self.assertIsNotNone(NAME.fullmatch(name), name)
                self.assertLessEqual(len(name), 64)
                self.assertTrue(unit, name)
                self.assertRegex(unit, r"^[A-Za-z0-9_/%.-]{1,16}$")

    def test_benchmark_json_lists_the_same_metrics_and_workloads(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         bench.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         bench.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(bench.WORKLOADS))
        self.assertEqual(spec["paths"], ["perfbench"])

    def test_per_layer_metrics_are_split_between_the_two_sources(self):
        self.assertFalse(set(bench.FROM_EXECUTIONS) &
                         set(bench.FROM_TRACED_PASS))


class Accuracy(unittest.TestCase):
    def test_snps_match_exactly_and_indels_within_the_slack(self):
        truth = [("c1", 100, "A", "G"), ("c1", 200, "A", "T"),
                 ("c1", 500, "AC", "A"), ("c2", 50, "G", "GTT")]
        calls = [("c1", 100, "A", "G"),     # SNP hit
                 ("c1", 200, "A", "C"),     # wrong allele: SNP miss
                 ("c1", 510, "ACG", "A"),   # indel 10 bases away: hit
                 ("c2", 90, "T", "TA")]     # indel 40 bases away: miss
        counts = bench.accuracy_counts(truth, calls)
        self.assertEqual(counts["snp_recall"], (1, 2))
        self.assertEqual(counts["snp_precision"], (1, 2))
        self.assertEqual(counts["indel_recall"], (1, 2))
        self.assertEqual(counts["indel_precision"], (1, 2))
        self.assertEqual(bench.ratio((0, 0)), 0.0)


class Determinism(unittest.TestCase):
    """Same seed, same inputs and counts; another seed, other inputs."""

    WORKLOAD = "lowcov_spill"
    COUNTS = ["align.pairs", "caller.active_regions"]

    @classmethod
    def setUpClass(cls):
        cls.harness, cls.worker = bench.build(ROOT)
        (ROOT / ".bench_work").mkdir(exist_ok=True)
        cls.tmp = Path(tempfile.mkdtemp(prefix="selftest-",
                                        dir=ROOT / ".bench_work"))

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def workdir(self, name):
        work = self.tmp / name
        work.mkdir()
        return work

    def digest(self, seed, name):
        return bench.simulate(self.harness, self.workdir(name), self.WORKLOAD,
                              seed)["input_digest"]

    def counts(self, seed, name):
        work = self.workdir(name)
        bench.simulate(self.harness, work, self.WORKLOAD, seed)
        argv = bench.execution_argv(self.harness, self.worker, self.WORKLOAD,
                                    work, "execute", 0)
        bench.fresh_spill_dir(work)
        code, executed, _ = bench.run_child(argv, work)
        self.assertEqual(code, 0)
        argv = bench.execution_argv(self.harness, self.worker, self.WORKLOAD,
                                    work, "layers", 0)
        argv += ["--trace-out", str(work / "trace.json")]
        bench.fresh_spill_dir(work)
        code, layers, _ = bench.run_child(argv, work)
        self.assertEqual(code, 0)
        out = {k: layers[k] for k in self.COUNTS}
        out["engine.shuffle_bytes"] = executed["engine.shuffle_bytes"]
        out["vcf"] = (work / "out0.vcf").read_bytes()
        return out

    def test_input_digest_follows_the_seed(self):
        first = self.digest(11, "a")
        self.assertEqual(first, self.digest(11, "b"))
        self.assertNotEqual(first, self.digest(12, "c"))

    def test_counts_follow_the_seed(self):
        first = self.counts(11, "d")
        self.assertGreater(first["align.pairs"], 0)
        self.assertGreater(first["engine.shuffle_bytes"], 0)
        self.assertGreater(first["caller.active_regions"], 0)
        self.assertEqual(first, self.counts(11, "e"))


if __name__ == "__main__":
    unittest.main()
