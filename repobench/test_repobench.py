#!/usr/bin/env python3
"""The benchmark's own tests, on reduced products (--smoke).

    python3 repobench/test_repobench.py

* every workload, untraced and traced, emits exactly the metric names and
  units BENCHMARK.json lists, passes its correctness gate, and stamps its
  result;
* each correctness check trips when its expected value is perturbed, so a
  zero failure count is not vacuous;
* the exact counts repeat across runs of one seed.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["protocol", "materialize", "distributed", "service"]


def run(workload, trace=0, seed=1, perturb=""):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace), "--smoke"]
    if perturb:
        cmd += ["--perturb", perturb]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 3:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                             f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    return (json.loads(lines[-3])["repobench"], lines[-2],
            json.loads(lines[-1]))


class Benchmark(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_every_metric_is_emitted_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in self.spec[key]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    stamp, verdict, result = run(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"],
                                    stamp.get("check_failures"))
                    self.assertEqual(verdict, "!!PASSED!!")
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    got = {name: m["unit"]
                           for name, m in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    for field in ("metadata", "nproc", "llc_bytes", "product",
                                  "working_set_bytes_computed", "counts"):
                        self.assertIn(field, stamp)
                    if trace:
                        self.assertTrue(os.path.isfile(
                            os.path.join(ROOT, stamp["trace_file"])))
                    else:
                        self.assertIn("percentile", stamp["job_s_tail"])

    def test_each_gate_trips_when_its_expectation_is_perturbed(self):
        cases = [("protocol", "tau"), ("protocol", "verdict"),
                 ("protocol", "counts"), ("materialize", "tau"),
                 ("materialize", "records"), ("distributed", "comparable"),
                 ("service", "replay")]
        for workload, check in cases:
            with self.subTest(workload=workload, check=check):
                stamp, verdict, result = run(workload, perturb=check)
                self.assertFalse(result["correct"])
                self.assertTrue(verdict.startswith("FAILED"), verdict)
                self.assertGreater(result["failed"], 0)
                self.assertTrue(any(m.startswith(check)
                                    for m in stamp["check_failures"]),
                                stamp["check_failures"])
                if "ok_ratio" in result["metrics"]:
                    self.assertLess(result["metrics"]["ok_ratio"]["value"], 1)

    def test_exact_counts_repeat_across_runs_of_one_seed(self):
        first, _, a = run("protocol", trace=1, seed=5)
        second, _, b = run("protocol", trace=1, seed=5)
        self.assertTrue(a["correct"] and b["correct"])
        self.assertEqual(first["counts"], second["counts"])
        for name in ("kron.entries", "validate.wedge_checks",
                     "triangle.wedge_checks", "validate.shards",
                     "runner.units"):
            self.assertIn(name, first["counts"])
            self.assertEqual(a["metrics"][name]["value"],
                             b["metrics"][name]["value"])


if __name__ == "__main__":
    unittest.main(verbosity=2)
