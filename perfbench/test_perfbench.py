#!/usr/bin/env python3
"""Self-test of the benchmark: every workload completes at a tiny size and
prints the metrics BENCHMARK.json names, and a deliberately wrong expected
value fails every job.

    python3 perfbench/test_perfbench.py
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
WORKLOADS = ("msgpath-64", "lu-4", "lu-4-fault", "ring-256")


def run(workload, trace, *extra):
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "1",
         "--seconds", "0.3", "--trace", str(trace), "--tiny", *extra],
        stdout=subprocess.PIPE, text=True, timeout=600, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


class SelfTest(unittest.TestCase):
    def test_every_workload_completes_at_tiny_size(self):
        with open(SPEC) as f:
            spec = json.load(f)
        for workload in WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    r = run(workload, trace)
                    self.assertTrue(r["correct"], r)
                    self.assertEqual(r["failed"], 0)
                    self.assertGreater(r["attempted"], 0)
                    self.assertEqual(set(r["metrics"]),
                                     {m["name"] for m in spec[section]})
                    for name, m in r["metrics"].items():
                        self.assertIsNotNone(m["value"], name)

    def test_wrong_expected_value_fails_every_job(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                r = run(workload, 1, "--wrong-expected")
                self.assertFalse(r["correct"])
                self.assertEqual(r["failed"], r["attempted"])
                self.assertEqual(r["metrics"]["failed_frac"]["value"], 1.0)


if __name__ == "__main__":
    unittest.main()
