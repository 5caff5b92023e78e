#!/usr/bin/env python3
"""The benchmark's own tests.

Runs the short mode of every workload, untraced and traced, through run.py
and checks that:
  - every correctness check passed (exit 0, "correct": true, no failures);
  - the last stdout line is the result object with exactly the keys
    correct/attempted/failed/metrics;
  - the untraced run prints exactly the end_to_end metrics of
    BENCHMARK.json, and the traced run exactly the per_layer metrics, each
    with the unit BENCHMARK.json gives it and a finite value, and no
    end-to-end value is 0.

Run from the repository root (takes a few minutes; the first run builds):

    python3 perfbench/test_perfbench.py
"""

import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--short"],
        capture_output=True, text=True, cwd=ROOT, timeout=900)
    lines = proc.stdout.strip().splitlines()
    return proc, json.loads(lines[-1]) if lines else None


class ShortWorkloads(unittest.TestCase):
    def check(self, workload, trace, declared):
        proc, result = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in declared}
        got = result["metrics"]
        self.assertEqual(sorted(got), sorted(want))
        for name, metric in got.items():
            self.assertEqual(metric["unit"], want[name], name)
            self.assertTrue(math.isfinite(metric["value"]), name)
            if not trace:  # spreads are read relative to the median
                self.assertNotEqual(metric["value"], 0, name)

    def test_workloads(self):
        names = [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(names, ["debug", "emulate"])
        for workload in names:
            with self.subTest(workload=workload, trace=0):
                self.check(workload, 0, SPEC["end_to_end"])
            with self.subTest(workload=workload, trace=1):
                self.check(workload, 1, SPEC["per_layer"])


if __name__ == "__main__":
    unittest.main()
