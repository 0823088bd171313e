#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload, untraced and traced, at tiny
sizes. Each run must pass its output checks and print exactly the metrics
BENCHMARK.json names, each with its declared unit.

    python3 perfbench/test_smoke.py
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise AssertionError(f"{workload} trace {trace} exited {out.returncode}:\n"
                             f"{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


class Smoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check(self, trace):
        declared = {m["name"]: m["unit"]
                    for m in self.spec["per_layer" if trace else "end_to_end"]}
        for workload in (w["name"] for w in self.spec["workloads"]):
            with self.subTest(workload=workload, trace=trace):
                result = run(workload, trace)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                printed = {name: m["unit"] for name, m in result["metrics"].items()}
                self.assertEqual(printed, declared)
                for name, m in result["metrics"].items():
                    self.assertIsInstance(m["value"], (int, float), name)
                    if not trace:
                        self.assertGreater(m["value"], 0, name)

    def test_end_to_end_metrics(self):
        self.check(0)

    def test_per_layer_metrics(self):
        self.check(1)


if __name__ == "__main__":
    unittest.main()
