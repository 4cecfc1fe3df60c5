#!/usr/bin/env python3
"""Smoke tests of the benchmark itself: one short run of each workload in
each mode must pass every output check and print every metric that
BENCHMARK.json names, with its unit.

Run from the repository root (builds the benchmark first if needed):

  python3 perfbench/test_perfbench.py
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0.1", "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600, cwd=ROOT)
    return out.returncode, out.stdout.splitlines()


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        code, lines = run(workload, trace)
        self.assertEqual(code, 0)
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], "\n".join(lines[:-1]))
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)

        declared = spec()["per_layer" if trace else "end_to_end"]
        got = result["metrics"]
        self.assertEqual([m["name"] for m in declared], list(got))
        printed = {line.split()[1] for line in lines if line.startswith("metric ")}
        for m in declared:
            self.assertEqual(got[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIn(m["name"], printed)
            if not trace:
                self.assertGreater(got[m["name"]]["value"], 0, m["name"])
        self.assertTrue(any(line.startswith(f"fingerprint workload={workload} ")
                            for line in lines))


def add_cases():
    for workload in [w["name"] for w in spec()["workloads"]]:
        for trace in (0, 1):
            name = f"test_{workload.replace('-', '_')}_trace{trace}"
            setattr(SmokeTest, name,
                    lambda self, w=workload, t=trace: self.check(w, t))


add_cases()

if __name__ == "__main__":
    unittest.main()
