#!/usr/bin/env python3
"""Self-test of the Willow benchmark.

Runs every workload's driver on a tiny fleet, untraced and traced, and checks
that the outputs pass, that the traced run reproduced the untraced decisions,
and that every printed metric is declared in BENCHMARK.json with its unit.

    python3 perfbench/tests/test_perfbench.py
"""

import json
import os
import re
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SEED = 3


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace):
    r = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(SEED), "--seconds", "0",
         "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if r.returncode != 0:
        raise AssertionError(f"run.py failed ({r.returncode}):\n{r.stderr}")
    lines = [x for x in r.stdout.splitlines() if x.strip()]
    return json.loads(lines[-2]), json.loads(lines[-1])


class BenchmarkSpec(unittest.TestCase):
    def test_spec_shape(self):
        s = spec()
        self.assertEqual(set(s), {"command", "paths", "run_seconds", "workloads",
                                  "end_to_end", "per_layer"})
        names = [m["name"] for k in ("workloads", "end_to_end", "per_layer")
                 for m in s[k]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        for m in s["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
            self.assertIn(m["better"], ("higher", "lower"))
        setup = [m for m in s["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in s["end_to_end"]))
        for w in s["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])


class TinyWorkloads(unittest.TestCase):
    def check(self, workload):
        s = spec()
        info0, res0 = run(workload, 0)
        info1, res1 = run(workload, 1)
        for info, res, key in ((info0, res0, "end_to_end"),
                               (info1, res1, "per_layer")):
            self.assertTrue(res["correct"], info["failures"])
            self.assertEqual(res["failed"], 0)
            self.assertGreaterEqual(res["attempted"], 1)
            declared = {m["name"]: m["unit"] for m in s[key]}
            printed = {k: v["unit"] for k, v in res["metrics"].items()}
            self.assertEqual(printed, declared)
            self.assertTrue(re.fullmatch(r"[0-9a-f]{16}", info["fingerprint"]))
        # Both modes start from the same untraced run of the same seed.
        self.assertEqual(info0["fingerprint"], info1["fingerprint"])
        for m in s["end_to_end"]:
            self.assertGreater(res0["metrics"][m["name"]]["value"], 0.0,
                               m["name"])

    def test_churn_10k(self):
        self.check("churn_10k")

    def test_settled_10k(self):
        self.check("settled_10k")

    def test_deficit_2k(self):
        self.check("deficit_2k")


if __name__ == "__main__":
    unittest.main()
