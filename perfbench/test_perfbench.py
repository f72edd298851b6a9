#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/test_perfbench.py

Builds the benchmark (through run.py) and checks, on every workload:
  - the output contract: the last line holds exactly correct, attempted,
    failed and metrics, and the metrics are BENCHMARK.json's lists;
  - failure accounting: with a planted wrong reference every iteration or
    job fails, so failed == attempted and ok_frac reads 0. On the solver
    workloads the fields and the reduction are planted one at a time, so
    each check is shown to fail on its own, and a planted exception in
    every job is counted the same way;
  - traced counts (tiles, rounds, colors, flushes, messages, plan-cache
    hits and misses, checkpoints) repeat exactly between two traced runs
    with the same seed.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

COUNTS = [
    "op2.bytes_per_iter", "op2.colors_per_iter", "op2.chain_flushes_per_iter",
    "op2.tiles_per_iter", "op2.rounds_per_iter", "op2.verbatim_chains",
    "ops.tiles_per_iter", "ops.chain_flushes_per_iter",
    "io.ckpt_per_job", "io.ckpt_bytes_per_job", "io.plan_cache_hits",
    "io.plan_cache_misses", "mpisim.messages_per_job", "mpisim.bytes_per_job",
]


def run(workload, seed=3, seconds=1, trace=0, *extra):
    p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
                        *extra], stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(p.stdout.splitlines()[-1])


class PerfbenchTest(unittest.TestCase):
    def test_output_contract(self):
        for w in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w, trace=trace):
                    res = run(w, trace=trace)
                    self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in SPEC[key]}
                    self.assertEqual({k: v["unit"] for k, v in res["metrics"].items()}, want)

    def test_planted_reference_fails_everything(self):
        for w in WORKLOADS:
            plants = ["all"] if w == "serve_mix" else ["fields", "reduction", "error"]
            for plant in plants:
                with self.subTest(workload=w, plant=plant):
                    res = run(w, 3, 1, 0, "--plant-wrong-reference", plant)
                    self.assertFalse(res["correct"])
                    self.assertGreaterEqual(res["attempted"], 1)
                    self.assertEqual(res["failed"], res["attempted"])  # failed_frac == 1
                    self.assertEqual(res["metrics"]["ok_frac"]["value"], 0)

    def test_traced_counts_repeat(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a = run(w, 5, 2, 1)["metrics"]
                b = run(w, 5, 2, 1)["metrics"]
                for name in COUNTS:
                    self.assertEqual(a[name]["value"], b[name]["value"], name)


if __name__ == "__main__":
    unittest.main()
