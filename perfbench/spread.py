#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload <name> [--runs 10] [--seconds S] [--first-seed 1]

Runs perfbench/run.py once per seed (first-seed .. first-seed+runs-1) and
prints, per end-to-end metric, the median of the runs, the quartiles as
statistics.quantiles(values, n=4) gives them, and the spread: the
interquartile distance as a share of the median. A metric is steady when
its spread stays below a third of its bound in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    a = ap.parse_args()

    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(a.first_seed, a.first_seed + a.runs):
        p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", a.workload,
                            "--seed", str(seed), "--seconds", str(a.seconds), "--trace", "0"],
                           stdout=subprocess.PIPE, text=True, check=True)
        res = json.loads(p.stdout.splitlines()[-1])
        if not res["correct"]:
            print(f"seed {seed}: incorrect result {res}", file=sys.stderr)
            return 1
        for name, m in res["metrics"].items():
            values[name].append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
              flush=True)

    print(f"{'metric':20} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else 0.0
        flag = "" if spread < m["bound"] / 3 else ("  (over bound/3)" if spread < m["bound"] else "  OVER BOUND")
        print(f"{m['name']:20} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} {m['bound']:6.2f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
