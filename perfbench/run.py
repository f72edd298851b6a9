#!/usr/bin/env python3
"""Builds and runs the perfbench benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree. The benchmark binary is built from source
(perfbench/CMakeLists.txt, which compiles ../src) into $CARGO_TARGET_DIR,
or .bench_build when that is unset. Build output goes to stderr. The
thread team is sized per workload (see team_size).

Stdout gets an "env" line, a "breakdown" line (traced runs) or a
"not_gated" line (the medians and rates BENCHMARK.json does not gate),
and, last, the result: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end list; with --trace 1 its per_layer
list, where a layer a workload does not exercise reads 0. A traced run
also calibrates host bandwidth in a process of its own, so the calibration
array never shows in the workload's peak_rss_mb.

--plant-wrong-reference [fields|reduction|all|error] corrupts the solver
fields, the solver reduction or every reference (serve digests too) before
comparison, or throws inside every solver job; the benchmark's own test
uses it to check that wrong and failing results count as failed.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def jobs():
    return max(1, min(4, len(os.sched_getaffinity(0))))


def build(bdir):
    """Configures and builds the binary; returns its path or None."""
    out = os.path.join(bdir, "perfbench")
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    compile_ = ["cmake", "--build", out, "--target", "perfbench", "-j", str(jobs())]
    for step in (configure, compile_):
        try:
            rc = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build step failed: {e}")
            return None
        if rc != 0:
            log(f"build step failed ({rc}): {' '.join(step)}")
            return None
    return os.path.join(out, "perfbench")


def team_size(workload):
    """airfoil_tiled runs a team of nproc (at most 4); every other workload
    a team of one. hydra_colored's colored plans wait at every color
    barrier for whichever member the host delayed, which made its timings
    bimodal across seeds with teams of 2 to 4 (README.md, "Team size")."""
    return min(4, len(os.sched_getaffinity(0))) if workload == "airfoil_tiled" else 1


def child_env(workload):
    """The process environment minus every OPAL_*/APL_* knob, with the
    workload's thread team."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("OPAL_", "APL_"))}
    env["OPAL_NUM_THREADS"] = str(team_size(workload))
    return env


def run_binary(binary, workload, args, workdir):
    cmd = [binary, "--workload", workload] + args + ["--workdir", workdir]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           env=child_env(workload), timeout=RUN_TIMEOUT_S, text=True)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"benchmark binary failed: {e}")
        return None
    if p.returncode != 0:
        log(f"benchmark binary exited {p.returncode}: {' '.join(cmd)}")
        return None
    lines = [l for l in p.stdout.splitlines() if l.strip()]
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError) as e:
        log(f"benchmark binary printed no result: {e}")
        return None


def source_digest():
    """sha256 over the library and benchmark sources (the checkout may not
    be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_commit():
    try:
        p = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if p.returncode != 0:
            return None
        return p.stdout.strip() or None
    except OSError:
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--plant-wrong-reference", nargs="?", const="all",
                    choices=("fields", "reduction", "all", "error"))
    a = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if a.workload not in names:
        log(f"unknown workload '{a.workload}' (known: {', '.join(names)})")
        return 2

    bdir = build_dir()
    binary = build(bdir)
    if binary is None:
        return 1

    workdir = os.path.join(bdir, f"work-{os.getpid()}")
    args = ["--seed", str(a.seed), "--seconds", repr(a.seconds), "--trace", str(a.trace)]
    if a.plant_wrong_reference:
        args += ["--plant-wrong-reference", a.plant_wrong_reference]
    try:
        res = run_binary(binary, a.workload, args, workdir)
        cal = None
        if res is not None and a.trace:
            cal = run_binary(binary, "host_calibration",
                             ["--seed", "0", "--seconds", "1", "--trace", "0"], workdir)
            if cal is None:
                res = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if res is None:
        return 1

    got = dict(res["metrics"])
    env = dict(res["env"])
    if cal is not None:
        got.update(cal["metrics"])
        # Only the calibration's own keys: the run's seed, workload and
        # seconds stay the workload's.
        env.update({k: v for k, v in cal["env"].items() if k not in env})
        stream = got["perf.host_stream_gbs"]["value"]
        for fam in ("op2", "ops"):
            gbs = got.get(f"{fam}.achieved_gbs", {"value": 0.0})["value"]
            got[f"{fam}.bw_fraction"] = {"value": gbs / stream if stream > 0 else 0.0,
                                         "unit": "fraction"}
    env["git_commit"] = git_commit()
    env["source_sha256"] = source_digest()
    wanted = spec["per_layer"] if a.trace else spec["end_to_end"]
    print(json.dumps({"env": env}))
    if a.trace:
        print(json.dumps({"breakdown": res["breakdown"]}))
    else:
        # Reported for reading, not gated: on a host whose speed changes
        # for seconds at a time these medians, p90s and rates spread too
        # far between runs (see README.md, "Gated statistics").
        listed = {m["name"] for m in spec["end_to_end"]} | {m["name"] for m in spec["per_layer"]}
        print(json.dumps({"not_gated": {k: v for k, v in got.items() if k not in listed}}))

    metrics = {}
    complete = True
    for m in wanted:
        name = m["name"]
        if name in got:
            value = got[name]["value"]
            if got[name]["unit"] != m["unit"]:
                log(f"{name}: unit {got[name]['unit']} != {m['unit']}")
                complete = False
        elif a.trace:
            value = 0.0  # a layer this workload does not exercise
        else:
            log(f"missing end-to-end metric {name}")
            value, complete = 0.0, False
        complete = complete and math.isfinite(value)
        metrics[name] = {"value": value, "unit": m["unit"]}

    print(json.dumps({
        "correct": complete and res["failed"] == 0 and res["attempted"] > 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
