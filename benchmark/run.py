#!/usr/bin/env python3
"""Builds hybridpt-bench from source and runs one benchmark workload.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root or anywhere else; the build tree and every
output go to .bench_build/ at the root.  The program's own `name value unit`
lines are passed through, and the last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer
list.  Exits nonzero, printing no result, when the build or the run fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the hybridpt sources are not in this checkout")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "benchmark"),
                      "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j4",
                  "--target", "hybridpt-bench", "hybridpt-serve"])
    for cmd in steps:
        out = subprocess.run(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
        if out.returncode:
            sys.stderr.write(out.stdout)
            fail("build failed: " + " ".join(cmd))


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload '{args.workload}'")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()
    out_dir = os.path.join(BUILD, "results")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}.seed{args.seed}")
    result_path = stem + ".json"
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [os.path.join(BUILD, "hybridpt-bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--json", result_path,
           "--serve-bin", os.path.join(BUILD, "tools", "hybridpt-serve"),
           "--expected-dir", os.path.join(ROOT, "benchmark", "expected"),
           "--commit", commit()]
    if args.trace:
        cmd += ["--trace-out", stem + ".trace.jsonl"]

    # A process group of its own, so a timeout takes the daemon child too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        lines, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"hybridpt-bench did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(lines)
    if not os.path.exists(result_path):
        fail(f"hybridpt-bench exited {proc.returncode} without a result")
    with open(result_path) as f:
        result = json.load(f)

    section = result.get("per_layer" if args.trace else "end_to_end", {})
    metrics = {}
    for m in wanted:
        got = section.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"metric {m['name']} ({m['unit']}) missing from the result")
        metrics[m["name"]] = got
    print(json.dumps({
        "correct": bool(result["correct"]) and proc.returncode == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
