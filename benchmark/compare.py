#!/usr/bin/env python3
"""Records sets of benchmark runs and compares two of them.

    python3 benchmark/compare.py --record A.json [--runs 10] [--first-seed 1]
                                 [--seconds S] [--workloads W ...]
    python3 benchmark/compare.py A.json B.json

--record runs benchmark/run.py (untraced) once per seed for each workload
and stores {workload: [result, ...]}, one result per run as run.py prints
it.  Comparing prints one row per workload and end-to-end metric: each
side's median and quartiles, the change of B's median against A's, and a
verdict under the metric's bound from BENCHMARK.json:

  ok          B's median is no worse than A's by more than the bound
  REGRESSION  B's median is worse than A's by more than the bound
  unresolved  a side's spread (quartile distance over median) is wider
              than the bound, so the runs cannot tell, unless every run of
              B beats every run of A

Quartiles are statistics.quantiles(values, n=4).  Exits 1 when any metric
regressed or a run was incorrect, else 0.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def record(args, spec):
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    runs = {}
    for w in workloads:
        runs[w] = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 w, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"], stdout=subprocess.PIPE, text=True)
            if out.returncode != 0:
                sys.exit(f"compare.py: run.py failed on {w} seed {seed}")
            runs[w].append(json.loads(out.stdout.strip().splitlines()[-1]))
            print(f"{w} seed {seed} done", file=sys.stderr)
    with open(args.record, "w") as f:
        json.dump(runs, f, indent=1)


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric, a, b):
    qa, qb = quartiles(a), quartiles(b)
    lower = metric["better"] == "lower"
    sign = 1 if lower else -1
    change = sign * (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
    spread = max((q[2] - q[0]) / q[1] if q[1] else 0.0 for q in (qa, qb))
    if spread > metric["bound"]:
        b_wins = max(b) < min(a) if lower else min(b) > max(a)
        return qa, qb, change, spread, "ok" if b_wins else "unresolved"
    bad = change > metric["bound"]
    return qa, qb, change, spread, "REGRESSION" if bad else "ok"


def fmt(q):
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def compare(path_a, path_b, spec):
    with open(path_a) as f:
        runs_a = json.load(f)
    with open(path_b) as f:
        runs_b = json.load(f)
    failed = False
    print(f"{'workload':<13} {'metric':<12} {'A median [q1, q3]':<30} "
          f"{'B median [q1, q3]':<30} {'worse by':>9} {'spread':>7} "
          f"{'bound':>6}  verdict")
    for w in [w["name"] for w in spec["workloads"]]:
        if w not in runs_a or w not in runs_b:
            print(f"{w:<13} (missing from one side)")
            continue
        for side, runs in (("A", runs_a[w]), ("B", runs_b[w])):
            bad = [r for r in runs if not r["correct"] or r["failed"]]
            if bad:
                print(f"{w:<13} side {side}: {len(bad)} incorrect run(s)")
                failed = True
        for m in spec["end_to_end"]:
            a = [r["metrics"][m["name"]]["value"] for r in runs_a[w]]
            b = [r["metrics"][m["name"]]["value"] for r in runs_b[w]]
            qa, qb, change, spread, v = verdict(m, a, b)
            failed |= v == "REGRESSION"
            print(f"{w:<13} {m['name']:<12} {fmt(qa):<30} {fmt(qb):<30} "
                  f"{change:>+9.2%} {spread:>7.2%} {m['bound']:>6.0%}  {v}")
    return 1 if failed else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="*", help="A.json B.json to compare")
    ap.add_argument("--record", metavar="OUT", help="record runs into OUT")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--workloads", nargs="+")
    args = ap.parse_args()
    spec = load_spec()
    if args.record:
        record(args, spec)
        return 0
    if len(args.files) != 2:
        ap.error("give two recorded run files, or --record OUT")
    return compare(args.files[0], args.files[1], spec)


if __name__ == "__main__":
    sys.exit(main())
