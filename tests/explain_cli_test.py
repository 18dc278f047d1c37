#!/usr/bin/env python3
"""End-to-end tests for the explain CLI (docs/OBSERVABILITY.md,
"Provenance & explanation").

Golden checks: `hybridpt explain --why ... --validate` over two example
programs and one ladder-degraded cell must print byte-identical
derivations to the files in tests/golden/ (the output is deterministic:
fact ids are arena insertion order, which is fixed by the sequential
solve).  Regenerate a golden after auditing a diff:

    build/tools/hybridpt explain --policy 2obj+H \
        --why 'var=Basket::fill/0::a,heap=new Banana@1' --validate \
        examples/programs/factory.ptir > tests/golden/factory.explain.txt

Beyond the goldens: --format json/dot must be well-formed, a query the
policy actually refutes must exit 1 with no derivation, and the ladder
run must land on the expected rung and answer queries from the landed
rung's arena only.

Registered with ctest from tests/CMakeLists.txt; stdlib only.
"""

import argparse
import json
import os
import subprocess
import sys

FAILURES = []

FACTORY_WHY = "var=Basket::fill/0::a,heap=new Banana@1"
DISPATCH_WHY = "var=App::main/0::got,heap=new Circle@1"
LADDER_WHY = "var=Phase16::run/1::p0,heap=new Registry@1121"


def check(cond, msg):
    if not cond:
        FAILURES.append(msg)
    return cond


def run(cmd, timeout=300):
    return subprocess.run(cmd, capture_output=True, text=True,
                          timeout=timeout)


def check_golden(name, actual, golden_path):
    try:
        with open(golden_path) as f:
            expected = f.read()
    except OSError as e:
        check(False, f"{name}: cannot read golden {golden_path}: {e}")
        return
    if actual != expected:
        import difflib
        diff = "".join(difflib.unified_diff(
            expected.splitlines(keepends=True),
            actual.splitlines(keepends=True),
            fromfile=golden_path, tofile=f"{name} (actual)"))
        check(False, f"{name}: output drifted from golden:\n{diff[:2000]}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--hybridpt", required=True)
    ap.add_argument("--lint", default="",
                    help="hybridpt-lint binary; its --why runs the "
                         "malformed-query checks too")
    ap.add_argument("--examples", required=True)
    ap.add_argument("--golden", required=True,
                    help="directory holding *.explain.txt goldens")
    args = ap.parse_args()
    factory = os.path.join(args.examples, "factory.ptir")
    dispatch = os.path.join(args.examples, "dispatch.ptir")

    # Golden derivations over the two example programs.
    for name, prog, why in (("factory", factory, FACTORY_WHY),
                            ("dispatch", dispatch, DISPATCH_WHY)):
        proc = run([args.hybridpt, "explain", "--policy", "2obj+H",
                    "--why", why, "--validate", prog])
        check(proc.returncode == 0,
              f"{name}: explain exited {proc.returncode}: "
              f"{proc.stderr[-500:]}")
        check_golden(name, proc.stdout,
                     os.path.join(args.golden, f"{name}.explain.txt"))

    # --format json: parses, found, premises reference earlier steps,
    # the root is the last (depth-0) step.
    proc = run([args.hybridpt, "explain", "--policy", "2obj+H",
                "--format", "json", "--why", FACTORY_WHY, factory])
    check(proc.returncode == 0, f"json: exited {proc.returncode}")
    try:
        doc = json.loads(proc.stdout)
        check(doc.get("found") is True, "json: found != true")
        steps = doc.get("steps", [])
        check(len(steps) >= 2, "json: fewer than 2 steps")
        emitted = set()
        for s in steps:
            check(all(p in emitted for p in s.get("premises", [])),
                  f"json: step {s.get('fact')} cites an unemitted premise")
            emitted.add(s.get("fact"))
        if steps:
            check(steps[-1].get("depth") == 0, "json: last step not depth 0")
            check(steps[-1].get("fact") == doc.get("root"),
                  "json: last step is not the root")
    except json.JSONDecodeError as e:
        check(False, f"json: bad JSON: {e}")

    # --format dot: a digraph with at least one rule-labelled edge.
    proc = run([args.hybridpt, "explain", "--policy", "2obj+H",
                "--format", "dot", "--why", FACTORY_WHY, factory])
    check(proc.returncode == 0, f"dot: exited {proc.returncode}")
    check(proc.stdout.startswith("digraph"), "dot: not a digraph")
    check("->" in proc.stdout and "label=" in proc.stdout,
          "dot: no labelled edges")

    # Negative query: the selective hybrid proves a cannot reach banana
    # (the paper's motivating precision win), so the query must fail with
    # exit 1 and no derivation — not a bogus tree.
    proc = run([args.hybridpt, "explain", "--policy", "S-2obj+H",
                "--why", FACTORY_WHY, factory])
    check(proc.returncode == 1,
          f"negative: exited {proc.returncode}, want 1")
    check("no derivation" in proc.stdout,
          f"negative: unexpected output: {proc.stdout[-300:]}")

    # Malformed queries: clear message, no derivation attempt — the same
    # parse in hybridpt and hybridpt-lint.
    front_doors = [[args.hybridpt, "explain"]]
    if args.lint:
        front_doors.append([args.lint])
    for door in front_doors:
        for bad in ("var=Basket::fill/0::a",
                    "var=No::such/0::v,heap=new X@1", "frob=1",
                    "var," + FACTORY_WHY):
            proc = run(door + ["--policy", "2obj+H", "--why", bad, factory])
            check(proc.returncode == 1,
                  f"{door[0]}: bad query {bad!r}: exited "
                  f"{proc.returncode}, want 1")

    # The ladder-degraded cell: 2call+H blows a 21000-fact budget on
    # luindex, the ladder walk lands on 1call, and the query is answered
    # (and validated) from the landed rung's arena — the derivation cites
    # 1call's call-site contexts, never the aborted finer attempt's.
    cmd = [args.hybridpt, "explain", "--policy", "2call+H", "--ladder",
           "--max-facts", "21000", "--why", LADDER_WHY, "--validate",
           "luindex"]
    proc = run(cmd)
    check(proc.returncode == 0,
          f"ladder: exited {proc.returncode}: {proc.stderr[-500:]}")
    check("reporting 1call instead" in proc.stderr,
          f"ladder: did not degrade to 1call: {proc.stderr[-300:]}")
    check_golden("luindex_ladder", proc.stdout,
                 os.path.join(args.golden, "luindex_ladder.explain.txt"))

    if FAILURES:
        print(f"FAIL: {len(FAILURES)} check(s):")
        for f in FAILURES:
            print(f"  {f}")
        return 1
    print("OK: explain CLI goldens, formats, parity, and ladder cell pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
