#!/usr/bin/env python3
"""End-to-end SARIF conformance test for hybridpt-lint.

Drives the hybridpt-lint binary over the examples corpus and checks that

1. every emitted SARIF log validates against the vendored SARIF 2.1.0
   subset schema (with the `jsonschema` package when available, and with a
   hand-rolled structural validator always, so the test is meaningful on
   machines without jsonschema);
2. the dispatch.ptir log byte-matches the checked-in golden file
   (tests/golden/dispatch.sarif) — the determinism / baseline gate;
3. the JSONL and compare modes behave (parseable lines; exit code 0 and a
   non-negative reduction for a refining policy pair);
4. with --taint-golden: a taint-instrumented provenance run over
   taintflow.ptir byte-matches its golden, and its HPT007 result carries a
   schema-valid codeFlows derivation (source -> container -> sink);
5. with --provenance: every example's `--provenance` log under 2obj+H and
   the cut-shortcut policies cs and S-cs validates too, and under each of
   those policies at least one result in the corpus carries codeFlows.

Usage:
  sarif_schema_test.py --lint BIN --examples DIR --schema FILE --golden FILE
                       [--taint-golden FILE] [--provenance]
                       [--update-golden]
"""

import argparse
import json
import os
import subprocess
import sys

FAILURES = []

# Policies whose --provenance logs check 5 validates: the headline policy
# and the cut-shortcut pair, whose shortcut rules carry their own edge
# justifications.
PROVENANCE_POLICIES = ("2obj+H", "cs", "S-cs")


def fail(msg):
    FAILURES.append(msg)
    print("FAIL: %s" % msg)


def run_lint(lint, args, cwd):
    proc = subprocess.run(
        [lint] + args, cwd=cwd, capture_output=True, text=True, timeout=300
    )
    return proc


def structural_validate(doc, path):
    """Minimal hand-rolled check of the SARIF shape hybridpt-lint emits.

    Mirrors the required/enum constraints of the vendored subset schema so
    the test still bites when the jsonschema package is missing.
    """
    def expect(cond, what):
        if not cond:
            fail("%s: %s" % (path, what))

    def check_location(loc, where):
        phys = loc.get("physicalLocation", {})
        uri = phys.get("artifactLocation", {}).get("uri")
        expect(isinstance(uri, str) and uri, "%s without uri" % where)
        region = phys.get("region")
        if region is not None:
            expect(
                isinstance(region.get("startLine"), int)
                and region["startLine"] >= 1,
                "%s region.startLine must be a positive integer" % where,
            )

    expect(isinstance(doc, dict), "top level is not an object")
    expect(doc.get("version") == "2.1.0", "version is not 2.1.0")
    runs = doc.get("runs")
    expect(isinstance(runs, list) and runs, "runs missing or empty")
    for run in runs or []:
        driver = run.get("tool", {}).get("driver", {})
        expect(isinstance(driver.get("name"), str), "driver.name missing")
        rule_ids = []
        for rule in driver.get("rules", []):
            expect(isinstance(rule.get("id"), str), "rule without id")
            expect(
                isinstance(rule.get("shortDescription", {}).get("text"), str),
                "rule without shortDescription.text",
            )
            level = rule.get("defaultConfiguration", {}).get("level")
            expect(
                level in ("none", "note", "warning", "error"),
                "bad rule level %r" % level,
            )
            rule_ids.append(rule["id"])
        for result in run.get("results", []):
            expect(
                isinstance(result.get("message", {}).get("text"), str),
                "result without message.text",
            )
            expect(
                result.get("ruleId") in rule_ids,
                "result ruleId %r not in rule table" % result.get("ruleId"),
            )
            idx = result.get("ruleIndex")
            if idx is not None:
                expect(
                    0 <= idx < len(rule_ids)
                    and rule_ids[idx] == result.get("ruleId"),
                    "ruleIndex %r does not point at ruleId" % idx,
                )
            expect(
                result.get("level") in ("none", "note", "warning", "error"),
                "bad result level %r" % result.get("level"),
            )
            for loc in result.get("locations", []):
                check_location(loc, "location")
            for flow in result.get("codeFlows", []):
                tfs = flow.get("threadFlows")
                expect(
                    isinstance(tfs, list) and tfs,
                    "codeFlow without threadFlows",
                )
                for tf in tfs or []:
                    steps = tf.get("locations")
                    expect(
                        isinstance(steps, list) and steps,
                        "threadFlow without locations",
                    )
                    for step in steps or []:
                        loc = step.get("location", {})
                        check_location(loc, "threadFlowLocation")
                        expect(
                            isinstance(
                                loc.get("message", {}).get("text"), str
                            ),
                            "flow step without message.text",
                        )


def schema_validate(doc, schema, path):
    try:
        import jsonschema
    except ImportError:
        print("note: jsonschema not installed; structural validator only")
        return
    try:
        jsonschema.validate(doc, schema)
    except jsonschema.ValidationError as e:
        fail("%s: schema violation: %s" % (path, e.message))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--lint", required=True)
    ap.add_argument("--examples", required=True)
    ap.add_argument("--schema", required=True)
    ap.add_argument("--golden", required=True)
    ap.add_argument(
        "--taint-golden",
        help="golden for the taint-instrumented provenance run over "
        "taintflow.ptir (codeFlows coverage); omitted = skip that check",
    )
    ap.add_argument(
        "--provenance",
        action="store_true",
        help="also lint every example with --provenance under %s, "
        "validate each log and require codeFlows under each policy"
        % ", ".join(PROVENANCE_POLICIES),
    )
    ap.add_argument(
        "--update-golden",
        action="store_true",
        help="rewrite the golden file instead of diffing against it",
    )
    args = ap.parse_args()

    with open(args.schema) as f:
        schema = json.load(f)

    examples = sorted(
        name
        for name in os.listdir(args.examples)
        if name.endswith(".ptir")
    )
    if not examples:
        fail("no .ptir programs under %s" % args.examples)

    # 1. Every example emits schema-valid SARIF, plain and (5.) with
    # provenance under each of PROVENANCE_POLICIES.  Run with the examples
    # dir as cwd so artifact URIs are bare file names (machine-independent).
    variants = [(None, [])]
    if args.provenance:
        variants += [
            (p, ["--policy", p, "--provenance"]) for p in PROVENANCE_POLICIES
        ]
    flowed = set()
    for name in examples:
        for policy, extra in variants:
            suffix = " [%s --provenance]" % policy if policy else ""
            label = name + suffix
            proc = run_lint(
                args.lint, ["--format", "sarif"] + extra + [name],
                cwd=args.examples,
            )
            if proc.returncode != 0:
                fail("%s: lint exited %d: %s"
                     % (label, proc.returncode, proc.stderr))
                continue
            try:
                doc = json.loads(proc.stdout)
            except json.JSONDecodeError as e:
                fail("%s: SARIF output is not valid JSON: %s" % (label, e))
                continue
            structural_validate(doc, label)
            schema_validate(doc, schema, label)
            if policy and any(
                r.get("codeFlows")
                for run in doc.get("runs", [])
                for r in run.get("results", [])
            ):
                flowed.add(policy)
    if args.provenance:
        for policy in PROVENANCE_POLICIES:
            if policy not in flowed:
                fail("no --provenance log under %s carries codeFlows" % policy)

    # 2. The dispatch log matches the checked-in golden byte for byte.
    proc = run_lint(
        args.lint,
        ["--format", "sarif", "--policy", "2obj+H", "dispatch.ptir"],
        cwd=args.examples,
    )
    if proc.returncode != 0:
        fail("golden: lint exited %d" % proc.returncode)
    elif args.update_golden:
        with open(args.golden, "w") as f:
            f.write(proc.stdout)
        print("golden updated: %s" % args.golden)
    else:
        with open(args.golden) as f:
            want = f.read()
        if proc.stdout != want:
            fail(
                "golden mismatch for dispatch.ptir; rerun with "
                "--update-golden after auditing the diff"
            )

    # 2b. Taint + provenance: the HPT007 flow over taintflow.ptir is
    # schema-valid, carries a codeFlows derivation, and matches its golden.
    if args.taint_golden:
        proc = run_lint(
            args.lint,
            [
                "--format", "sarif", "--policy", "2obj+H",
                "--taint-spec", "default.taintspec", "--provenance",
                "taintflow.ptir",
            ],
            cwd=args.examples,
        )
        if proc.returncode != 0:
            fail("taint golden: lint exited %d: %s"
                 % (proc.returncode, proc.stderr))
        else:
            try:
                doc = json.loads(proc.stdout)
            except json.JSONDecodeError as e:
                doc = None
                fail("taint golden: output is not valid JSON: %s" % e)
            if doc is not None:
                structural_validate(doc, "taintflow.sarif")
                schema_validate(doc, schema, "taintflow.sarif")
                flows = [
                    r
                    for r in doc["runs"][0].get("results", [])
                    if r.get("ruleId") == "HPT007" and r.get("codeFlows")
                ]
                if not flows:
                    fail("taint golden: no HPT007 result with codeFlows")
            if args.update_golden:
                with open(args.taint_golden, "w") as f:
                    f.write(proc.stdout)
                print("golden updated: %s" % args.taint_golden)
            else:
                with open(args.taint_golden) as f:
                    want = f.read()
                if proc.stdout != want:
                    fail(
                        "golden mismatch for taintflow.ptir; rerun with "
                        "--update-golden after auditing the diff"
                    )

    # 3. JSONL mode emits one parseable object per line.
    proc = run_lint(
        args.lint, ["--format", "jsonl", "dispatch.ptir"], cwd=args.examples
    )
    if proc.returncode != 0:
        fail("jsonl: lint exited %d" % proc.returncode)
    else:
        for line in proc.stdout.splitlines():
            try:
                row = json.loads(line)
            except json.JSONDecodeError as e:
                fail("jsonl: bad line %r: %s" % (line[:80], e))
                continue
            for key in ("rule", "check", "level", "siteKey", "message"):
                if key not in row:
                    fail("jsonl: row missing %r" % key)

    # 4. Compare mode: a refinement must never introduce a may-report.
    proc = run_lint(
        args.lint,
        ["--compare", "2obj+H,S-2obj+H", "dispatch.ptir"],
        cwd=args.examples,
    )
    if proc.returncode != 0:
        fail("compare: lint exited %d (monotonicity violated?)" % proc.returncode)
    elif "monotonicity: ok" not in proc.stdout:
        fail("compare: verdict line missing from output")

    if FAILURES:
        print("%d failure(s)" % len(FAILURES))
        return 1
    print("sarif_schema_test: all checks passed (%d programs)" % len(examples))
    return 0


if __name__ == "__main__":
    sys.exit(main())
