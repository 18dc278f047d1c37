#!/usr/bin/env python3
"""The committed evaluation record and the document generated from it.

BENCH_table1.json is table1_main's record of the whole policy matrix, and
EXPERIMENTS.md carries tools/paper_report.py's rendering of it between
`<!-- paper_report: NAME -->` markers.  These tests keep both honest:

- the marked blocks of EXPERIMENTS.md equal the report over the committed
  record byte for byte, and a record with one may-fail cast count changed
  no longer matches;
- a live table1_main run on luindex and antlr reproduces every
  deterministic column and telemetry counter of the committed cells
  (tools/check_bench_regression.py with its time gate switched off), so a
  solver change cannot leave the record, and through it the document,
  stale.

Run standalone (`python3 tests/paper_report_test.py --table1 BIN`) or
under pytest; without --table1 the live check is skipped.
"""

import copy
import json
import os
import re
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.normpath(os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir))
RECORD = os.path.join(REPO_ROOT, "BENCH_table1.json")
EXPERIMENTS = os.path.join(REPO_ROOT, "EXPERIMENTS.md")
REPORT = os.path.join(REPO_ROOT, "tools", "paper_report.py")
BENCH_CHECK = os.path.join(REPO_ROOT, "tools", "check_bench_regression.py")
TABLE1_BIN = os.environ.get("HYBRIDPT_TABLE1_BIN", "")
LIVE_BENCHMARKS = ["luindex", "antlr"]

BLOCK = re.compile(r"^<!-- paper_report: (\S+) -->\n.*?"
                   r"^<!-- /paper_report: \1 -->\n", re.M | re.S)


def load_record():
    with open(RECORD) as f:
        return json.load(f)


def write_json(doc):
    fd, path = tempfile.mkstemp(suffix=".json")
    with os.fdopen(fd, "w") as f:
        json.dump(doc, f)
    return path


def report(record_path):
    proc = subprocess.run([sys.executable, REPORT, record_path],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def doc_mismatch(record_path):
    """Why EXPERIMENTS.md's generated blocks differ from the report over
    \\p record_path; None when they are equal byte for byte."""
    with open(EXPERIMENTS) as f:
        doc_blocks = [m.group(0) for m in BLOCK.finditer(f.read())]
    text = report(record_path)
    if "\n".join(doc_blocks) == text:
        return None
    want = [m.group(0) for m in BLOCK.finditer(text)]
    for got, exp in zip(doc_blocks, want):
        if got != exp:
            import difflib
            return "".join(list(difflib.unified_diff(
                got.splitlines(True), exp.splitlines(True),
                "EXPERIMENTS.md", "paper_report.py"))[:40])
    return "EXPERIMENTS.md has %d generated blocks, the report %d" % (
        len(doc_blocks), len(want))


def test_experiments_md_equals_the_report():
    why = doc_mismatch(RECORD)
    assert why is None, ("EXPERIMENTS.md is stale; regenerate its marked "
                         "blocks with tools/paper_report.py "
                         "BENCH_table1.json:\n" + why)


def test_a_changed_cast_count_fails_the_document_check():
    record = load_record()
    for cell in record["cells"]:
        if (cell["benchmark"], cell["policy"]) == ("bloat", "S-2obj+H"):
            cell["may_fail_casts"] += 1
            break
    else:
        assert False, "the record has no bloat/S-2obj+H cell"
    path = write_json(record)
    try:
        assert doc_mismatch(path) is not None, (
            "a changed may_fail_casts went unnoticed")
    finally:
        os.unlink(path)


def bench_check(baseline, candidate):
    return subprocess.run(
        [sys.executable, BENCH_CHECK, baseline, candidate, "--threshold",
         "inf"], capture_output=True, text=True, timeout=60)


def test_a_live_run_reproduces_the_committed_cells():
    table1 = TABLE1_BIN if TABLE1_BIN and os.path.exists(TABLE1_BIN) else None
    if not table1:
        print("skip: table1_main binary not provided (--table1)")
        return
    record = load_record()
    record["cells"] = [c for c in record["cells"]
                       if c["benchmark"] in LIVE_BENCHMARKS]
    baseline = write_json(record)
    fd, live = tempfile.mkstemp(suffix=".json")
    os.close(fd)
    try:
        proc = subprocess.run([table1, "--csv", "--json", live] +
                              LIVE_BENCHMARKS, capture_output=True,
                              text=True, timeout=240)
        assert proc.returncode == 0, proc.stderr
        proc = bench_check(baseline, live)
        out = proc.stdout
        assert proc.returncode == 0, (
            "a live run drifted from BENCH_table1.json; if intended, "
            "regenerate the record and EXPERIMENTS.md:\n" + out)
        assert "compared %d cells" % len(record["cells"]) in out, out
        # A build without telemetry records no counters, so each cell
        # warns that the committed ones are baseline-only.  That warning,
        # and only it, is expected when the live header stamps so.
        with open(live) as f:
            telemetry_off = json.load(f).get("telemetry") is False
        rest = "\n".join(
            line for line in out.splitlines()
            if not (telemetry_off and line.endswith(
                ": counters only in baseline (telemetry toggled?)")))
        assert " only in " not in rest and "missing" not in rest, out

        # The same comparison fails once a committed cell is wrong.
        record["cells"][0]["may_fail_casts"] += 1
        with open(baseline, "w") as f:
            json.dump(record, f)
        proc = bench_check(baseline, live)
        assert proc.returncode == 1, proc.stdout
        assert "may_fail_casts changed" in proc.stdout, proc.stdout
    finally:
        os.unlink(baseline)
        os.unlink(live)


def main():
    global TABLE1_BIN
    argv = sys.argv[1:]
    if "--table1" in argv:
        TABLE1_BIN = argv[argv.index("--table1") + 1]
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print("PASS %s" % name)
        except AssertionError as e:
            failed += 1
            print("FAIL %s: %s" % (name, e))
    print("%d/%d passed" % (len(tests) - failed, len(tests)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
