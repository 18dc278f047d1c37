#!/usr/bin/env python3
"""CLI robustness tests for tools/trace_summary.py,
tools/check_bench_regression.py and the analysis binaries.

Every malformed input — missing file, empty file, truncated JSONL, wrong
top-level JSON shape, non-numeric fields — must produce a clear one-line
error or warning and a controlled exit code, never a Python traceback.
The analysis binaries' stdout is pinned by tests/baselines/cli_outputs.txt
(time and byte columns removed); re-record it with
`python3 tests/tools_cli_test.py --hybridpt BIN --table1 BIN
--record-cli-outputs tests/baselines/cli_outputs.txt`.

Runs under pytest (each test_* function is collected) and standalone
(`python3 tests/tools_cli_test.py`).
"""

import json
import os
import subprocess
import sys
import tempfile

TOOLS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "tools")
TRACE_SUMMARY = os.path.join(TOOLS_DIR, "trace_summary.py")
BENCH_CHECK = os.path.join(TOOLS_DIR, "check_bench_regression.py")


def run(script, *args):
    return subprocess.run(
        [sys.executable, script] + list(args),
        capture_output=True, text=True, timeout=60,
    )


def assert_no_traceback(proc, context):
    combined = proc.stdout + proc.stderr
    assert "Traceback" not in combined, (
        "%s: tool crashed with a traceback:\n%s" % (context, combined))


def write_tmp(content, suffix):
    fd, path = tempfile.mkstemp(suffix=suffix)
    with os.fdopen(fd, "w") as f:
        f.write(content)
    return path


# --- trace_summary.py ---

def test_trace_summary_missing_file():
    proc = run(TRACE_SUMMARY, "/nonexistent/trace.jsonl")
    assert proc.returncode != 0
    assert_no_traceback(proc, "missing trace")
    assert "error:" in proc.stderr


def test_trace_summary_empty_file():
    path = write_tmp("", ".jsonl")
    try:
        proc = run(TRACE_SUMMARY, path)
        assert proc.returncode != 0
        assert_no_traceback(proc, "empty trace")
        assert "no trace records" in proc.stderr
    finally:
        os.unlink(path)


def test_trace_summary_truncated_and_malformed_records():
    # A plausible trace whose tail was cut mid-record, with one span whose
    # duration is garbage and a heartbeat with a non-numeric fact count.
    lines = [
        json.dumps({"type": "meta", "version": 1, "telemetry": True}),
        json.dumps({"type": "span", "name": "solve", "dur_ms": 12.5,
                    "cat": "phase"}),
        json.dumps({"type": "span", "name": "solve", "dur_ms": "NaNish"}),
        json.dumps({"type": "heartbeat", "label": "x", "step": 10,
                    "facts": {"oops": 1}, "total": {"rule_alloc": 3}}),
        '{"type": "span", "name": "trunc',  # the truncated tail
    ]
    path = write_tmp("\n".join(lines) + "\n", ".jsonl")
    try:
        proc = run(TRACE_SUMMARY, path)
        assert_no_traceback(proc, "truncated trace")
        assert proc.returncode == 0, proc.stderr
        assert "bad JSON" in proc.stderr  # the truncated line was flagged
        assert "solve" in proc.stdout     # the good span still summarized
    finally:
        os.unlink(path)


def test_trace_summary_happy_path_still_works():
    lines = [
        json.dumps({"type": "meta", "version": 1, "telemetry": False}),
        json.dumps({"type": "span", "name": "parse", "dur_ms": 1.0,
                    "cat": "phase"}),
    ]
    path = write_tmp("\n".join(lines) + "\n", ".jsonl")
    try:
        proc = run(TRACE_SUMMARY, path)
        assert proc.returncode == 0, proc.stderr
        assert "parse" in proc.stdout
    finally:
        os.unlink(path)


# --- check_bench_regression.py ---

def bench_doc(cells):
    return json.dumps({"budget_ms": 0, "runs": 1, "threads": 1,
                       "cells": cells})


GOOD_CELL = {"benchmark": "b", "policy": "p", "time_ms": 100.0,
             "aborted": False, "cs_vpt_facts": 5}


def test_bench_check_missing_file():
    good = write_tmp(bench_doc([GOOD_CELL]), ".json")
    try:
        proc = run(BENCH_CHECK, "/nonexistent/base.json", good)
        assert proc.returncode != 0
        assert_no_traceback(proc, "missing baseline")
        assert "error:" in proc.stderr
    finally:
        os.unlink(good)


def test_bench_check_empty_file():
    empty = write_tmp("", ".json")
    good = write_tmp(bench_doc([GOOD_CELL]), ".json")
    try:
        proc = run(BENCH_CHECK, empty, good)
        assert proc.returncode != 0
        assert_no_traceback(proc, "empty baseline")
        assert "error:" in proc.stderr
    finally:
        os.unlink(empty)
        os.unlink(good)


def test_bench_check_wrong_top_level_shape():
    listy = write_tmp(json.dumps([1, 2, 3]), ".json")
    good = write_tmp(bench_doc([GOOD_CELL]), ".json")
    try:
        proc = run(BENCH_CHECK, listy, good)
        assert proc.returncode != 0
        assert_no_traceback(proc, "list top level")
        assert "expected a JSON object" in proc.stderr
    finally:
        os.unlink(listy)
        os.unlink(good)


def test_bench_check_malformed_cells_and_times():
    # Non-dict cell, cell without keys, and a non-numeric time_ms: all
    # must degrade to warnings while the good cell is still compared.
    messy = write_tmp(bench_doc([
        "not-a-cell",
        {"time_ms": 1.0},
        {"benchmark": "b", "policy": "q", "time_ms": "fast",
         "aborted": False},
        GOOD_CELL,
    ]), ".json")
    cand = write_tmp(bench_doc([
        {"benchmark": "b", "policy": "q", "time_ms": 1.0, "aborted": False},
        dict(GOOD_CELL, time_ms=105.0),
    ]), ".json")
    try:
        proc = run(BENCH_CHECK, messy, cand)
        assert_no_traceback(proc, "malformed cells")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "warning:" in proc.stdout
        assert "compared 1 cells" in proc.stdout
    finally:
        os.unlink(messy)
        os.unlink(cand)


def test_bench_check_detects_a_real_regression():
    base = write_tmp(bench_doc([GOOD_CELL]), ".json")
    cand = write_tmp(bench_doc([dict(GOOD_CELL, time_ms=200.0)]), ".json")
    try:
        proc = run(BENCH_CHECK, base, cand, "--threshold", "20")
        assert proc.returncode == 1
        assert "FAIL" in proc.stdout
    finally:
        os.unlink(base)
        os.unlink(cand)


def test_bench_check_new_policy_column_collapses_to_one_warning():
    # A policy absent from the baseline entirely (a newly registered
    # analysis, e.g. the cs columns) must produce ONE "new column" warning
    # — not a per-benchmark message storm, not a KeyError, and never a
    # mis-match through the fallback_from aliasing.
    base = write_tmp(bench_doc([GOOD_CELL]), ".json")
    cand = write_tmp(bench_doc([
        GOOD_CELL,
        {"benchmark": "b", "policy": "cs", "time_ms": 10.0,
         "aborted": False},
        {"benchmark": "b2", "policy": "cs", "time_ms": 11.0,
         "aborted": False},
        # An existing policy on a new benchmark keeps the per-cell message.
        {"benchmark": "b3", "policy": "p", "time_ms": 12.0,
         "aborted": False},
    ]), ".json")
    try:
        proc = run(BENCH_CHECK, base, cand)
        assert_no_traceback(proc, "new policy column")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "new column 'cs' (2 cell(s), no baseline)" in proc.stdout, \
            proc.stdout
        assert "('b', 'cs')" not in proc.stdout  # no per-cell storm
        assert "('b2', 'cs')" not in proc.stdout
        assert "cell ('b3', 'p') new in candidate" in proc.stdout
    finally:
        os.unlink(base)
        os.unlink(cand)


# --- hybridpt-lint --compare exit codes ---
#
# Needs the built binary; ctest passes it via --lint (see
# tests/CMakeLists.txt).  Standalone runs without it skip these checks.

LINT_BIN = os.environ.get("HYBRIDPT_LINT_BIN", "")
EXAMPLE_PTIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            os.pardir, "examples", "programs",
                            "dispatch.ptir")


def _lint():
    return LINT_BIN if LINT_BIN and os.path.exists(LINT_BIN) else None


def run_bin(binary, *args):
    return subprocess.run([binary] + list(args),
                          capture_output=True, text=True, timeout=120)


def test_lint_compare_unknown_policy_has_distinct_exit_code():
    # Regression: --compare used to conflate "unknown policy name" with
    # every other failure under exit 1.  Unknown names now exit 3 with a
    # message naming the policy, so CI can tell a typo from a genuine
    # monotonicity violation (exit 2).
    lint = _lint()
    if not lint:
        print("skip: hybridpt-lint binary not provided (--lint)")
        return
    proc = run_bin(lint, "--compare", "frobnicate,insens", EXAMPLE_PTIR)
    assert_no_traceback(proc, "unknown compare policy")
    assert proc.returncode == 3, (proc.returncode, proc.stderr)
    assert "unknown policy 'frobnicate'" in proc.stderr, proc.stderr


def test_lint_compare_known_pair_is_not_conflated():
    # A real BASE,REFINED pair (the cut-shortcut gate pair: cs refines
    # S-cs) must never hit the unknown-name path; the gate passes with
    # exit 0 on the examples corpus.
    lint = _lint()
    if not lint:
        print("skip: hybridpt-lint binary not provided (--lint)")
        return
    proc = run_bin(lint, "--compare", "S-cs,cs", EXAMPLE_PTIR)
    assert_no_traceback(proc, "known compare pair")
    assert "unknown policy" not in proc.stderr, proc.stderr
    assert proc.returncode == 0, (proc.returncode,
                                  proc.stdout + proc.stderr)


# --- pinned stdout of hybridpt and table1_main ---
#
# Needs the built binaries; ctest passes them via --hybridpt/--table1.

HYBRIDPT_BIN = os.environ.get("HYBRIDPT_BIN", "")
TABLE1_BIN = os.environ.get("HYBRIDPT_TABLE1_BIN", "")
REPO_ROOT = os.path.normpath(os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir))
CLI_BASELINE = os.path.join(REPO_ROOT, "tests", "baselines",
                            "cli_outputs.txt")
TABLE1_POLICIES = ["1call", "1call+H", "1obj", "U-1obj", "SA-1obj",
                   "SB-1obj", "2obj+H", "U-2obj+H", "S-2obj+H", "2type+H",
                   "U-2type+H", "S-2type+H", "cs", "S-cs"]
# Wall time and byte accounting vary run to run; everything else is pinned.
UNPINNED_COLUMNS = ("time_s", "peak_bytes")


def _have(path):
    return path if path and os.path.exists(path) else None


def cli_commands():
    """(label, binary key, argv) for every pinned invocation."""
    cmds = []
    for policy in TABLE1_POLICIES:
        cmds.append(("hybridpt", ["--csv", "--policy", policy, "luindex"]))
        cmds.append(("hybridpt", ["--csv", "--ladder", "--policy", policy,
                                  "luindex"]))
    cmds.append(("hybridpt", ["--matrix", "--csv", "luindex"]))
    cmds.append(("hybridpt", ["--taint-spec",
                              "examples/programs/default.taintspec", "--csv",
                              "examples/programs/taintflow.ptir"]))
    cmds.append(("hybridpt", ["--compare", "insens", "--policy", "2obj+H",
                              "luindex"]))
    cmds.append(("table1_main", ["--csv", "--json", "-", "luindex",
                                 "antlr"]))
    return cmds


def strip_unpinned(text):
    """Drops the UNPINNED_COLUMNS of every CSV block in \p text; a CSV
    block starts at a header line naming one of them."""
    out, drop = [], None
    for line in text.splitlines():
        cols = line.split(",")
        if any(c in UNPINNED_COLUMNS for c in cols):
            drop = {i for i, c in enumerate(cols) if c in UNPINNED_COLUMNS}
        elif drop is not None and len(cols) <= max(drop):
            drop = None
        if drop is not None:
            cols = [c for i, c in enumerate(cols) if i not in drop]
            line = ",".join(cols)
        out.append(line)
    return "\n".join(out) + "\n"


def render_cli_outputs(hybridpt, table1):
    bins = {"hybridpt": hybridpt, "table1_main": table1}
    chunks = []
    for name, args in cli_commands():
        proc = subprocess.run([bins[name]] + args, capture_output=True,
                              text=True, timeout=300, cwd=REPO_ROOT)
        chunks.append("$ %s %s (exit %d)\n" % (name, " ".join(args),
                                               proc.returncode))
        chunks.append(strip_unpinned(proc.stdout))
    return "".join(chunks)


def test_cli_outputs_match_baseline():
    hybridpt, table1 = _have(HYBRIDPT_BIN), _have(TABLE1_BIN)
    if not hybridpt or not table1:
        print("skip: hybridpt/table1_main binaries not provided")
        return
    got = render_cli_outputs(hybridpt, table1)
    with open(CLI_BASELINE) as f:
        want = f.read()
    if got != want:
        import difflib
        diff = "".join(list(difflib.unified_diff(
            want.splitlines(True), got.splitlines(True),
            "cli_outputs.txt", "now"))[:60])
        assert False, "CLI output drifted from the baseline:\n" + diff


# --- malformed numeric flags ---
#
# Every numeric flag accepts only a whole decimal that fits its field;
# anything else exits 1 naming the flag — never a crash, never a silent
# default.

SERVE_BIN = os.environ.get("HYBRIDPT_SERVE_BIN", "")
REPLAY_BIN = os.environ.get("HYBRIDPT_REPLAY_BIN", "")


def test_malformed_numeric_flags_exit_1_naming_the_flag():
    # (binary, leading args, flag, malformed value, trailing args)
    cases = [
        (HYBRIDPT_BIN, [], "--max-facts", "1x", ["luindex"]),
        (HYBRIDPT_BIN, [], "--budget", "abc", ["luindex"]),
        (LINT_BIN, [], "--budget", "abc", ["luindex"]),
        (SERVE_BIN, ["--program", "luindex"], "--workers", "abc", []),
        (REPLAY_BIN, ["--program", "luindex"], "--requests", "-5", []),
        (TABLE1_BIN, [], "--runs", "99999999999", ["luindex"]),
    ]
    ran = 0
    for binary, head, flag, bad, tail in cases:
        if not _have(binary):
            continue
        ran += 1
        args = head + [flag, bad] + tail
        proc = subprocess.run([binary] + args, capture_output=True,
                              text=True, timeout=60,
                              stdin=subprocess.DEVNULL)
        what = "%s %s" % (os.path.basename(binary), " ".join(args))
        assert proc.returncode >= 0, "%s: killed by signal %d" % (
            what, -proc.returncode)
        assert proc.returncode == 1, "%s: exit %d, want 1: %s" % (
            what, proc.returncode, proc.stderr)
        want = "%s needs a number, got '%s'" % (flag, bad)
        assert want in proc.stderr, "%s: stderr lacks %r: %s" % (
            what, want, proc.stderr)
    if not ran:
        print("skip: no analysis binaries provided")


def main():
    global LINT_BIN, HYBRIDPT_BIN, TABLE1_BIN, SERVE_BIN, REPLAY_BIN
    argv = sys.argv[1:]

    def arg(flag, default):
        return argv[argv.index(flag) + 1] if flag in argv else default
    LINT_BIN = arg("--lint", LINT_BIN)
    HYBRIDPT_BIN = arg("--hybridpt", HYBRIDPT_BIN)
    TABLE1_BIN = arg("--table1", TABLE1_BIN)
    SERVE_BIN = arg("--serve", SERVE_BIN)
    REPLAY_BIN = arg("--replay", REPLAY_BIN)
    if "--record-cli-outputs" in argv:
        path = argv[argv.index("--record-cli-outputs") + 1]
        with open(path, "w") as f:
            f.write(render_cli_outputs(HYBRIDPT_BIN, TABLE1_BIN))
        return 0
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
