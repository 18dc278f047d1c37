#!/usr/bin/env python3
"""CLI robustness tests for tools/trace_summary.py,
tools/check_bench_regression.py and the analysis binaries.

Every malformed input — missing file, empty file, truncated JSONL, wrong
top-level JSON shape, non-numeric fields — must produce a clear one-line
error or warning and a controlled exit code, never a Python traceback.
The stdout of the analysis binaries and of the example programs is pinned
by tests/baselines/cli_outputs.txt (time and byte columns and rows
removed);
re-record it with `python3 tests/tools_cli_test.py --hybridpt BIN
--table1 BIN --record-cli-outputs tests/baselines/cli_outputs.txt`.

Runs under pytest (each test_* function is collected) and standalone
(`python3 tests/tools_cli_test.py`).
"""

import json
import os
import re
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


def test_bench_check_fails_on_deterministic_column_drift():
    # Each deterministic result column fails on its own, naming the cell
    # and the column; a column on one side only stays a warning.
    columns = {"cg_edges": 7, "reachable_methods": 3, "tainted_sinks": 0,
               "avg_objs_per_var": 2.1667, "poly_vcalls": 4,
               "reachable_vcalls": 9, "may_fail_casts": 2,
               "reachable_casts": 6, "num_contexts": 11, "num_hcontexts": 3}
    for column, value in (("cs_vpt_facts", 6), ("cg_edges", 8),
                          ("reachable_methods", 4), ("tainted_sinks", 1),
                          ("avg_objs_per_var", 2.1668), ("poly_vcalls", 5),
                          ("reachable_vcalls", 10), ("may_fail_casts", 1),
                          ("reachable_casts", 7), ("num_contexts", 12),
                          ("num_hcontexts", 2)):
        cell = dict(GOOD_CELL, **columns)
        base = write_tmp(bench_doc([cell]), ".json")
        cand = write_tmp(bench_doc([dict(cell, **{column: value})]),
                         ".json")
        try:
            proc = run(BENCH_CHECK, base, cand)
            assert_no_traceback(proc, "drift in " + column)
            assert proc.returncode == 1, (column, proc.stdout)
            assert "b/p: %s changed" % column in proc.stdout, proc.stdout
        finally:
            os.unlink(base)
            os.unlink(cand)
    base = write_tmp(bench_doc([GOOD_CELL]), ".json")
    cand = write_tmp(bench_doc([dict(GOOD_CELL, tainted_sinks=2)]), ".json")
    try:
        proc = run(BENCH_CHECK, base, cand)
        assert proc.returncode == 0, proc.stdout
        assert "field 'tainted_sinks' only in candidate" in proc.stdout
    finally:
        os.unlink(base)
        os.unlink(cand)


def test_bench_check_warns_on_build_stamp_change():
    # The header's build stamps describe the host and build; a change
    # makes times incomparable but fails nothing.
    stamps = {"hardware_threads": 4, "build_type": "Release",
              "compiler": "GNU 12.2.0", "telemetry": True,
              "provenance": True}
    base = write_tmp(json.dumps(dict(stamps, cells=[GOOD_CELL])), ".json")
    cand = write_tmp(json.dumps(dict(stamps, compiler="Clang 16.0.0",
                                     telemetry=False, cells=[GOOD_CELL])),
                     ".json")
    try:
        proc = run(BENCH_CHECK, base, cand)
        assert_no_traceback(proc, "build stamp change")
        assert proc.returncode == 0, proc.stdout
        assert ("warning: build stamp differs: compiler = GNU 12.2.0 vs "
                "Clang 16.0.0") in proc.stdout, proc.stdout
        assert ("warning: build stamp differs: telemetry = True vs False"
                in proc.stdout), proc.stdout
    finally:
        os.unlink(base)
        os.unlink(cand)


def test_bench_check_fails_on_counter_drift():
    # Every telemetry counter is compared exactly between cells that
    # completed on the same rung.  A counter on one side only, an all-zero
    # (telemetry-off) side and an aborted cell stay warnings.
    counters = {"worklist_steps": 10, "facts_inserted": 20,
                "nodes_created": 7, "rule_vcall": 3}
    cell = dict(GOOD_CELL, counters=counters)

    def check(base_cell, cand_cell, code, expect):
        base = write_tmp(bench_doc([base_cell]), ".json")
        cand = write_tmp(bench_doc([cand_cell]), ".json")
        try:
            proc = run(BENCH_CHECK, base, cand)
            assert_no_traceback(proc, "counter drift")
            assert proc.returncode == code, (expect, proc.stdout)
            assert expect in proc.stdout, proc.stdout
        finally:
            os.unlink(base)
            os.unlink(cand)

    for counter in counters:
        drifted = dict(counters, **{counter: counters[counter] + 1})
        check(cell, dict(cell, counters=drifted), 1,
              "b/p: counter %s changed" % counter)
    check(cell, dict(cell, counters=dict(counters, edges_added=4)), 0,
          "b/p: counter edges_added only in candidate")
    zeros = {k: 0 for k in counters}
    check(cell, dict(cell, counters=zeros), 0,
          "b/p: counters all zero in candidate")
    check(dict(cell, aborted=True),
          dict(cell, aborted=True,
               counters=dict(counters, worklist_steps=11)), 0, "OK")


def test_bench_check_fails_on_an_abort_without_a_reason():
    # An aborted cell whose abort_reason is "none" was refused by the
    # harness, not stopped by a budget: the check fails on either side,
    # while a budget abort stays the usual warning.
    refused = dict(GOOD_CELL, aborted=True, abort_reason="none")
    budget = dict(GOOD_CELL, aborted=True, abort_reason="time_budget")
    for base_cell, cand_cell, code, expect in (
            (GOOD_CELL, refused, 1, "  b/p in candidate\n"),
            (refused, GOOD_CELL, 1, "  b/p in baseline\n"),
            (GOOD_CELL, budget, 0, "but aborted in candidate")):
        base = write_tmp(bench_doc([base_cell]), ".json")
        cand = write_tmp(bench_doc([cand_cell]), ".json")
        try:
            proc = run(BENCH_CHECK, base, cand)
            assert_no_traceback(proc, "reasonless abort")
            assert proc.returncode == code, (expect, proc.stdout)
            assert expect in proc.stdout, proc.stdout
        finally:
            os.unlink(base)
            os.unlink(cand)


def test_bench_check_gates_peak_bytes_within_one_build():
    # peak_bytes is deterministic for one build configuration: a one-byte
    # rise fails when the layout stamps match, and only warns across
    # builds.
    stamps = {"build_type": "Release", "compiler": "GNU 12.2.0",
              "telemetry": True, "provenance": True}
    cell = dict(GOOD_CELL, peak_bytes=4096)

    def check(cand_stamps, code, expect):
        base = write_tmp(json.dumps(dict(stamps, cells=[cell])), ".json")
        cand = write_tmp(json.dumps(dict(cand_stamps, cells=[
            dict(cell, peak_bytes=4097)])), ".json")
        try:
            proc = run(BENCH_CHECK, base, cand)
            assert_no_traceback(proc, "peak_bytes drift")
            assert proc.returncode == code, (expect, proc.stdout)
            assert expect in proc.stdout, proc.stdout
        finally:
            os.unlink(base)
            os.unlink(cand)

    check(stamps, 1, "b/p: peak_bytes changed 4096 -> 4097")
    for stamp, other in (("build_type", "Debug"), ("compiler", "Clang"),
                         ("telemetry", False), ("provenance", False)):
        check(dict(stamps, **{stamp: other}), 0,
              "warning: b/p: peak_bytes changed 4096 -> 4097 "
              "(build stamps differ)")


def test_bench_check_gates_serve_counts_on_one_replay_stream():
    # An untimed replay stream (same header, no deadline or budget, no
    # sheds) is answered deterministically: per-kind count, errors and
    # degraded drift fails; across different or timed streams it only
    # warns, and time_ms never fails below --min-ms.
    header = {"harness": "hybridpt-replay", "program": "luindex",
              "requests": 1000, "seed": 1, "fault_rate": 0.05,
              "policy": "2obj+H", "base_policy": "insens",
              "concurrency": 4, "workers": 2, "queue": 64,
              "deadline_ms": 0, "budget_ms": 0}
    cell = {"benchmark": "luindex", "policy": "serve:compare", "count": 51,
            "errors": 3, "degraded": 0, "time_ms": 9.5}

    def check(cand_header, cand_cell, code, expect):
        base = write_tmp(json.dumps(dict(header, cells=[cell])), ".json")
        cand = write_tmp(json.dumps(dict(cand_header, cells=[cand_cell])),
                         ".json")
        try:
            proc = run(BENCH_CHECK, base, cand)
            assert_no_traceback(proc, "serve count drift")
            assert proc.returncode == code, (expect, proc.stdout)
            assert expect in proc.stdout, proc.stdout
        finally:
            os.unlink(base)
            os.unlink(cand)

    check(header, dict(cell, time_ms=19.0), 0, "OK")
    for fact in ("count", "errors", "degraded"):
        drifted = dict(cell, **{fact: cell[fact] + 1})
        check(header, drifted, 1, "luindex/serve:compare: %s changed %d -> %d"
              % (fact, cell[fact], cell[fact] + 1))
        warned = ("warning: luindex/serve:compare: %s changed %d -> %d "
                  "(replay streams differ or are timed)"
                  % (fact, cell[fact], cell[fact] + 1))
        check(dict(header, seed=2), drifted, 0, warned)
        check(dict(header, policy="S-2obj+H"), drifted, 0, warned)
        check(dict(header, queue=2), drifted, 0, warned)
    # The same header on both sides, but timed: a deadline or a budget
    # makes the counts depend on the host, and sheds do too.
    for timed in ({"deadline_ms": 50}, {"budget_ms": 50},
                  {"concurrency": 8, "queue": 4}):
        timed_header = dict(header, **timed)
        base = write_tmp(json.dumps(dict(timed_header, cells=[cell])),
                         ".json")
        cand = write_tmp(json.dumps(dict(timed_header, cells=[
            dict(cell, errors=cell["errors"] + 1)])), ".json")
        try:
            proc = run(BENCH_CHECK, base, cand)
            assert_no_traceback(proc, "timed serve count drift")
            assert proc.returncode == 0, (timed, proc.stdout)
            assert "(replay streams differ or are timed)" in proc.stdout, \
                proc.stdout
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


# --- pinned stdout of hybridpt, table1_main and the examples ---
#
# Needs the built binaries; ctest passes them via --hybridpt/--table1.  The
# example programs are found in the build tree next to hybridpt's
# (BUILD/tools/hybridpt, BUILD/examples/NAME).  Only the two examples the
# CLI cannot replace are built: quickstart drives the library from an
# inline PTIR string, policy_lab a custom policy and a Datalog query.

HYBRIDPT_BIN = os.environ.get("HYBRIDPT_BIN", "")
TABLE1_BIN = os.environ.get("HYBRIDPT_TABLE1_BIN", "")
EXAMPLES = ["quickstart", "policy_lab"]
REPO_ROOT = os.path.normpath(os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir))
CLI_BASELINE = os.path.join(REPO_ROOT, "tests", "baselines",
                            "cli_outputs.txt")
TABLE1_POLICIES = ["1call", "1call+H", "1obj", "U-1obj", "SA-1obj",
                   "SB-1obj", "2obj+H", "U-2obj+H", "S-2obj+H", "2type+H",
                   "U-2type+H", "S-2type+H", "cs", "S-cs"]
OTHER_POLICIES = ["insens", "U-2obj+HI", "U-2obj+H-swapped", "D-2obj+H",
                  "3obj+2H", "2call+H"]
# Wall time and byte accounting vary run to run; everything else is pinned.
UNPINNED_COLUMNS = ("time_s", "peak_bytes")


def _have(path):
    return path if path and os.path.exists(path) else None


def cli_commands():
    """(label, binary key, argv) for every pinned invocation."""
    cmds = [("hybridpt", ["--list-policies"])]
    for policy in TABLE1_POLICIES:
        cmds.append(("hybridpt", ["--csv", "--policy", policy, "luindex"]))
        cmds.append(("hybridpt", ["--csv", "--ladder", "--policy", policy,
                                  "luindex"]))
    for policy in OTHER_POLICIES:
        cmds.append(("hybridpt", ["--csv", "--policy", policy, "luindex"]))
    cmds.append(("hybridpt", ["--taint-spec",
                              "examples/programs/default.taintspec", "--csv",
                              "examples/programs/taintflow.ptir"]))
    cmds.append(("hybridpt", ["--compare", "insens", "--policy", "2obj+H",
                              "luindex"]))
    # The context-insensitive clients: stats, devirtualization, casts,
    # per-variable points-to sets and the points-to DOT neighbourhood.
    for bench, var in (("luindex", "Worker7::step2/1::e538"),
                       ("antlr", "Worker8::step1/1::e791")):
        cmds.append(("hybridpt", ["--stats", "--devirt", "--casts",
                                  "--dump-vpt", "ArrayList::get/0::r",
                                  "--dump-vpt", var, bench]))
    cmds.append(("hybridpt", ["--dot-pointsto", "Worker7::step2/1",
                              "luindex"]))
    cmds.append(("table1_main", ["--csv", "--json", "-", "luindex",
                                 "antlr"]))
    # The text table (its elapsed-time row dropped) and a .ptir input.
    cmds.append(("table1_main", ["--json", "-", "luindex"]))
    cmds.append(("table1_main", ["--csv", "--json", "-",
                                 "examples/programs/dispatch.ptir"]))
    for example in EXAMPLES:
        cmds.append((example, []))
    return cmds


def strip_solve_times(text):
    """Drops policy_lab's per-line `, N ms` wall time and the elapsed-time
    row of table1_main's text table."""
    text = re.sub(r"^elapsed time \(s\) .*\n", "", text, flags=re.M)
    return re.sub(r", [0-9]+ ms$", "", text, flags=re.M)


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


def example_dir(hybridpt):
    return os.path.join(os.path.dirname(os.path.dirname(hybridpt)),
                        "examples")


def render_cli_outputs(hybridpt, table1):
    bins = {"hybridpt": hybridpt, "table1_main": table1}
    for example in EXAMPLES:
        bins[example] = os.path.join(example_dir(hybridpt), example)
    chunks = []
    for name, args in cli_commands():
        proc = subprocess.run([bins[name]] + args, capture_output=True,
                              text=True, timeout=300, cwd=REPO_ROOT)
        chunks.append("$ %s (exit %d)\n" % (" ".join([name] + args),
                                            proc.returncode))
        chunks.append(strip_solve_times(strip_unpinned(proc.stdout)))
    return "".join(chunks)


def test_cli_outputs_match_baseline():
    hybridpt, table1 = _have(HYBRIDPT_BIN), _have(TABLE1_BIN)
    if not hybridpt or not table1 or not _have(example_dir(hybridpt)):
        print("skip: hybridpt/table1_main/example binaries not provided")
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


def test_table1_ladder_footnote_names_only_converged_rungs():
    # An injected OOM at step 1 aborts every rung, insens included, so no
    # column may claim a landed rung: each footnote says the ladder ran out.
    table1 = _have(TABLE1_BIN)
    if not table1:
        print("skip: table1_main binary not provided")
        return
    env = dict(os.environ, HYBRIDPT_FAULT_PLAN="oom-at-step=1")
    proc = subprocess.run([table1, "--ladder", "--json", "-", "luindex"],
                          capture_output=True, text=True, timeout=120,
                          env=env, cwd=REPO_ROOT)
    assert proc.returncode == 0, (proc.returncode, proc.stderr)
    assert "via the fallback ladder" not in proc.stdout, proc.stdout
    for policy in TABLE1_POLICIES:
        want = "  - %s exhausted its budget; the fallback ladder ran out\n" % (
            policy)
        assert want in proc.stdout, "no %r in:\n%s" % (want, proc.stdout)


def test_dump_vpt_unknown_variable_exits_1():
    # Known paths still print; one unknown path makes the exit status 1,
    # as --dot-pointsto does for an unknown method.
    hybridpt = _have(HYBRIDPT_BIN)
    if not hybridpt:
        print("skip: hybridpt binary not provided")
        return
    proc = run_bin(hybridpt, "--dump-vpt", "ArrayList::get/0::r",
                   "--dump-vpt", "Nope::x/0::y", "luindex")
    assert_no_traceback(proc, "unknown --dump-vpt path")
    assert proc.returncode == 1, (proc.returncode, proc.stderr)
    assert "no variable 'Nope::x/0::y'" in proc.stderr, proc.stderr
    assert "ArrayList::get/0::r points to:" in proc.stdout, proc.stdout


def test_chrome_trace_is_written_on_an_error_exit():
    # Every exit after the trace recorder exists flushes --chrome-trace,
    # including the failure of a late output step such as an unknown
    # --dot-pointsto method.
    hybridpt = _have(HYBRIDPT_BIN)
    if not hybridpt:
        print("skip: hybridpt binary not provided")
        return
    fd, path = tempfile.mkstemp(suffix=".json")
    os.close(fd)
    os.unlink(path)
    try:
        proc = run_bin(hybridpt, "--chrome-trace", path, "--dot-pointsto",
                       "Nope::x/0", "luindex")
        assert_no_traceback(proc, "unknown --dot-pointsto method")
        assert proc.returncode == 1, (proc.returncode, proc.stderr)
        assert "no method 'Nope::x/0'" in proc.stderr, proc.stderr
        assert os.path.exists(path), "no chrome trace written on exit 1"
        with open(path) as f:
            doc = json.load(f)
        assert doc, "empty chrome trace"
    finally:
        if os.path.exists(path):
            os.unlink(path)


# --- report paths no pinned block reaches ---

FACTORY_PTIR = os.path.join(REPO_ROOT, "examples", "programs",
                            "factory.ptir")
COMPILED_OUT = "provenance compiled out"


def test_blame_prints_the_cost_attribution_text():
    hybridpt = _have(HYBRIDPT_BIN)
    if not hybridpt:
        print("skip: hybridpt binary not provided")
        return
    proc = run_bin(hybridpt, "--provenance", "--blame", "5", FACTORY_PTIR)
    if COMPILED_OUT in proc.stderr:
        print("skip: " + COMPILED_OUT)
        return
    assert proc.returncode == 0, (proc.returncode, proc.stderr)
    lines = proc.stdout.splitlines()
    assert re.match(r"cost attribution: [1-9][0-9]* derivation steps, "
                    r"[1-9][0-9]* facts, [0-9]+ arena bytes$", lines[0]), \
        proc.stdout
    for title in ("by rule", "by method", "by alloc site", "by ctx depth"):
        at = lines.index("  %s:" % title)
        assert re.match(r"    \S.*  steps=[1-9][0-9]* bytes=[0-9]+$",
                        lines[at + 1]), proc.stdout
    assert "    new Apple@0  steps=" in proc.stdout, proc.stdout


def test_explain_abort_names_the_last_heartbeat():
    # An injected OOM aborts the run; --explain-abort then prints the last
    # heartbeat and the hottest rules, or says that none was recorded
    # (telemetry compiled out).
    hybridpt = _have(HYBRIDPT_BIN)
    if not hybridpt:
        print("skip: hybridpt binary not provided")
        return
    env = dict(os.environ, HYBRIDPT_FAULT_PLAN="oom-at-step=500")
    proc = subprocess.run([hybridpt, "--policy", "2obj+H", "--explain-abort",
                           "luindex"], capture_output=True, text=True,
                          timeout=120, env=env)
    assert proc.returncode == 0, (proc.returncode, proc.stderr)
    label = "[abort] luindex/2obj+H: "
    assert label + "memory_budget (injected)\n" in proc.stderr, proc.stderr
    if label + "no heartbeat recorded" in proc.stderr:
        return
    assert re.search(re.escape(label) + r"last heartbeat at t=[0-9.]+s "
                     r"step=500 worklist=[0-9]+ nodes=[0-9]+ facts=[0-9]+ "
                     r"mem=[0-9.]+MB\n", proc.stderr), proc.stderr
    assert re.search(re.escape(label) + r"hottest rules:( rule_\w+=[0-9]+)"
                     r"{3}\n", proc.stderr), proc.stderr
    assert "(ABORTED: memory_budget)" in proc.stdout, proc.stdout


def test_table1_provenance_embeds_a_profile_per_cell():
    # --provenance puts each cell's cost-attribution profile into the
    # BENCH record, which trace_summary.py renders directly.
    table1 = _have(TABLE1_BIN)
    if not table1:
        print("skip: table1_main binary not provided")
        return
    fd, path = tempfile.mkstemp(suffix=".json")
    os.close(fd)
    try:
        proc = run_bin(table1, "--budget", "0", "--provenance", "--json",
                       path, "luindex")
        if COMPILED_OUT in proc.stderr:
            print("skip: " + COMPILED_OUT)
            return
        assert proc.returncode == 0, (proc.returncode, proc.stderr)
        with open(path) as f:
            cells = json.load(f)["cells"]
        assert len(cells) == 20, len(cells)
        for cell in cells:
            profile = cell.get("profile")
            assert isinstance(profile, dict), cell["policy"]
            assert profile["total_steps"] > 0, cell["policy"]
        summary = run(TRACE_SUMMARY, path)
        assert_no_traceback(summary, "table1 profiles")
        assert summary.returncode == 0, summary.stderr
        for cell in cells:
            assert "\nluindex/%s: " % cell["policy"] in summary.stdout, (
                cell["policy"], summary.stdout[:2000])
        assert "  hottest rules:\n" in summary.stdout, summary.stdout[:2000]
    finally:
        os.unlink(path)


def test_profile_out_writes_a_profile_trace_summary_renders():
    # The single-run profile writer: the file parses as JSON and
    # trace_summary.py renders it; an unwritable path exits 1 saying so.
    hybridpt = _have(HYBRIDPT_BIN)
    if not hybridpt:
        print("skip: hybridpt binary not provided")
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "profile.json")
        proc = run_bin(hybridpt, "--provenance", "--blame", "5",
                       "--profile-out", path, FACTORY_PTIR)
        if COMPILED_OUT in proc.stderr:
            print("skip: " + COMPILED_OUT)
            return
        assert proc.returncode == 0, (proc.returncode, proc.stderr)
        assert "wrote profile to " + path in proc.stdout, proc.stdout
        with open(path) as f:
            profile = json.load(f)
        assert profile["total_steps"] > 0, profile
        summary = run(TRACE_SUMMARY, path)
        assert_no_traceback(summary, "hybridpt profile")
        assert summary.returncode == 0, summary.stderr
        assert "(single run): %d derivation step(s)" % (
            profile["total_steps"]) in summary.stdout, summary.stdout
        assert "  hottest rules:\n" in summary.stdout, summary.stdout

        bad = os.path.join(tmp, "no", "such", "dir", "profile.json")
        proc = run_bin(hybridpt, "--provenance", "--profile-out", bad,
                       FACTORY_PTIR)
        assert proc.returncode == 1, (proc.returncode, proc.stderr)
        assert "cannot write '%s'" % bad in proc.stderr, proc.stderr


def test_mistyped_benchmark_name_lists_the_benchmarks():
    # A spec that is neither a file nor a benchmark name says so and
    # lists the benchmarks; table1_main prints no table heading first.
    ran = 0
    for binary in (HYBRIDPT_BIN, TABLE1_BIN):
        if not _have(binary):
            continue
        ran += 1
        proc = run_bin(binary, "lunidex")
        what = os.path.basename(binary)
        assert proc.returncode == 1, (what, proc.returncode, proc.stderr)
        assert proc.stdout == "", (what, proc.stdout)
        assert proc.stderr == (
            "cannot open 'lunidex', and it is not a benchmark name "
            "(benchmarks: antlr bloat chart eclipse hsqldb jython luindex "
            "lusearch pmd xalan)\n"), (what, proc.stderr)
    if not ran:
        print("skip: hybridpt/table1_main binaries not provided")


# --- malformed numeric flags ---
#
# Every numeric flag accepts only a whole decimal that fits its field;
# anything else exits 1 naming the flag — never a crash, never a silent
# default.

SERVE_BIN = os.environ.get("HYBRIDPT_SERVE_BIN", "")
REPLAY_BIN = os.environ.get("HYBRIDPT_REPLAY_BIN", "")
FUZZ_BIN = os.environ.get("HYBRIDPT_FUZZ_BIN", "")


def test_malformed_numeric_flags_exit_1_naming_the_flag():
    # (binary, leading args, flag, malformed value, trailing args)
    cases = [
        (HYBRIDPT_BIN, [], "--max-facts", "1x", ["luindex"]),
        (HYBRIDPT_BIN, [], "--budget", "abc", ["luindex"]),
        (LINT_BIN, [], "--budget", "abc", ["luindex"]),
        (SERVE_BIN, ["--program", "luindex"], "--workers", "abc", []),
        (REPLAY_BIN, ["--program", "luindex"], "--requests", "-5", []),
        (TABLE1_BIN, [], "--runs", "99999999999", ["luindex"]),
        (FUZZ_BIN, [], "--max-programs", "4294967297", []),
        (FUZZ_BIN, [], "--seed", "-1", []),
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
    global LINT_BIN, HYBRIDPT_BIN, TABLE1_BIN, SERVE_BIN, REPLAY_BIN, \
        FUZZ_BIN
    argv = sys.argv[1:]

    def arg(flag, default):
        return argv[argv.index(flag) + 1] if flag in argv else default
    LINT_BIN = arg("--lint", LINT_BIN)
    HYBRIDPT_BIN = arg("--hybridpt", HYBRIDPT_BIN)
    TABLE1_BIN = arg("--table1", TABLE1_BIN)
    SERVE_BIN = arg("--serve", SERVE_BIN)
    REPLAY_BIN = arg("--replay", REPLAY_BIN)
    FUZZ_BIN = arg("--fuzz", FUZZ_BIN)
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
