#!/usr/bin/env python3
"""Compare two BENCH_*.json files and fail on performance regressions.

Usage:
    tools/check_bench_regression.py BASELINE.json CANDIDATE.json \
        [--threshold PCT] [--min-ms MS]

Both files are produced by the bench harnesses (see docs/PERF.md).  Cells
are matched by (benchmark, requested policy): a cell degraded by the
fallback ladder (docs/ROBUSTNESS.md) carries the landed rung in "policy"
and the requested policy in "fallback_from", so matching keys on
fallback_from when present.  The check fails (exit 1) when any matched
cell is more than --threshold percent slower in the candidate.  Timing is
compared only between cells that completed (were not aborted) in *both*
files AND landed on the same rung: an aborted cell's time_ms is
budget-truncated (the table's dash entries), and a degraded cell's
time_ms measures a coarser policy, so either comparison flags spurious
regressions.  Abort- and degradation-state transitions in either
direction are reported as warnings, never as failures — they are budget-
and machine-load-sensitive.  A cell with "aborted": true and
"abort_reason": "none", in either file, fails the check: no budget
stopped it, so the harness refused the cell (an unknown policy or a
ladder it could not derive) and its dash hides a run that never
happened.  Cells faster than --min-ms in the baseline
are reported but never fail the check: their timings are noise-dominated.

The deterministic result columns (the Table 1 columns avg_objs_per_var,
cg_edges, poly_vcalls, reachable_vcalls, may_fail_casts, reachable_casts
and cs_vpt_facts, plus reachable_methods, tainted_sinks, num_contexts and
num_hcontexts) are compared exactly between cells that completed on the
same rung, and any drift fails the check (exit 1) naming
the cell and the column: the analyses are deterministic, so drift is a
correctness change, not noise, and an intentional precision change lands
together with its refreshed baseline.  A column present on one side only
is schema drift and only warns.  The serve-replay request count and error
count also only warn.

The telemetry counters (worklist_steps, facts_inserted, facts_replayed,
fact_dedup_hits, edges_added, edge_dedup_hits, nodes_created,
call_edges_inserted, objects_interned, methods_instantiated and the
rule_* fires) are compared exactly under the same condition, and drift
fails too: they count the solver's derivations, which are deterministic,
so a change that claims to leave the fixpoint alone must leave them
alone.  A counter present on one side only warns, and so does a side
whose counters are all zero (a build without HYBRIDPT_TELEMETRY).

The header's build stamps (hardware_threads, build_type, compiler and the
telemetry/provenance switches) only warn when they differ, as the harness
configuration (budget_ms, runs, threads, ladder) does: times from
different hosts or builds are not comparable, but nothing else changes.

peak_bytes, the solver's accounted memory peak, is deterministic within
one build: it is compared exactly under the same condition, and drift
fails when the build_type, compiler, telemetry and provenance stamps
match on both sides; across builds (container layouts follow them) it
only warns.

Schema drift across PRs is tolerated: cells present in only one file and
fields present in only one cell (e.g. the telemetry "counters" object or
peak_bytes, which older baselines lack) are reported as warnings, never
as errors.  A policy column absent from the baseline entirely (a newly
registered analysis) is collapsed into one "new column" warning instead
of a per-benchmark message storm.

BENCH_serve.json (hybridpt-replay --out) cells are per-request-kind
latency aggregates keyed ("benchmark" = program, "policy" =
"serve:<kind>"): time_ms is the average request latency, so the standard
timing comparison applies, and the percentile fields ride along under
the generic schema-drift warnings.

One schema rule IS load-bearing and fails hard: cells from the
"hybridpt-replay" harness must carry numeric "count" and "time_ms" keys.
A file missing either is a truncated write or a harness schema change
that must land with a new baseline, so it exits 1 with a message naming
the file and cell instead of silently comparing nothing (or crashing).
"""

import argparse
import json
import sys


# Columns a deterministic solve reproduces exactly; drift fails the check.
DETERMINISTIC_COLUMNS = ("avg_objs_per_var", "cg_edges", "poly_vcalls",
                         "reachable_vcalls", "may_fail_casts",
                         "reachable_casts", "cs_vpt_facts",
                         "reachable_methods", "tainted_sinks",
                         "num_contexts", "num_hcontexts")

# Stamps that fix the solver's container layouts, and with them peak_bytes.
LAYOUT_STAMPS = ("build_type", "compiler", "telemetry", "provenance")


def to_float(value):
    """Coerces a timing field to float; None for malformed values (a
    truncated or hand-edited file must degrade to a warning, not a
    traceback)."""
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def load(path):
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"error: cannot read {path}: {e}")
    if not isinstance(data, dict):
        sys.exit(f"error: {path}: expected a JSON object at top level, "
                 f"got {type(data).__name__} (truncated or wrong file?)")
    cells = data.get("cells")
    if not isinstance(cells, list):
        sys.exit(f"error: {path}: no 'cells' array")
    keyed = {}
    for i, c in enumerate(cells):
        if not isinstance(c, dict):
            print(f"warning: {path}: cell #{i} is not an object, skipped")
            continue
        bench, policy = c.get("benchmark"), c.get("policy")
        if not isinstance(bench, str) or not isinstance(policy, str):
            print(f"warning: {path}: cell #{i} lacks benchmark/policy "
                  f"keys, skipped")
            continue
        # Key degraded cells by the policy the user asked for, so a run
        # that fell back still lines up with its native baseline cell.
        requested = c.get("fallback_from")
        if isinstance(requested, str) and requested:
            policy = requested
        keyed[(bench, policy)] = c

        # Serve-replay schema guard (BENCH_serve.json, harness
        # "hybridpt-replay"): every cell is a per-request-kind latency
        # aggregate, so one without a numeric request count or average
        # time is a truncated or drifted file — comparing it would
        # silently check nothing.  Fail clearly instead.
        if data.get("harness") == "hybridpt-replay":
            for key, what in (("count", "request count"),
                              ("time_ms", "average latency")):
                if to_float(c.get(key)) is None:
                    sys.exit(f"error: {path}: cell {bench}/{policy}: "
                             f"serve-replay cell lacks a numeric "
                             f"'{key}' ({what}) key — not a usable serve "
                             f"baseline; regenerate it with "
                             f"hybridpt-replay --out")
    return data, keyed


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    ap.add_argument("--threshold", type=float, default=20.0,
                    help="max allowed slowdown in percent (default: 20)")
    ap.add_argument("--min-ms", type=float, default=50.0,
                    help="ignore cells faster than this in the baseline "
                         "(default: 50)")
    args = ap.parse_args()

    base_top, base = load(args.baseline)
    cand_top, cand = load(args.candidate)

    for kind, keys in (("harness config", ("budget_ms", "runs", "threads",
                                           "ladder")),
                       ("build stamp", ("hardware_threads", "build_type",
                                        "compiler", "telemetry",
                                        "provenance"))):
        for key in keys:
            if base_top.get(key) != cand_top.get(key):
                print(f"warning: {kind} differs: {key} = "
                      f"{base_top.get(key)} vs {cand_top.get(key)}")

    same_layout = all(base_top.get(key) == cand_top.get(key)
                      for key in LAYOUT_STAMPS)

    regressions = []
    drifts = []
    warnings = []
    refused = [f"{key[0]}/{key[1]} in {side}"
               for side, cells in (("baseline", base), ("candidate", cand))
               for key, c in sorted(cells.items())
               if c.get("aborted") and c.get("abort_reason") == "none"]
    compared = 0
    base_total = cand_total = 0.0

    # A policy column absent from the baseline entirely (a newly added
    # analysis, e.g. a policy registered since the baseline was captured)
    # is expected schema growth: report it once per column, not as one
    # confusing per-cell message per benchmark, and never try to match it
    # against a fallback_from alias it cannot have.
    base_policies = {policy for _, policy in base}
    new_columns = {}
    for key in sorted(cand):
        if key not in base:
            bench, policy = key
            if policy not in base_policies:
                new_columns[policy] = new_columns.get(policy, 0) + 1
            else:
                warnings.append(f"cell {key} new in candidate (no baseline)")
    for policy in sorted(new_columns):
        warnings.append(f"new column '{policy}' ({new_columns[policy]} "
                        f"cell(s), no baseline)")

    for key in sorted(base):
        if key not in cand:
            warnings.append(f"cell {key} missing from candidate")
            continue
        b, c = base[key], cand[key]
        name = f"{key[0]}/{key[1]}"

        # A timing regression can only be claimed when the cell completed
        # on BOTH sides: an aborted cell's time_ms is budget-truncated
        # (the table's dash), so dash-vs-number comparisons are spurious.
        if b.get("aborted"):
            if not c.get("aborted"):
                print(f"improved: {name}: aborted -> completed")
            continue
        if c.get("aborted"):
            bt = to_float(b.get("time_ms", 0.0))
            shown = f"{bt:.0f} ms" if bt is not None else "unknown time"
            warnings.append(f"{name}: completed in baseline ({shown}) "
                            f"but aborted in candidate (budget/load "
                            f"sensitive; not a timing failure)")
            continue

        # Fallback-ladder state: a degraded cell's metrics describe the
        # landed rung, so timing/fact comparison only makes sense when
        # both sides landed on the same rung.
        b_rung = b.get("policy") if b.get("fallback_from") else None
        c_rung = c.get("policy") if c.get("fallback_from") else None
        if b_rung != c_rung:
            if c_rung is None:
                print(f"improved: {name}: degraded to {b_rung} in "
                      f"baseline, native in candidate")
            elif b_rung is None:
                warnings.append(f"{name}: native in baseline but degraded "
                                f"to {c_rung} via the fallback ladder "
                                f"(budget sensitive; not a timing failure)")
            else:
                warnings.append(f"{name}: fallback rung changed "
                                f"{b_rung} -> {c_rung}")
            continue

        for fact in DETERMINISTIC_COLUMNS:
            if fact in b and fact in c and b[fact] != c[fact]:
                drifts.append(f"{name}: {fact} changed {b[fact]} -> "
                              f"{c[fact]}")
        if ("peak_bytes" in b and "peak_bytes" in c
                and b["peak_bytes"] != c["peak_bytes"]):
            msg = (f"{name}: peak_bytes changed {b['peak_bytes']} -> "
                   f"{c['peak_bytes']}")
            if same_layout:
                drifts.append(msg)
            else:
                warnings.append(msg + " (build stamps differ)")
        for fact in ("count", "errors"):
            if b.get(fact) != c.get(fact):
                warnings.append(f"{name}: {fact} changed "
                                f"{b.get(fact)} -> {c.get(fact)}")

        # Fields on one side only (schema drift across PRs): warn-only.
        # Degradation fields already got a dedicated message above.
        for field in sorted((set(b) ^ set(c))
                            - {"counters", "fallback_from", "ladder",
                               "abort_reason"}):
            side = "baseline" if field in b else "candidate"
            warnings.append(f"{name}: field '{field}' only in {side}")

        # Telemetry counters: the derivation is deterministic, so drift
        # fails; schema drift and a telemetry-off side only warn.
        bc, cc = b.get("counters"), c.get("counters")
        if isinstance(bc, dict) and isinstance(cc, dict):
            zero = [side for side, counters in (("baseline", bc),
                                                ("candidate", cc))
                    if not any(counters.values())]
            for side in zero:
                warnings.append(f"{name}: counters all zero in {side} "
                                f"(telemetry off?)")
            for counter in sorted(set(bc) | set(cc)):
                if counter not in bc or counter not in cc:
                    side = "baseline" if counter in bc else "candidate"
                    warnings.append(f"{name}: counter {counter} only in "
                                    f"{side}")
                elif bc[counter] != cc[counter] and not zero:
                    drifts.append(f"{name}: counter {counter} changed "
                                  f"{bc[counter]} -> {cc[counter]}")
        elif (bc is None) != (cc is None):
            side = "baseline" if bc is not None else "candidate"
            warnings.append(f"{name}: counters only in {side} "
                            f"(telemetry toggled?)")

        if "time_ms" not in b or "time_ms" not in c:
            warnings.append(f"{name}: no time_ms on both sides, skipped")
            continue
        bt, ct = to_float(b["time_ms"]), to_float(c["time_ms"])
        if bt is None or ct is None:
            warnings.append(f"{name}: non-numeric time_ms "
                            f"({b['time_ms']!r} vs {c['time_ms']!r}), skipped")
            continue
        compared += 1
        base_total += bt
        cand_total += ct
        if bt < args.min_ms:
            continue
        delta_pct = (ct - bt) / bt * 100.0
        if delta_pct > args.threshold:
            regressions.append(
                f"{name}: {bt:.1f} ms -> {ct:.1f} ms (+{delta_pct:.1f}%)")

    for w in warnings:
        print(f"warning: {w}")

    if compared:
        ratio = base_total / cand_total if cand_total > 0 else float("inf")
        print(f"compared {compared} cells: total {base_total:.0f} ms -> "
              f"{cand_total:.0f} ms (speedup {ratio:.2f}x)")

    if refused:
        print(f"\nFAIL: {len(refused)} cell(s) aborted with abort_reason "
              f"none (the harness refused them; no budget expired):")
        for r in refused:
            print(f"  {r}")
    if drifts:
        print(f"\nFAIL: {len(drifts)} deterministic column(s) or "
              f"counter(s) drifted "
              f"(precision/correctness change; refresh the baseline if "
              f"intended):")
        for d in drifts:
            print(f"  {d}")
    if regressions:
        print(f"\nFAIL: {len(regressions)} cell(s) regressed more than "
              f"{args.threshold:.0f}%:")
        for r in regressions:
            print(f"  {r}")
    if refused or drifts or regressions:
        return 1
    print(f"OK: no cell regressed more than {args.threshold:.0f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
