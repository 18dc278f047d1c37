#!/usr/bin/env python3
"""Summarize a hybridpt JSONL trace: top phases by time, top rules by fires.

Usage:
    tools/trace_summary.py TRACE.jsonl [--top K]
    tools/trace_summary.py PROFILE.json [--top K]

The input is the file written by `--trace-out` (see docs/OBSERVABILITY.md
for the record schema), or a cost-attribution profile file written by
`--profile-out` (hybridpt, hybridpt --matrix, bench/table1_main) or a
BENCH_*.json with embedded per-cell "profile" objects — profile inputs
are auto-detected (a single JSON object with a "cells" array) and render
one top-K attribution table per cell: hottest Figure-2 rules, methods,
and allocation sites by derivation-step count and arena bytes.

For JSONL traces, these summaries are printed:

  * top-K spans, aggregated by span name across threads (total wall time,
    call count) — the "where did the time go" view;
  * top-K rule counters, summed over the final totals of each label —
    the "which Figure-2 rules did the work" view;
  * per-label final heartbeat state (facts, nodes, memory), each aborted
    run flagged with its abort reason;
  * per-request latency (docs/SERVING.md, only when hybridpt-serve
    "request" records are present): per-kind outcome counts, cache hit
    rate, and min/avg/p50/p95/p99/max latency — mixed batch/serve traces
    render both this and the batch views;
  * fallback-ladder descents (docs/ROBUSTNESS.md): which labels degraded,
    through which rungs, why, and how much time the aborted attempts cost.

Only the Python standard library is used.  Unknown record types are
ignored so the tool keeps working as the schema grows.
"""

import argparse
import json
import os
import sys

RULE_PREFIX = "rule_"


def to_num(value, default=0):
    """Coerces a record field to a number, tolerating malformed traces
    (a truncated write can leave partial values behind)."""
    if isinstance(value, bool):
        return default
    if isinstance(value, (int, float)):
        return value
    try:
        return float(value)
    except (TypeError, ValueError):
        return default


def load_profile_file(path):
    """Returns the parsed object when the file is a single-JSON profile or
    BENCH file (an object with a "cells" array), else None.  Never raises
    on malformed input — the JSONL path handles everything else."""
    try:
        with open(path) as f:
            head = f.read(1 << 24)  # Profiles are small; bound the sniff.
    except OSError as e:
        sys.exit(f"error: cannot read {path}: {e}")
    try:
        data = json.loads(head)
    except json.JSONDecodeError:
        return None
    if isinstance(data, dict) and isinstance(data.get("cells"), list):
        return data
    # A single-run `hybridpt --profile-out` writes one bare blame object;
    # wrap it as a one-cell file so both shapes render the same way.
    if isinstance(data, dict) and ("total_steps" in data
                                   or "by_rule" in data):
        return {"cells": [{"policy": "(single run)", "profile": data}]}
    return None


def summarize_profiles(path, data, top):
    """Renders per-cell cost-attribution profiles (prov::renderBlameJson
    objects under each cell's "profile" key).  Tolerates truncated or
    hand-edited cells: anything malformed becomes a warning, not a
    traceback."""
    harness = data.get("harness")
    print(f"cost-attribution profiles: {path}"
          + (f" (harness {harness})" if isinstance(harness, str) else ""))
    rendered = 0
    for i, cell in enumerate(data["cells"]):
        if not isinstance(cell, dict):
            print(f"warning: cell #{i} is not an object, skipped",
                  file=sys.stderr)
            continue
        profile = cell.get("profile")
        if profile is None:
            continue  # BENCH cells without --profile-out carry none.
        name = "/".join(str(cell[k]) for k in ("benchmark", "policy")
                        if isinstance(cell.get(k), str)) or f"cell #{i}"
        if not isinstance(profile, dict):
            print(f"warning: {name}: 'profile' is not an object, skipped",
                  file=sys.stderr)
            continue
        rendered += 1
        steps = int(to_num(profile.get("total_steps", 0)))
        facts = int(to_num(profile.get("total_facts", 0)))
        arena = int(to_num(profile.get("arena_bytes", 0)))
        print(f"\n{name}: {fmt_count(steps)} derivation step(s), "
              f"{fmt_count(facts)} fact(s), arena {fmt_bytes(arena)}")
        for section, title in (("by_rule", "hottest rules"),
                               ("by_method", "hottest methods"),
                               ("by_alloc_site", "hottest alloc sites"),
                               ("by_ctx_depth", "by context depth")):
            rows = profile.get(section)
            if not isinstance(rows, list) or not rows:
                continue
            clean = []
            for row in rows[:top]:
                if not isinstance(row, dict):
                    continue
                key = row.get("key")
                clean.append((key if isinstance(key, str) else "?",
                              int(to_num(row.get("steps", 0))),
                              int(to_num(row.get("bytes", 0)))))
            if not clean:
                print(f"  warning: {section} rows malformed, skipped")
                continue
            width = max(len(k) for k, _, _ in clean)
            print(f"  {title}:")
            for key, row_steps, row_bytes in clean:
                pct = 100.0 * row_steps / steps if steps else 0.0
                print(f"    {key:<{width}}  {fmt_count(row_steps):>8} "
                      f"step(s) ({pct:.1f}%)  {fmt_bytes(row_bytes)}")
    if not rendered:
        print("no cells carry a 'profile' object (run with --profile-out "
              "and provenance compiled in)")
    return 0


def load_records(path):
    records = []
    try:
        with open(path) as f:
            for lineno, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as e:
                    print(f"warning: {path}:{lineno}: bad JSON ({e}), "
                          f"skipped", file=sys.stderr)
                    continue
                if isinstance(rec, dict):
                    records.append(rec)
    except OSError as e:
        sys.exit(f"error: cannot read {path}: {e}")
    return records


def fmt_ms(ms):
    if ms >= 1000.0:
        return f"{ms / 1000.0:.2f} s"
    return f"{ms:.2f} ms"


def fmt_count(n):
    if n >= 10**9:
        return f"{n / 1e9:.2f}G"
    if n >= 10**6:
        return f"{n / 1e6:.2f}M"
    if n >= 10**4:
        return f"{n / 1e3:.1f}K"
    return str(n)


def fmt_bytes(n):
    if n >= 1 << 30:
        return f"{n / (1 << 30):.2f} GiB"
    if n >= 1 << 20:
        return f"{n / (1 << 20):.2f} MiB"
    if n >= 1 << 10:
        return f"{n / (1 << 10):.1f} KiB"
    return f"{n} B"


def summarize_spans(records, top):
    agg = {}  # name -> [total_ms, count, cat]
    for rec in records:
        if rec.get("type") != "span":
            continue
        name = rec.get("name", "?")
        if not isinstance(name, str):
            name = "?"
        dur = to_num(rec.get("dur_ms", 0.0), 0.0)
        entry = agg.setdefault(name, [0.0, 0, rec.get("cat", "")])
        entry[0] += dur
        entry[1] += 1
    if not agg:
        print("no span records")
        return
    ranked = sorted(agg.items(), key=lambda kv: -kv[1][0])[:top]
    width = max(len(n) for n, _ in ranked)
    print(f"top {len(ranked)} spans by total time:")
    for name, (total, count, cat) in ranked:
        avg = total / count if count else 0.0
        print(f"  {name:<{width}}  {fmt_ms(total):>10}  "
              f"x{count}  avg {fmt_ms(avg)}  [{cat}]")


def final_totals_per_label(records):
    """Last seen totals per label: counters records win over heartbeats
    with the same label; later records win over earlier ones."""
    totals = {}
    for rec in records:
        kind = rec.get("type")
        if kind == "counters":
            counters = rec.get("counters")
        elif kind == "heartbeat":
            counters = rec.get("total")
        else:
            continue
        if isinstance(counters, dict):
            totals[str(rec.get("label", ""))] = counters
    return totals


def summarize_rules(records, top):
    totals = final_totals_per_label(records)
    summed = {}
    for counters in totals.values():
        for key, val in counters.items():
            if key.startswith(RULE_PREFIX) and isinstance(val, (int, float)):
                summed[key] = summed.get(key, 0) + int(val)
    if not summed:
        print("no rule counters (telemetry off or no counter records)")
        return
    ranked = sorted(summed.items(), key=lambda kv: -kv[1])[:top]
    width = max(len(n) for n, _ in ranked)
    grand = sum(summed.values())
    print(f"top {len(ranked)} rules by fires "
          f"(total {fmt_count(grand)} across {len(totals)} label(s)):")
    for name, fires in ranked:
        pct = 100.0 * fires / grand if grand else 0.0
        print(f"  {name:<{width}}  {fmt_count(fires):>8}  ({pct:.1f}%)")


def summarize_heartbeats(records):
    last = {}
    for rec in records:
        if rec.get("type") == "heartbeat":
            last[str(rec.get("label", ""))] = rec
    if not last:
        return
    print(f"final heartbeat per label ({len(last)}):")
    aborted = 0
    for label in sorted(last):
        hb = last[label]
        line = (f"  {label or '(unlabeled)'}: "
                f"steps={fmt_count(int(to_num(hb.get('step', 0))))} "
                f"facts={fmt_count(int(to_num(hb.get('facts', 0))))} "
                f"nodes={fmt_count(int(to_num(hb.get('nodes', 0))))} "
                f"mem={fmt_bytes(int(to_num(hb.get('memory_bytes', 0))))}")
        reason = hb.get("abort_reason")
        if isinstance(reason, str) and reason:
            aborted += 1
            line += f"  ABORTED ({reason})"
        print(line)
    if aborted:
        print(f"{aborted} of {len(last)} label(s) aborted; their facts are "
              f"partial under-approximations")


def percentile(sorted_vals, p):
    if not sorted_vals:
        return 0.0
    rank = p * (len(sorted_vals) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (rank - lo)


def summarize_requests(records, top):
    """Per-request latency view over the daemon's "request" records
    (docs/SERVING.md): one row per request kind with outcome counts, cache
    hit rate, and latency percentiles.  Returns False when the trace has
    no request records (a batch-run trace) so the caller can skip the
    section entirely — mixed batch/serve traces render both views."""
    by_kind = {}  # kind -> dict(lat=[], queue=[], outcomes={}, hits=n)
    for rec in records:
        if rec.get("type") != "request":
            continue
        kind = rec.get("kind")
        if not isinstance(kind, str) or not kind:
            kind = "?"
        entry = by_kind.setdefault(kind, {"lat": [], "queue": [],
                                          "outcomes": {}, "hits": 0})
        entry["lat"].append(to_num(rec.get("latency_ms", 0.0), 0.0))
        entry["queue"].append(to_num(rec.get("queue_ms", 0.0), 0.0))
        outcome = rec.get("outcome")
        if not isinstance(outcome, str) or not outcome:
            outcome = "?"
        entry["outcomes"][outcome] = entry["outcomes"].get(outcome, 0) + 1
        if rec.get("cache_hit") is True:
            entry["hits"] += 1
    if not by_kind:
        return False
    total = sum(len(e["lat"]) for e in by_kind.values())
    print(f"per-request latency ({total} request(s), "
          f"{len(by_kind)} kind(s)):")
    width = max(len(k) for k in by_kind)
    for kind in sorted(by_kind, key=lambda k: -len(by_kind[k]["lat"]))[:top]:
        entry = by_kind[kind]
        lat = sorted(entry["lat"])
        n = len(lat)
        avg = sum(lat) / n if n else 0.0
        outcomes = ", ".join(f"{k}:{v}" for k, v in
                             sorted(entry["outcomes"].items()))
        hit_pct = 100.0 * entry["hits"] / n if n else 0.0
        print(f"  {kind:<{width}}  x{n:<6} "
              f"min {fmt_ms(lat[0] if lat else 0.0)}  "
              f"avg {fmt_ms(avg)}  p50 {fmt_ms(percentile(lat, 0.50))}  "
              f"p95 {fmt_ms(percentile(lat, 0.95))}  "
              f"p99 {fmt_ms(percentile(lat, 0.99))}  "
              f"max {fmt_ms(lat[-1] if lat else 0.0)}")
        print(f"  {'':<{width}}  cache hits {hit_pct:.0f}%  [{outcomes}]")
    return True


def summarize_ladder(records):
    """Fallback-ladder descents, grouped per label (docs/ROBUSTNESS.md)."""
    by_label = {}
    for rec in records:
        if rec.get("type") == "ladder":
            by_label.setdefault(str(rec.get("label", "")), []).append(rec)
    if not by_label:
        return
    print(f"fallback ladder ({len(by_label)} degraded label(s)):")
    for label in sorted(by_label):
        hops = by_label[label]
        wasted = sum(to_num(h.get("solve_ms", 0.0), 0.0) for h in hops)
        chain = []
        for hop in hops:
            chain.append(f"{hop.get('from', '?')} "
                         f"[{hop.get('reason', '?')}]")
        landed = hops[-1].get("to") or "EXHAUSTED"
        print(f"  {label or '(unlabeled)'}: "
              f"{' -> '.join(chain)} -> {landed}  "
              f"(aborted attempts cost {fmt_ms(wasted)})")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trace", help="JSONL trace from --trace-out, or a "
                                  "profile/BENCH json from --profile-out")
    ap.add_argument("--top", type=int, default=10,
                    help="entries per ranking (default: 10)")
    args = ap.parse_args()

    profile_data = load_profile_file(args.trace)
    if profile_data is not None:
        return summarize_profiles(args.trace, profile_data, args.top)

    records = load_records(args.trace)
    if not records:
        sys.exit(f"error: {args.trace} contains no trace records "
                 f"(empty file or not a --trace-out JSONL trace)")
    meta = next((r for r in records if r.get("type") == "meta"), None)
    if meta is None:
        print("warning: no meta record (file truncated or not a trace?)",
              file=sys.stderr)
    else:
        print(f"trace: version={meta.get('version')} "
              f"telemetry={meta.get('telemetry')} "
              f"({len(records)} records)")

    summarize_spans(records, args.top)
    print()
    summarize_rules(records, args.top)
    print()
    summarize_heartbeats(records)
    if any(r.get("type") == "request" for r in records):
        print()
        summarize_requests(records, args.top)
    ladder = [r for r in records if r.get("type") == "ladder"]
    if ladder:
        print()
        summarize_ladder(records)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        os._exit(0)  # reader closed early (e.g. piped into head)
