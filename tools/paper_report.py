#!/usr/bin/env python3
"""Render the paper's evaluation views from one table1_main record.

Usage:
    tools/paper_report.py BENCH_table1.json

`bench/table1_main` solves every benchmark under every registered policy
and records each cell's Table 1 columns, context counts and time.  This
script reads that record and prints, as Markdown, the views EXPERIMENTS.md
shows:

  record    what the record is: its cells, budget, runs and build stamps
  table1    bloat's casts and times next to the paper's, and the
            per-column verdicts over the whole suite
  figure3   the Figure 3 series and ASCII scatter (time vs. may-fail
            casts) for the paper's eight benchmarks, with the Pareto front
  headline  the eight geometric-mean ratios of the paper's Sections 1/4
  ablation  the Section 3 context-choice ablations
  depth     the Section 2.2/6 depth ladder against S-2obj+H

Each view is one block between `<!-- paper_report: NAME -->` and
`<!-- /paper_report: NAME -->` lines, and blocks are separated by one
blank line.  Every verdict is computed from the record's numbers.  Cells
that aborted on their budget print as "-" and drop out of every ratio
and verdict.  The script uses the Python standard library only.
"""

import json
import math
import sys

TABLE1 = ["1call", "1call+H", "1obj", "U-1obj", "SA-1obj", "SB-1obj",
          "2obj+H", "U-2obj+H", "S-2obj+H", "2type+H", "U-2type+H",
          "S-2type+H", "cs", "S-cs"]
FIGURE3_BENCHMARKS = ["antlr", "bloat", "chart", "eclipse", "luindex",
                      "lusearch", "pmd", "xalan"]
ABLATION_BENCHMARKS = ["antlr", "bloat", "hsqldb", "xalan"]
ABLATION_POLICIES = ["2obj+H", "S-2obj+H", "U-2obj+H", "U-2obj+HI",
                     "U-2obj+H-swapped", "D-2obj+H"]
DEPTH_BENCHMARKS = ["luindex", "antlr", "xalan", "bloat"]
DEPTH_POLICIES = ["1call", "2call+H", "1obj", "2obj+H", "3obj+2H",
                  "S-2obj+H"]
HEAVY_BENCHMARKS = ["bloat", "chart", "xalan"]

# The paper's Table 1 row for bloat ("-" = did not finish in 90 minutes).
PAPER_BLOAT_CASTS = {"1call": 2008, "1obj": 2013, "SB-1obj": 1933,
                     "2obj+H": 1403, "U-2obj+H": None, "S-2obj+H": 1320,
                     "2type+H": 1720}
PAPER_BLOAT_SECONDS = {"1call": 186, "1obj": 374, "SA-1obj": 353,
                       "SB-1obj": 391, "2obj+H": 5060, "U-2obj+H": None,
                       "S-2obj+H": 5045, "2type+H": 142}

# (first, second, the paper's claim, verdict text, verdict test over the
# time / cs-facts / cast ratios first/second).
HEADLINE = [
    ("U-1obj", "1obj", "3.9x slower", "time ratio > 1",
     lambda t, f, c: t > 1),
    ("S-2obj+H", "2obj+H", "1.53x faster, more precise",
     "time ratio < 1, cast ratio < 1", lambda t, f, c: t < 1 and c < 1),
    ("SA-1obj", "1obj", "1.12x faster, more precise",
     "time ratio < 1, cast ratio < 1", lambda t, f, c: t < 1 and c < 1),
    ("SB-1obj", "1obj", "1.12x faster, more precise",
     "time ratio < 1, cast ratio < 1", lambda t, f, c: t < 1 and c < 1),
    ("S-2obj+H", "U-2obj+H", "imperceptibly less precise, far cheaper",
     "time ratio < 1, cast ratio < 1.10",
     lambda t, f, c: t < 1 and c < 1.10),
    ("S-2type+H", "U-2type+H", "imperceptibly less precise, far cheaper",
     "time ratio < 1, cast ratio < 1.10",
     lambda t, f, c: t < 1 and c < 1.10),
    ("U-2obj+H", "2obj+H", "twice the facts, or more",
     "cs-facts ratio >= 2", lambda t, f, c: f >= 2),
    ("S-2type+H", "2type+H", "as fast or faster, more precise",
     "time ratio <= 1, cast ratio < 1", lambda t, f, c: t <= 1 and c < 1),
]

# (hybrid, base) pairs where the hybrid's context refines the base's.
REFINES = [("U-1obj", "1obj"), ("SB-1obj", "1obj"), ("U-2obj+H", "2obj+H"),
           ("S-2obj+H", "2obj+H"), ("U-2type+H", "2type+H"),
           ("S-2type+H", "2type+H")]


def fixed(value, decimals):
    return "%.*f" % (decimals, value)


def seconds(ms):
    sec = ms / 1000.0
    return fixed(sec, 2 if sec < 10 else 1)


def fact_count(n):
    if n >= 1000000:
        return fixed(n / 1e6, 1) + "M"
    if n >= 1000:
        return fixed(n / 1e3, 1) + "K"
    return str(n)


class Record:
    def __init__(self, doc):
        self.doc = doc
        self.cells = {}
        self.benchmarks = []
        self.policies = []
        for c in doc["cells"]:
            # Degraded cells are keyed by the policy that was requested.
            policy = c.get("fallback_from") or c["policy"]
            self.cells[(c["benchmark"], policy)] = c
            if c["benchmark"] not in self.benchmarks:
                self.benchmarks.append(c["benchmark"])
            if policy not in self.policies:
                self.policies.append(policy)

    def get(self, bench, policy):
        """The converged cell, or None (absent or aborted)."""
        c = self.cells.get((bench, policy))
        return None if c is None or c.get("aborted") else c

    def present(self, names):
        return [b for b in names if b in self.benchmarks]


def block(name, lines):
    return "\n".join(["<!-- paper_report: %s -->" % name] + lines +
                     ["<!-- /paper_report: %s -->" % name]) + "\n"


def table(header, rows):
    out = ["| " + " | ".join(header) + " |",
           "|" + "---|" * len(header)]
    out += ["| " + " | ".join(r) + " |" for r in rows]
    return out


def cells_of(rec, bench, policies):
    cells = [rec.get(bench, p) for p in policies]
    return None if None in cells else cells


def verdict_table(rec, verdicts):
    """One row per (claim, benchmarks, policies, test): test(*cells)
    judges a benchmark from its cells of those policies, and the row says
    on how many of the benchmarks where all of them converged it holds,
    naming the others."""
    rows = []
    for claim, benches, policies, test in verdicts:
        judged = [b for b in benches if cells_of(rec, b, policies)]
        misses = [b for b in judged
                  if not test(*cells_of(rec, b, policies))]
        holds = "%d/%d" % (len(judged) - len(misses), len(judged))
        if misses:
            holds += " (not on %s)" % ", ".join(misses)
        rows.append([claim, holds])
    return table(["verdict", "holds on"], rows)


def fewer(key):
    """test(x, y): x's cell has a smaller \p key than y's."""
    return lambda x, y: x[key] < y[key]


def metric_rows(rec, bench, policies, rows):
    out = []
    for label, show in rows:
        cols = [label]
        for p in policies:
            c = rec.get(bench, p)
            cols.append("-" if c is None else show(c))
        out.append(cols)
    return out


def render_record(rec):
    d = rec.doc
    build = " ".join(str(d[k]) for k in ("build_type", "compiler") if k in d)
    switches = ", ".join("%s %s" % (k, "on" if d[k] else "off") for k in
                         ("telemetry", "provenance") if k in d)
    aborted = sum(1 for c in d["cells"] if c.get("aborted"))
    lines = [
        "Record: `%s`, %d benchmarks x %d policies = %d cells, %d aborted "
        "(budget %s ms per cell)." % (
            d.get("harness", "?"), len(rec.benchmarks), len(rec.policies),
            len(d["cells"]), aborted, d.get("budget_ms", "?")),
        "Times are medians of %s runs with %s worker thread(s), on a host "
        "with %s hardware threads; %s build; %s." % (
            d.get("runs", "?"), d.get("threads", "?"),
            d.get("hardware_threads", "?"), build or "unstamped",
            switches or "switches unstamped"),
        "Times describe that host only and gate nothing; every other "
        "number is deterministic.",
    ]
    return block("record", lines)


def render_table1(rec):
    lines = []
    base = rec.get("bloat", "1obj")
    if base is not None:
        lines.append("bloat, normalized within each row to 1obj = 1.00 "
                     "(paper: \"-\" = did not finish):")
        lines.append("")
        for title, paper, value, show in (
                ("may-fail casts", PAPER_BLOAT_CASTS,
                 lambda c: c["may_fail_casts"], str),
                ("elapsed time", PAPER_BLOAT_SECONDS,
                 lambda c: c["time_ms"], seconds)):
            policies = list(paper)
            unit = "(s)" if title == "elapsed time" else "(abs)"
            rows = [["paper " + unit] + ["-" if paper[p] is None
                                         else str(paper[p])
                                         for p in policies],
                    ["paper (rel)"] + ["-" if paper[p] is None
                                       else fixed(paper[p] / paper["1obj"],
                                                  2) for p in policies]]
            repro = [rec.get("bloat", p) for p in policies]
            rows.append(["repro " + unit] + ["-" if c is None
                                             else show(value(c))
                                             for c in repro])
            rows.append(["repro (rel)"] + [
                "-" if c is None else fixed(value(c) / value(base), 2)
                for c in repro])
            lines += table([title] + policies, rows)
            lines.append("")

    benches = rec.benchmarks
    heavy = rec.present(HEAVY_BENCHMARKS)
    refining = [p for pair in REFINES for p in pair]

    def refines(key):
        return lambda *c: all(h[key] <= b[key]
                              for h, b in zip(c[::2], c[1::2]))

    avg = "avg_objs_per_var"
    lines += verdict_table(rec, [
        ("avg objs/var: 2obj+H <= 2type+H <= 1obj", benches,
         ["2obj+H", "2type+H", "1obj"],
         lambda o, t, one: o[avg] <= t[avg] <= one[avg]),
        ("avg objs/var: 1call < 1obj (paper: 1call slightly worse)",
         benches, ["1call", "1obj"], fewer(avg)),
        ("call-graph edges: every refining hybrid <= its base", benches,
         refining, refines("cg_edges")),
        ("poly v-calls: every refining hybrid <= its base", benches,
         refining, refines("poly_vcalls")),
        ("may-fail casts: every refining hybrid <= its base", benches,
         refining, refines("may_fail_casts")),
        ("may-fail casts: S-2obj+H < U-2obj+H (paper: U-2obj+H <= "
         "S-2obj+H)", benches, ["S-2obj+H", "U-2obj+H"],
         fewer("may_fail_casts")),
        ("heavy benchmarks: 2obj+H slower than 1obj", heavy,
         ["1obj", "2obj+H"], fewer("time_ms")),
        ("heavy benchmarks: 2obj+H more cs facts than 1obj", heavy,
         ["1obj", "2obj+H"], fewer("cs_vpt_facts")),
        ("heavy benchmarks: U-2obj+H the slowest Table 1 analysis", heavy,
         TABLE1, lambda *c: max(zip(c, TABLE1),
                                key=lambda cp: cp[0]["time_ms"])[1] ==
         "U-2obj+H"),
    ])
    ratios = []
    for b in heavy:
        cells = cells_of(rec, b, ["2obj+H", "1obj"])
        if cells:
            ratios.append(cells[0]["time_ms"] / cells[1]["time_ms"])
    if ratios:
        lines.append("")
        lines.append("2obj+H / 1obj time on the heavy benchmarks: x%s to "
                     "x%s (paper, bloat: x13.5)." % (fixed(min(ratios), 2),
                                                     fixed(max(ratios), 2)))
    return block("table1", lines)


def pareto(points):
    """Policies no other point beats on both time and casts."""
    front = []
    for p, t, c in points:
        if not any(t2 <= t and c2 <= c and (t2, c2) != (t, c)
                   for _, t2, c2 in points):
            front.append(p)
    return front


def ascii_scatter(points):
    """The figure as 57x17 characters: Y (time) clipped at 3x the median,
    X spanning the cast range; clipped points sit on the top row."""
    width, height = 56, 16
    times = sorted(t for _, t, _ in points)
    clip = max(times[len(times) // 2] * 3.0, times[0] + 1)
    lo = min(c for _, _, c in points)
    hi = max(c for _, _, c in points)
    if lo >= hi:
        hi = lo + 1
    canvas = [[" "] * (width + 1) for _ in range(height + 1)]
    key, clipped = [], []
    for i, (policy, t, c) in enumerate(points):
        label = chr(ord("a") + i)
        key.append("%s=%s" % (label, policy))
        x = int((c - lo) / (hi - lo) * width)
        y = height - int(min(t, clip) / clip * height)
        if t > clip:
            y = 0
            clipped.append("%s (%ss)" % (label, seconds(t)))
        canvas[y][x] = label
    out = ["key: " + "  ".join(key)]
    if clipped:
        out.append("clipped at top: " + " ".join(clipped))
    out.append("time")
    out += ["|" + "".join(row).rstrip() for row in canvas]
    out.append("+" + "-" * (width + 1) + "-> may-fail casts (%d..%d)"
               % (lo, hi))
    return out


def render_figure3(rec):
    benches = rec.present(FIGURE3_BENCHMARKS)
    lines = ["Series: may-fail casts (elapsed s) per analysis; lower is "
             "better on both axes.", ""]
    rows = []
    for p in TABLE1:
        row = [p]
        for b in benches:
            c = rec.get(b, p)
            row.append("-" if c is None else "%d (%s)" % (
                c["may_fail_casts"], seconds(c["time_ms"])))
        rows.append(row)
    lines += table(["analysis"] + benches, rows)
    for b in benches:
        points = [(p, c["time_ms"], c["may_fail_casts"])
                  for p in TABLE1 for c in [rec.get(b, p)] if c is not None]
        if not points:
            continue
        lines += ["", "%s (Pareto front: %s):" % (b, ", ".join(
            pareto(points))), "", "```"]
        lines += ascii_scatter(points)
        lines.append("```")
    lines.append("")
    lines += verdict_table(rec, [
        ("S-2obj+H is on the time/casts Pareto front", benches, TABLE1,
         lambda *c: "S-2obj+H" in pareto(
             [(p, x["time_ms"], x["may_fail_casts"])
              for p, x in zip(TABLE1, c)])),
        ("U-2obj+H has the fewest may-fail casts", benches, TABLE1,
         lambda *c: min(zip(c, TABLE1),
                        key=lambda cp: cp[0]["may_fail_casts"])[1] ==
         "U-2obj+H"),
        ("S-2type+H has fewer casts than 2type+H at no more time", benches,
         ["S-2type+H", "2type+H"], lambda x, y: fewer("may_fail_casts")(
             x, y) and x["time_ms"] <= y["time_ms"]),
        ("1call+H has fewer casts than 1call", benches, ["1call+H", "1call"],
         fewer("may_fail_casts")),
    ])
    return block("figure3", lines)


def geo_ratio(rec, first, second, key):
    """Geometric mean of first/second over the benchmarks where both
    converged and both values are positive; (ratio, benchmarks used)."""
    logs = []
    for b in rec.benchmarks:
        cells = cells_of(rec, b, [first, second])
        if cells is None:
            continue
        x, y = cells[0][key], cells[1][key]
        if x > 0 and y > 0:
            logs.append(math.log(x / y))
    if not logs:
        return None, 0
    return math.exp(sum(logs) / len(logs)), len(logs)


def render_headline(rec):
    rows = []
    for first, second, claim, criterion, test in HEADLINE:
        t, n = geo_ratio(rec, first, second, "time_ms")
        f, _ = geo_ratio(rec, first, second, "cs_vpt_facts")
        c, _ = geo_ratio(rec, first, second, "may_fail_casts")
        if None in (t, f, c):
            rows.append(["%s / %s" % (first, second), claim] +
                        ["-"] * 6)
            continue
        rows.append(["%s / %s" % (first, second), claim,
                     "x" + fixed(t, 2), "x" + fixed(f, 2),
                     "x" + fixed(c, 2), str(n), criterion,
                     "holds" if test(t, f, c) else "fails"])
    lines = ["Geometric means over the benchmarks where both analyses "
             "converged; a ratio below 1 means the first analysis is "
             "cheaper or more precise.", ""]
    lines += table(["pair", "paper", "time", "cs-facts", "may-fail casts",
                    "benchmarks", "criterion", "verdict"], rows)
    return block("headline", lines)


def per_benchmark_tables(rec, benches, policies, rows):
    lines = []
    for b in benches:
        lines += ["", "%s:" % b, ""]
        lines += table(["metric"] + policies,
                       metric_rows(rec, b, policies, rows))
    return lines


def render_ablation(rec):
    benches = rec.present(ABLATION_BENCHMARKS)
    rows = [("may-fail casts", lambda c: str(c["may_fail_casts"])),
            ("poly v-calls", lambda c: str(c["poly_vcalls"])),
            ("call-graph edges", lambda c: str(c["cg_edges"])),
            ("elapsed time (s)", lambda c: seconds(c["time_ms"])),
            ("sensitive var-points-to",
             lambda c: fact_count(c["cs_vpt_facts"])),
            ("heap contexts", lambda c: str(c["num_hcontexts"]))]
    lines = ["Context-choice ablations (Section 3) and Section 6's "
             "depth-adaptive D-2obj+H."]
    lines += per_benchmark_tables(rec, benches, ABLATION_POLICIES, rows)

    lines.append("")
    lines += verdict_table(rec, [
        ("U-2obj+HI has more heap contexts than U-2obj+H and no fewer "
         "may-fail casts", benches, ["U-2obj+H", "U-2obj+HI"],
         lambda u, hi: fewer("num_hcontexts")(u, hi) and
         u["may_fail_casts"] <= hi["may_fail_casts"]),
        ("U-2obj+H-swapped has more may-fail casts than U-2obj+H", benches,
         ["U-2obj+H", "U-2obj+H-swapped"], fewer("may_fail_casts")),
        ("D-2obj+H has S-2obj+H's may-fail casts", benches,
         ["D-2obj+H", "S-2obj+H"],
         lambda d, s: d["may_fail_casts"] == s["may_fail_casts"]),
    ])
    return block("ablation", lines)


def render_depth(rec):
    benches = rec.present(DEPTH_BENCHMARKS)
    rows = [("may-fail casts", lambda c: str(c["may_fail_casts"])),
            ("poly v-calls", lambda c: str(c["poly_vcalls"])),
            ("elapsed time (s)", lambda c: seconds(c["time_ms"])),
            ("sensitive var-points-to",
             lambda c: fact_count(c["cs_vpt_facts"])),
            ("method contexts", lambda c: str(c["num_contexts"]))]
    lines = ["Context-depth ladder against the selective hybrid."]
    lines += per_benchmark_tables(rec, benches, DEPTH_POLICIES, rows)

    pair = ["S-2obj+H", "3obj+2H"]
    lines.append("")
    lines += verdict_table(rec, [
        ("S-2obj+H has fewer may-fail casts than 3obj+2H", benches, pair,
         fewer("may_fail_casts")),
        ("S-2obj+H has fewer cs facts than 3obj+2H", benches, pair,
         fewer("cs_vpt_facts")),
        ("S-2obj+H is faster than 3obj+2H", benches, pair, fewer("time_ms")),
    ])
    return block("depth", lines)


def render(doc):
    rec = Record(doc)
    return "\n".join(view(rec) for view in (
        render_record, render_table1, render_figure3, render_headline,
        render_ablation, render_depth))


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: paper_report.py RECORD.json")
    path = sys.argv[1]
    try:
        with open(path) as f:
            doc = json.load(f)
        text = render(doc)
    except (OSError, ValueError) as e:
        sys.exit("error: cannot read %s: %s" % (path, e))
    except (KeyError, TypeError, AttributeError) as e:
        sys.exit("error: %s: not a table1_main record (%r)" % (path, e))
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
