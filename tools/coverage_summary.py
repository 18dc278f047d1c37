#!/usr/bin/env python3
"""Per-module line coverage of a gcov-instrumented build.

Usage:
    tools/coverage_summary.py BUILD

BUILD is a build tree configured with
`-DCMAKE_CXX_FLAGS="--coverage -O0" -DCMAKE_EXE_LINKER_FLAGS=--coverage`
in which the tests have run (ctest leaves one .gcda file next to the
.gcno of every object file that ran).  Every .gcno is read with `gcov
--json-format --stdout`, so an object no test ran counts as all
uncovered instead of dropping out of the table.  A line
counts once per source file however many objects compile it (headers
and the libraries shared by several binaries): it is executable if any
object reports it and covered if any reports a nonzero count.  Only
sources under src/, tools/, bench/ and examples/ of this checkout count.

Prints one row per module (each src/ subdirectory, and tools, bench and
examples), then the total.  The table is a report, not a gate: the exit
status is 0 unless the build has no coverage data or gcov fails.

Only the Python standard library is used.
"""

import json
import os
import subprocess
import sys

REPO = os.path.normpath(os.path.join(os.path.dirname(
    os.path.abspath(__file__)), os.pardir))
TOP_DIRS = ("src", "tools", "bench", "examples")


def module_of(path):
    """The module a repo-relative source path belongs to, or None."""
    parts = path.split(os.sep)
    if parts[0] not in TOP_DIRS:
        return None
    if parts[0] == "src" and len(parts) > 2:
        return "src/" + parts[1]
    return parts[0]


def gcov_files(gcno):
    """The "files" entries gcov reports for one object's notes file."""
    proc = subprocess.run(["gcov", "--json-format", "--stdout", gcno],
                          capture_output=True, text=True,
                          cwd=os.path.dirname(gcno))
    if proc.returncode != 0:
        sys.exit(f"error: gcov failed on {gcno}: {proc.stderr.strip()}")
    files = []
    for line in proc.stdout.splitlines():
        if line.strip():
            doc = json.loads(line)
            cwd = doc.get("current_working_directory", "")
            for f in doc.get("files", []):
                files.append((os.path.normpath(os.path.join(cwd, f["file"])),
                              f.get("lines", [])))
    return files


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__.strip().splitlines()[2].strip())
    build = os.path.abspath(sys.argv[1])
    gcnos = sorted(os.path.join(d, name)
                   for d, _, names in os.walk(build)
                   for name in names if name.endswith(".gcno"))
    if not any(os.path.exists(g[:-len(".gcno")] + ".gcda") for g in gcnos):
        sys.exit(f"error: no .gcda files under {build} (configure with "
                 f"--coverage and run ctest first)")

    # (repo-relative path) -> {line: max count}
    lines = {}
    for gcno in gcnos:
        for path, rows in gcov_files(gcno):
            rel = os.path.relpath(path, REPO)
            if rel.startswith(os.pardir) or module_of(rel) is None:
                continue
            counts = lines.setdefault(rel, {})
            for row in rows:
                n = row["line_number"]
                counts[n] = max(counts.get(n, 0), row["count"])

    modules = {}
    for rel, counts in lines.items():
        row = modules.setdefault(module_of(rel), [0, 0])
        row[0] += len(counts)
        row[1] += sum(c > 0 for c in counts.values())
    width = max(len(m) for m in modules)
    print(f"{'module':<{width}}  {'lines':>6}  {'covered':>7}  {'pct':>6}")
    all_total = all_covered = 0
    for name in sorted(modules):
        total, covered = modules[name]
        all_total += total
        all_covered += covered
        print(f"{name:<{width}}  {total:>6}  {covered:>7}  "
              f"{100.0 * covered / total:>5.1f}%")
    print(f"{'total':<{width}}  {all_total:>6}  {all_covered:>7}  "
          f"{100.0 * all_covered / all_total:>5.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
