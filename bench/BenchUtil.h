//===- bench/BenchUtil.h - Shared harness helpers ---------------*- C++ -*-===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the table/figure harnesses: run one (benchmark,
/// policy) cell — or a whole policy matrix concurrently — under a budget,
/// with optional repetition taking medians as the paper does ("all numbers
/// shown are medians of three runs"), and emit machine-readable
/// BENCH_*.json records so the performance trajectory is tracked across
/// PRs (tools/check_bench_regression.py diffs two such files).
///
//===----------------------------------------------------------------------===//

#ifndef HYBRIDPT_BENCH_BENCHUTIL_H
#define HYBRIDPT_BENCH_BENCHUTIL_H

#include "pta/Metrics.h"
#include "pta/Solver.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pt {

class Program;

namespace trace {
class TraceRecorder;
}

/// Configuration for cell runs, overridable via environment variables:
/// HYBRIDPT_BUDGET_MS (per-cell time budget, 0 = unlimited),
/// HYBRIDPT_RUNS (repetitions per cell; median time reported),
/// HYBRIDPT_THREADS (worker threads for matrix runs; 0 = hardware),
/// HYBRIDPT_LADDER (non-empty = degrade budget-aborted cells through the
/// fallback ladder instead of reporting a dash).
struct CellOptions {
  uint64_t BudgetMs = 120000;
  uint32_t Runs = 1;
  unsigned Threads = 1;
  /// When a cell exhausts its budget, re-run it down the policy fallback
  /// ladder (pta/Degrade.h) until a rung converges; the record is then
  /// stamped with \c fallback_from instead of an aborted dash.
  bool UseLadder = false;
  /// Observability sink shared by all cells (spans + heartbeats);
  /// nullptr = no tracing.  Not env-controlled — harnesses wire it from
  /// their --trace-out/--progress flags.
  trace::TraceRecorder *Trace = nullptr;
  /// Cell label prefix, typically "<benchmark>/".
  std::string TraceLabelPrefix;
  /// Record derivation provenance per cell and attach the top-K blame
  /// profile to each record ("profile" in BENCH json; docs/OBSERVABILITY.md).
  /// Wired from --profile-out; also HYBRIDPT_PROFILE=1.
  bool Profile = false;
  size_t ProfileTopK = 10;
  /// Taint-spec path the harness instrumented its programs with ("" =
  /// uninstrumented); stamped into the BENCH json so regression diffs can
  /// refuse to compare tainted against untainted runs.
  std::string TaintSpec;

  /// Reads the environment overrides.
  static CellOptions fromEnv();
};

/// Runs \p PolicyName over \p Prog and returns the metrics; \c SolveMs is
/// the median over \c Runs repetitions.  Aborted runs report the paper's
/// dash convention via \c PrecisionMetrics::Aborted.
PrecisionMetrics runCell(const Program &Prog, std::string_view PolicyName,
                         const CellOptions &Opts);

/// Runs every policy in \p Policies over \p Prog, fanning the cells out
/// over \c Opts.Threads workers, and returns metrics in policy order.
std::vector<PrecisionMetrics>
runCells(const Program &Prog, const std::vector<std::string> &Policies,
         const CellOptions &Opts);

/// One row of a BENCH_*.json file.
struct BenchRecord {
  std::string Benchmark;
  std::string Policy;
  double TimeMs = 0.0;
  size_t CsVarPointsTo = 0;
  size_t CallGraphEdges = 0;
  /// Real container-byte accounting (replaces the old peak_nodes proxy).
  size_t PeakBytes = 0;
  size_t ReachableMethods = 0;
  /// Tainted-sink triples found by the tainted-sink client; 0 unless the
  /// harness instrumented the benchmark with --taint-spec.
  size_t TaintedSinks = 0;
  bool Aborted = false;
  /// Why the landed run stopped short ("" when it converged); one of the
  /// \c pt::abortReasonName strings.
  std::string AbortReasonName;
  /// Requested policy of a ladder-degraded cell ("" when the cell ran
  /// natively); \c Policy is then the landed (coarser) rung.
  std::string FallbackFrom;
  /// Every ladder rung attempted for this cell (requested policy first),
  /// with per-rung solve time and abort reason.  Empty for native runs.
  std::vector<RungAttempt> LadderTrail;
  /// Aggregate solver counters; serialized only when the build carries
  /// telemetry (SolverCounters::enabled()).
  telemetry::SolverCounters Counters;
  /// Rendered cost-attribution profile of the cell (already a JSON
  /// object); empty unless the run profiled with provenance on.
  std::string ProfileJson;
};

/// Fills one record from a finished cell.
BenchRecord makeBenchRecord(const std::string &Benchmark,
                            const std::string &Policy,
                            const PrecisionMetrics &M);

/// Writes \p Records as pretty-printed JSON to \p Path.  The top level
/// carries the harness configuration so regression diffs can refuse to
/// compare apples to oranges.  Returns false (and sets \p Error) on I/O
/// failure.
bool writeBenchJson(const std::string &Path, const std::string &Harness,
                    const CellOptions &Opts,
                    const std::vector<BenchRecord> &Records,
                    std::string &Error);

/// Formats a fact count the way the paper's Table 1 does ("sensitive
/// var-points-to (M)"): millions with one decimal when large, thousands
/// with the K suffix otherwise.
std::string formatFactCount(size_t Facts);

/// Seconds with adaptive precision (two decimals under 10s, one above).
std::string formatSeconds(double Ms);

} // namespace pt

#endif // HYBRIDPT_BENCH_BENCHUTIL_H
