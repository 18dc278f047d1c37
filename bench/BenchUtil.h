//===- bench/BenchUtil.h - Shared harness helpers ---------------*- C++ -*-===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the table/figure harnesses: parse the harness
/// command line into the shared flags (pta/Flags.h) — the harnesses then
/// run their cells through \c runVariantMatrix, with optional repetition
/// taking medians as the paper does ("all numbers shown are medians of
/// three runs") — and emit machine-readable BENCH_*.json records so the
/// performance trajectory is tracked across PRs
/// (tools/check_bench_regression.py diffs two such files).
///
//===----------------------------------------------------------------------===//

#ifndef HYBRIDPT_BENCH_BENCHUTIL_H
#define HYBRIDPT_BENCH_BENCHUTIL_H

#include "pta/Flags.h"
#include "pta/Metrics.h"
#include "pta/VariantRunner.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace pt {

/// Default per-cell time budget of every harness (--budget overrides it):
/// 120 s, this reproduction's stand-in for the paper's 90-minute timeout.
constexpr uint64_t BenchBudgetMs = 120000;

/// Parses a harness command line: the \p Shared flags, starting from the
/// harness defaults (\c BenchBudgetMs), and benchmark names, collected
/// into \p Selected unless it is null.  Any other argument goes to
/// \p Local, which returns false when it does not know it; the harness
/// then exits 1 listing the known benchmarks and \p Usage.
SharedFlags parseBenchArgs(int argc, char **argv, unsigned Shared,
                           std::vector<std::string> *Selected,
                           const std::string &Usage,
                           const std::function<bool(ArgParser &)> &Local =
                               nullptr);

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
/// carries the harness configuration — \p Opts and the taint-spec path
/// the programs were instrumented with ("" = none) — so regression diffs
/// can refuse to compare apples to oranges.  Returns false (and sets
/// \p Error) on I/O failure.
bool writeBenchJson(const std::string &Path, const std::string &Harness,
                    const MatrixOptions &Opts, const std::string &TaintSpec,
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
