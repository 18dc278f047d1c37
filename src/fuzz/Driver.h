//===- fuzz/Driver.h - Differential fuzzing loop ----------------*- C++ -*-===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hybridpt-fuzz campaign loop: generate a program (cycling through a
/// small corpus of size/shape profiles), run both oracles over it, and on
/// failure delta-debug the program down to a minimal reproducer and write
/// it to the regression directory in irtext format.  Fully deterministic
/// for a fixed seed, program cap, and unlimited time budget.
///
//===----------------------------------------------------------------------===//

#ifndef HYBRIDPT_FUZZ_DRIVER_H
#define HYBRIDPT_FUZZ_DRIVER_H

#include "fuzz/Oracle.h"

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace pt {
namespace fuzz {

struct DriverOptions {
  /// Base seed; program i is fuzzed from Seed + i.
  uint64_t Seed = 1;
  /// Stop after this many programs (0 = until the time budget expires).
  uint32_t MaxPrograms = 500;
  /// Wall-clock campaign budget in milliseconds; 0 = unlimited.
  uint64_t BudgetMs = 0;
  /// Delta-debug failing programs to minimal reproducers.
  bool Minimize = true;
  /// Directory to write minimized reproducers into ("" = don't write).
  std::string RegressDir;
  /// Every Nth program additionally runs the exact per-policy reference
  /// differential (0 = never).
  uint32_t FullDiffEvery = 25;
  /// Stop the campaign after this many failing programs (0 = never).
  uint32_t MaxFailures = 5;
  /// Per-solver-run budget guarding against pathological programs; 0 =
  /// unlimited (determinism note: an aborted run skips checks, so any
  /// nonzero value trades reproducibility under load for liveness).
  uint64_t SolverTimeBudgetMs = 0;
  /// Policies to check; empty = the fifteen standard analyses.
  std::vector<std::string> Policies;
  /// Fourth axis (OracleOptions::CheckProvenance): record derivation
  /// provenance and replay sampled steps through the rule-checking
  /// validator (--check-provenance).
  bool CheckProvenance = false;
  /// Fifth axis (OracleOptions::CheckTaint): synthetic-spec taint
  /// instrumentation plus the dynamic taint oracle — every dynamically
  /// tainted sink must be statically reported, and HPT007 must be
  /// monotone across refining pairs (--check-taint).
  bool CheckTaint = false;
  /// Progress/diagnostics stream (nullptr = silent).
  std::ostream *Log = nullptr;
  /// Cooperative cancellation (^C / deadline); nullptr = none.  A
  /// cancelled campaign stops cleanly between (or mid-) programs and
  /// still reports every failure found so far.
  const CancelToken *Cancel = nullptr;
};

struct DriverResult {
  uint32_t ProgramsRun = 0;
  uint32_t Failures = 0;
  uint64_t TotalViolations = 0;
  /// One line per failing program: seed plus first violation.
  std::vector<std::string> FailureSummaries;
  /// Paths of written reproducers (parallel to FailureSummaries when
  /// RegressDir is set).
  std::vector<std::string> ReproducerPaths;

  bool ok() const { return Failures == 0; }
};

/// Runs one fuzzing campaign.
DriverResult runFuzz(const DriverOptions &Opts);

} // namespace fuzz
} // namespace pt

#endif // HYBRIDPT_FUZZ_DRIVER_H
