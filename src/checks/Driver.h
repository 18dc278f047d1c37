//===- checks/Driver.h - Checker pipeline driver ----------------*- C++ -*-===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs the checker pipeline: solve a program under a named context policy,
/// feed the result through a checker selection, collect sorted diagnostics.
/// Also the `--compare` engine, which diffs the diagnostic sets of two
/// policies on the same program and flags monotonicity violations (a May
/// report the refined policy introduces over the base).
///
//===----------------------------------------------------------------------===//

#ifndef HYBRIDPT_CHECKS_DRIVER_H
#define HYBRIDPT_CHECKS_DRIVER_H

#include "checks/Checker.h"
#include "checks/Diagnostic.h"
#include "pta/AnalysisResult.h"
#include "pta/Pipeline.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

namespace pt {

class AnalysisResult;
class ContextPolicy;
class Program;

namespace checks {

/// Options of one lint run.
struct LintOptions {
  /// The solve behind the lint (pta/Pipeline.h): policy, budgets,
  /// cancellation (a cancelled run still renders and flushes its report,
  /// marked aborted) and the provenance recorder.  When the recorder is
  /// set, diagnostics with "why" anchors get their derivation attached as
  /// \c Diagnostic::Flow (SARIF codeFlows); it must be empty, and
  /// comparePolicies ignores it (two runs cannot share one arena).
  AnalysisConfig Config = {"2obj+H", {}, /*Ladder=*/false, {}};
  /// Checker ids to run; empty = all registered checkers.
  std::vector<std::string> Checks;
  /// Keep the solved result (and its policy) alive in the returned
  /// \c LintRun so callers can run post-lint provenance queries against it
  /// (`hybridpt-lint --why`); fact ids in the recorder are only
  /// meaningful against this result's object tables.
  bool KeepResult = false;
};

/// Result of one lint run.
struct LintRun {
  std::vector<Diagnostic> Diags;
  /// Rule table of the checkers that ran (for SARIF output).
  std::vector<CheckerInfo> Rules;
  /// True when the solver hit a budget; diagnostics are then computed from
  /// an under-approximate fixpoint and must not be trusted.
  bool Aborted = false;
  /// Why the solver stopped short (\c AbortReason::None when it
  /// converged).
  AbortReason Reason = AbortReason::None;
  double SolveMs = 0.0;
  /// Non-empty on failure (unknown policy or checker id).
  std::string Error;
  /// Solved result and its policy, kept only under
  /// \c LintOptions::KeepResult.  The policy must outlive the result
  /// (validation re-computes context side conditions through it).
  std::unique_ptr<ContextPolicy> Policy;
  std::optional<AnalysisResult> Result;

  bool ok() const { return Error.empty(); }
};

/// Runs the selected checkers over an existing analysis result.  Unknown
/// checker ids produce an error result.
LintRun runCheckers(const AnalysisResult &Result,
                    const std::vector<std::string> &Checks = {});

/// Solves \p Prog under \c Opts.Config, then runs the checkers.
LintRun lintProgram(const Program &Prog, const LintOptions &Opts = {});

/// Per-checker report-count delta between two policies.
struct CheckDelta {
  std::string CheckId;
  Direction Dir = Direction::May;
  size_t BaseCount = 0;
  size_t RefinedCount = 0;
  /// Report keys present under base but not refined (precision wins for
  /// May checkers).
  std::vector<std::string> Resolved;
  /// Report keys present under refined but not base.  For May checkers a
  /// non-empty list is a monotonicity violation.
  std::vector<std::string> Introduced;
};

/// Result of a `--compare base,refined` run.
struct CompareResult {
  std::string BasePolicy;
  std::string RefinedPolicy;
  LintRun Base;
  LintRun Refined;
  std::vector<CheckDelta> Deltas;
  std::string Error;

  bool ok() const { return Error.empty(); }

  /// Keys of May-checker reports the refined policy introduced — empty
  /// unless checker monotonicity is broken (or a run aborted, in which
  /// case the comparison is void and this stays empty).
  std::vector<std::string> monotonicityViolations() const;

  /// Total May-checker reports resolved minus introduced — the refinement's
  /// precision win.  Non-negative whenever monotonicity holds.
  int64_t reduction() const;
};

/// Diffs the diagnostic sets of two finished lint runs, \p B under policy
/// \p Base and \p R under \p Refined.  The comparison fails with the
/// first run's error, or when either run aborted on a budget.
CompareResult compareRuns(std::string Base, std::string Refined, LintRun B,
                          LintRun R);

/// Lints \p Prog under both policies, then \c compareRuns.
CompareResult comparePolicies(const Program &Prog, const std::string &Base,
                              const std::string &Refined,
                              const LintOptions &Opts = {});

/// Human-readable rendering of a comparison (per-checker table plus any
/// monotonicity violations).
void renderCompare(std::ostream &OS, const CompareResult &CR);

} // namespace checks
} // namespace pt

#endif // HYBRIDPT_CHECKS_DRIVER_H
