//===- pta/Degrade.h - Policy fallback ladder -------------------*- C++ -*-===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Graceful degradation for budget-limited analysis runs
/// (docs/ROBUSTNESS.md).  Instead of reporting a dash when a precise
/// policy blows its time/fact/memory budget, \c solveWithLadder re-runs
/// the cell under successively coarser policies until one converges: every
/// rung transition follows the proven precision-order pairs of
/// context/PolicyRegistry.h, so a landed result is exactly what a native
/// run of the landed policy would produce — strictly coarser than what was
/// asked for, never wrong.
///
/// The default ladder for a policy is the chain walk of the finer→coarser
/// DAG (first listed pair per policy, "insens" terminal), e.g.
/// 2obj+H → 2type+H → insens.  Cancellation is not degraded: a tripped
/// \c CancelToken means the user wants out, so the ladder stops and
/// returns the cancelled partial result.
///
/// Warm start: when the ladder lands on "insens", the aborted finer run's
/// reachable-method set seeds the re-run.  This is sound — every method
/// reachable under any policy is reachable under insens, so seeding cannot
/// change the least fixpoint, only skip re-discovery work — and therefore
/// keeps every precision metric bit-for-bit equal to a cold native run.
/// Intermediate context-sensitive rungs are never seeded: a finer run's
/// reachable set is not generally contained in an incomparable rung's
/// fixpoint.
///
//===----------------------------------------------------------------------===//

#ifndef HYBRIDPT_PTA_DEGRADE_H
#define HYBRIDPT_PTA_DEGRADE_H

#include "pta/AnalysisResult.h"
#include "pta/Metrics.h"
#include "pta/Solver.h"

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace pt {

class Program;
class ContextPolicy;

/// Configuration of one ladder descent.
struct LadderOptions {
  /// Explicit rungs to try after the requested policy, in order.  Empty =
  /// derive the default ladder with \c fallbackLadder.  Validated: each
  /// rung must be provably coarser than its predecessor
  /// (\c isProvablyCoarser), so a mistyped ladder fails fast instead of
  /// silently landing an incomparable result.
  std::vector<std::string> Rungs;
};

/// Outcome of a ladder descent.  \c Result borrows \c Policy, which this
/// struct owns — keep the whole struct alive while reading the result.
struct LadderResult {
  /// The landed run; empty only when the requested policy name is unknown
  /// or an explicit ladder failed validation (see \c Error).
  std::optional<AnalysisResult> Result;
  std::unique_ptr<ContextPolicy> Policy;
  std::string RequestedPolicy;
  /// The rung \c Result describes; equals \c RequestedPolicy for a native
  /// run.
  std::string LandedPolicy;
  /// Set to \c RequestedPolicy when the ladder descended at least once;
  /// empty for a native run (the BENCH_table1.json "fallback_from" stamp).
  std::string FallbackFrom;
  /// Every rung tried, in order, landed rung last.
  std::vector<RungAttempt> Trail;
  /// True when even the last rung aborted on a resource budget.
  bool Exhausted = false;
  std::string Error;

  bool degraded() const { return !FallbackFrom.empty(); }
};

/// The default fallback ladder starting at \p Policy: the chain walk of
/// the precision-order DAG following the first listed coarser pair per
/// policy.  Includes \p Policy itself as the first rung.  The walk stops
/// at the first policy with no precision-order pair — it does NOT jump to
/// "insens" on its own — so the result ends at "insens" only when every
/// step is ledger-proven; \c solveWithLadder fails fast otherwise.
std::vector<std::string> fallbackLadder(std::string_view Policy);

/// Checks that \p Rungs descends strictly in proven precision order and
/// that every name is a known policy.  Returns false and fills \p Error
/// otherwise.
bool validateLadder(const std::vector<std::string> &Rungs,
                    std::string &Error);

/// Runs \p PolicyName over \p Prog under \p Opts; on a resource-budget
/// abort (time/facts/memory — not cancellation) re-runs the next ladder
/// rung until one converges or the ladder is exhausted.  Each descent is
/// recorded on \c Opts.Trace as a "ladder" record, and fallback rungs get
/// "~<rung>"-suffixed trace labels so per-label heartbeat series stay
/// monotone.
LadderResult solveWithLadder(const Program &Prog, std::string_view PolicyName,
                             const SolverOptions &Opts,
                             const LadderOptions &LOpts = {});

/// The one solve loop behind \c solveWithLadder and \c analyze
/// (pta/Pipeline.h): solves \p Rungs in order, moving on only after a
/// resource-budget abort.  \p Ladder null is a native run of the single
/// policy in \p Rungs, which records no trail and no "ladder" trace
/// record.
LadderResult solveRungs(const Program &Prog,
                        const std::vector<std::string> &Rungs,
                        const SolverOptions &Opts,
                        const LadderOptions *Ladder);

} // namespace pt

#endif // HYBRIDPT_PTA_DEGRADE_H
