//===- support/FaultPlan.h - Deterministic fault injection ------*- C++ -*-===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fault-injection registry: a small, parseable plan of deterministic
/// faults the solver executes at exact points of its run, so every abort
/// and degradation path is exercisable from tests, CI, and the fuzz
/// harness without real resource pressure (docs/ROBUSTNESS.md).
///
/// Plan syntax — comma-separated directives:
///
///   oom-at-step=N      simulate memory-budget exhaustion at worklist
///                      step N (clean MemoryBudget abort)
///   cancel-at-step=N   trip cancellation at worklist step N (clean
///                      Cancelled abort, exactly as a ^C would)
///   slow-rule=NAME     stall ~50us on every fire of rule NAME, any name
///                      of the rule list (support/Rules.h: alloc, load,
///                      static-load, vcall, throw-raise, shortcut-store,
///                      ...) to force time budgets deterministically onto
///                      a chosen rule
///   drop-scall         silently skip static-call wiring (the legacy
///                      unsoundness used to self-test the fuzz oracle)
///
/// A directive may appear at most once per plan: a repeated directive is
/// rejected with a clear error instead of last-write-wins, so a CI matrix
/// that concatenates plan fragments cannot silently drop a fault.
///
/// Sources, in priority order: an explicit \c SolverOptions::Faults plan,
/// else the HYBRIDPT_FAULT_PLAN environment variable, else the legacy
/// HYBRIDPT_TEST_BREAK=drop-scall spelling.  Never set outside tests/CI.
///
/// The serving layer (docs/SERVING.md) schedules faults per *request*
/// rather than per step: a \c RequestFaultPlan maps admitted-request
/// ordinals to whole fault plans ("5=oom-at-step=100;9=slow-rule=vcall"),
/// so CI can prove that a faulted request degrades alone while its
/// neighbors keep answering from the warm state.
///
//===----------------------------------------------------------------------===//

#ifndef HYBRIDPT_SUPPORT_FAULTPLAN_H
#define HYBRIDPT_SUPPORT_FAULTPLAN_H

#include "support/Rules.h"

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace pt {

/// One parsed fault plan.  Default-constructed = no faults.
struct FaultPlan {
  /// Simulate memory exhaustion once this worklist step is reached (0 =
  /// off; step counting starts at 1).
  uint64_t OomAtStep = 0;
  /// Trip cancellation once this worklist step is reached (0 = off).
  uint64_t CancelAtStep = 0;
  /// Stall every fire of this rule (none = off).
  std::optional<Rule> SlowRule;
  /// Skip static-call wiring (deliberate unsoundness for oracle self-tests).
  bool DropSCall = false;

  /// True when any directive is armed.
  bool any() const {
    return OomAtStep != 0 || CancelAtStep != 0 || SlowRule || DropSCall;
  }

  /// Parses a plan spec ("oom-at-step=100,slow-rule=vcall").  On success
  /// fills \p Out; on failure returns false and names the bad directive in
  /// \p Error.  An empty spec parses to an empty plan.
  static bool parse(std::string_view Spec, FaultPlan &Out,
                    std::string &Error);

  /// The environment-supplied plan: HYBRIDPT_FAULT_PLAN, falling back to
  /// the legacy HYBRIDPT_TEST_BREAK=drop-scall.  A malformed value aborts
  /// the process with a clear message — a fault plan that silently parses
  /// to "no faults" would fake green tests.
  static FaultPlan fromEnv();

  /// Round-trips the plan back to spec syntax ("" for an empty plan).
  std::string spec() const;
};

/// One scheduled per-request fault: the Nth admitted work request (1-based)
/// runs under \c Plan.
struct RequestFault {
  uint64_t Request = 0;
  FaultPlan Plan;
};

/// A schedule of per-request faults for the resident daemon
/// (docs/SERVING.md).  Spec syntax: ';'-separated entries, each
/// "N=<fault-plan-spec>", e.g.
///
///   5=oom-at-step=100;9=slow-rule=vcall;12=cancel-at-step=1
///
/// Duplicate request ordinals are rejected (same rationale as duplicate
/// directives within one plan).  Default-constructed = no faults.
struct RequestFaultPlan {
  /// Entries sorted by request ordinal.
  std::vector<RequestFault> Entries;

  bool any() const { return !Entries.empty(); }

  /// The plan scheduled for admitted request \p N (1-based); nullptr when
  /// request N runs clean.
  const FaultPlan *planForRequest(uint64_t N) const;

  /// Parses a schedule spec.  On success fills \p Out; on failure returns
  /// false and names the bad entry in \p Error.  Empty spec = empty plan.
  static bool parse(std::string_view Spec, RequestFaultPlan &Out,
                    std::string &Error);

  /// The environment-supplied schedule (HYBRIDPT_SERVE_FAULT_PLAN).  A
  /// malformed value aborts the process with a clear message, mirroring
  /// \c FaultPlan::fromEnv.
  static RequestFaultPlan fromEnv();

  /// Round-trips the schedule back to spec syntax.
  std::string spec() const;
};

} // namespace pt

#endif // HYBRIDPT_SUPPORT_FAULTPLAN_H
