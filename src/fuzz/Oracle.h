//===- fuzz/Oracle.h - Differential correctness oracles ---------*- C++ -*-===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The oracles of the differential correctness harness, applied to one
/// program (docs/CORRECTNESS.md):
///
/// 1. **Soundness**: execute the program concretely in the interpreter and
///    require every observed (var, allocation-site) binding, call edge,
///    reached method, static-field binding, field binding, and failed cast
///    to be contained in the solver's result for *every* requested policy —
///    the abstract semantics over-approximates any concrete run.
///
/// 2. **Equivalence / ordering**: cross-check the solver against the
///    independent Datalog reference model (exact equality of the
///    context-insensitive projection under `insens`; containment of every
///    policy's projection in the reference's, since every policy refines
///    context-insensitivity), and check the paper's precision-ordering
///    invariants between refining policy pairs (e.g. U-2obj+H ⊆ 2obj+H):
///    a refined policy reporting a fact — or a may-fail cast — the coarser
///    one lacks is a violation signal.
///
/// 3. **Checker monotonicity**: run the \c Direction::May checkers of
///    src/checks over every policy's result and require, for each refining
///    pair, that the refined policy's report-key set is a subset of the
///    coarser one's — more context precision must never introduce a
///    may-fail cast, a polymorphic call site, or an escaping object.
///
/// All checks reduce to \c pt::diffContainment over \c CiProjection
/// values; any violation is a solver (or reference, or interpreter) bug.
///
//===----------------------------------------------------------------------===//

#ifndef HYBRIDPT_FUZZ_ORACLE_H
#define HYBRIDPT_FUZZ_ORACLE_H

#include "pta/Projection.h"
#include "support/Cancel.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace pt {

class Program;

namespace fuzz {

/// Which checks to run over one program.
struct OracleOptions {
  /// Policies to solve under; empty = the fifteen standard analyses
  /// (Table 1 plus insens).
  std::vector<std::string> Policies;
  /// Interpreter base seed; runs use Seed, Seed+1, ... per repetition.
  uint64_t InterpSeed = 1;
  /// Concrete executions whose observations are unioned (different seeds
  /// explore different instruction orders).
  uint32_t InterpRuns = 2;
  /// Per-policy solver wall-clock budget; 0 = unlimited.  Aborted runs are
  /// under-approximations, so their containment checks are skipped.
  uint64_t SolverTimeBudgetMs = 0;
  /// Cross-check against the Datalog reference model (insens projection
  /// equality plus per-policy containment in it).
  bool CheckReference = true;
  /// Additionally require exact context-sensitive export equality between
  /// solver and reference for every policy (expensive; the driver samples
  /// this every Nth program).
  bool FullReferenceDiff = false;
  /// Check the precision-ordering invariants between refining pairs.
  bool CheckOrdering = true;
  /// Check checker monotonicity between refining pairs: the refined policy
  /// must never report a may-fail cast, polymorphic call site, or escaping
  /// object the coarser policy proves safe (src/checks Direction::May
  /// checkers; Definite checkers grow with precision and are exempt).
  bool CheckCheckers = true;
  /// Fourth comparison axis: record derivation provenance during every
  /// solver run and replay a sample of the recorded steps through the
  /// Datalog reference's rules (prov::validateSampledSteps) with the run's
  /// context policy.  No-op when the build compiles provenance out.
  bool CheckProvenance = false;
  /// Fifth axis — the dynamic taint oracle (docs/CORRECTNESS.md): derive
  /// a synthetic taint spec from the program, run the interpreter on the
  /// original program with shadow taint tags, solve the taint-instrumented
  /// program under every policy, and require each dynamically observed
  /// tainted sink (site, argument, tag) to be statically reported by the
  /// tainted-sink client.  Also checks HPT007 monotonicity between
  /// refining policy pairs.
  bool CheckTaint = false;
  /// Every Nth recorded step is replayed (1 = all; default samples).
  size_t ProvenanceStride = 3;
  /// Example cap per relation per failed check.
  size_t MaxViolationsPerCheck = 5;
  /// Cooperative cancellation (^C / deadline); nullptr = none.  Cancelled
  /// solver runs are treated like budget aborts: their checks are skipped,
  /// so a mid-campaign ^C never manufactures a spurious failure.
  const CancelToken *Cancel = nullptr;
};

/// Outcome of all checks on one program.
struct OracleReport {
  /// Every violation found, with human-readable details naming the two
  /// sides ("interp", a policy name, or "ref:<policy>").
  std::vector<CiViolation> Violations;
  /// Policies whose solver run aborted on budget (their checks skipped).
  std::vector<std::string> AbortedPolicies;
  /// Policy names implicated in at least one violation (sorted, unique) —
  /// the minimizer re-checks only these to keep probes cheap.
  std::vector<std::string> InvolvedPolicies;
  /// Total concrete facts observed by the interpreter (coverage signal).
  size_t ConcreteFacts = 0;

  bool ok() const { return Violations.empty(); }
};

/// Runs all configured oracles over \p Prog.
OracleReport checkProgram(const Program &Prog, const OracleOptions &Opts = {});

} // namespace fuzz
} // namespace pt

#endif // HYBRIDPT_FUZZ_ORACLE_H
