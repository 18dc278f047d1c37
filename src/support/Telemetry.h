//===- support/Telemetry.h - Solver instrumentation counters ----*- C++ -*-===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Low-overhead instrumentation for the fixpoint solvers: per-rule fire
/// counters for the paper's nine Figure 2 rules plus the infrastructure
/// counters (edge/fact/replay/dedup-hit) that explain *where* a run spends
/// its work.  Counters are plain \c uint64_t cells incremented through the
/// \c PT_COUNT / \c PT_COUNT_ADD macros, which compile to nothing when the
/// build disables \c HYBRIDPT_TELEMETRY — the hot loop pays zero cost for
/// an instrumentation build knob it does not use.
///
/// Each \c Solver owns its own \c SolverCounters, so the parallel variant
/// runner shares nothing and counters are bit-identical at any thread
/// count (the determinism test asserts this).  The counter *names* are
/// centralized in the \c PT_SOLVER_COUNTERS X-macro so the JSONL trace,
/// the BENCH_*.json cells, and the CLI all agree on spelling.
///
/// See docs/OBSERVABILITY.md for the glossary mapping every counter to the
/// paper's rules.
///
//===----------------------------------------------------------------------===//

#ifndef HYBRIDPT_SUPPORT_TELEMETRY_H
#define HYBRIDPT_SUPPORT_TELEMETRY_H

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

// Compile-time toggle: the build system defines HYBRIDPT_TELEMETRY=0/1
// (CMake option of the same name, default ON).  An undefined macro means a
// non-CMake consumer; default to enabled, matching the shipped config.
#if !defined(HYBRIDPT_TELEMETRY) || HYBRIDPT_TELEMETRY
#define HYBRIDPT_TELEMETRY_ENABLED 1
#else
#define HYBRIDPT_TELEMETRY_ENABLED 0
#endif

#if HYBRIDPT_TELEMETRY_ENABLED
#define PT_COUNT(Cell) (++(Cell))
#define PT_COUNT_ADD(Cell, N) ((Cell) += (N))
#else
#define PT_COUNT(Cell) ((void)0)
#define PT_COUNT_ADD(Cell, N) ((void)0)
#endif

namespace pt::telemetry {

/// X-macro over every solver counter: X(FieldName, "wire_name").
///
/// The first nine entries are the paper's Figure 2 rules, counted per
/// *application* — one fire per (instruction, context[, object]) tuple the
/// rule processed, whether at method instantiation or in the delta loop.
/// The tenth (rule_throw) covers the Doop-style exception extension.  The
/// rest are solver-infrastructure counters.
#define PT_SOLVER_COUNTERS(X)                                                  \
  X(RuleAlloc, "rule_alloc")             /* ALLOC / RECORD          */         \
  X(RuleMove, "rule_move")               /* MOVE copy edges         */         \
  X(RuleCast, "rule_cast")               /* CAST filter evaluations */         \
  X(RuleLoad, "rule_load")               /* LOAD per (base obj)     */         \
  X(RuleStore, "rule_store")             /* STORE per (base obj)    */         \
  X(RuleStaticLoad, "rule_static_load")  /* SLOAD edge wiring       */         \
  X(RuleStaticStore, "rule_static_store")/* SSTORE edge wiring      */         \
  X(RuleVCall, "rule_vcall")             /* VCALL / MERGE dispatch  */         \
  X(RuleSCall, "rule_scall")             /* SCALL / MERGESTATIC     */         \
  X(RuleThrow, "rule_throw")             /* THROW routing           */         \
  X(FactsInserted, "facts_inserted")     /* successful set inserts  */         \
  X(FactDedupHits, "fact_dedup_hits")    /* insert hit existing     */         \
  X(EdgesAdded, "edges_added")           /* copy edges added        */         \
  X(EdgeDedupHits, "edge_dedup_hits")    /* duplicate edge requests */         \
  X(FactsReplayed, "facts_replayed")     /* facts pushed on replay  */         \
  X(WorklistSteps, "worklist_steps")     /* nodes popped            */         \
  X(NodesCreated, "nodes_created")       /* interned solver nodes   */         \
  X(ObjectsInterned, "objects_interned") /* (heap, hctx) objects    */         \
  X(CallEdgesInserted, "call_edges_inserted")                                  \
  X(MethodsInstantiated, "methods_instantiated")

/// Per-solver fire counters.  Plain cells, no atomics: each solver is
/// single-threaded and owns its struct.
struct SolverCounters {
#define PT_DECL(Field, Name) uint64_t Field = 0;
  PT_SOLVER_COUNTERS(PT_DECL)
#undef PT_DECL

  bool operator==(const SolverCounters &) const = default;

  /// True when the build carries live counters (HYBRIDPT_TELEMETRY).
  static constexpr bool enabled() { return HYBRIDPT_TELEMETRY_ENABLED; }

  /// Total rule fires across the nine paper rules plus the throw rule.
  uint64_t ruleTotal() const {
    return RuleAlloc + RuleMove + RuleCast + RuleLoad + RuleStore +
           RuleStaticLoad + RuleStaticStore + RuleVCall + RuleSCall +
           RuleThrow;
  }

  /// Element-wise difference (for heartbeat deltas); assumes \p Base is a
  /// prior snapshot of this counter set, so every cell is monotone.
  SolverCounters since(const SolverCounters &Base) const {
    SolverCounters D;
#define PT_DIFF(Field, Name) D.Field = Field - Base.Field;
    PT_SOLVER_COUNTERS(PT_DIFF)
#undef PT_DIFF
    return D;
  }
};

/// Applies \p Fn(wireName, value) to every counter in declaration order.
template <typename Callback>
void forEachCounter(const SolverCounters &C, Callback &&Fn) {
#define PT_VISIT(Field, Name) Fn(Name, C.Field);
  PT_SOLVER_COUNTERS(PT_VISIT)
#undef PT_VISIT
}

/// The \p K largest of the ten rule counters, descending (ties keep
/// declaration order) — the "--explain-abort" hot-rule summary.
std::vector<std::pair<const char *, uint64_t>>
topRuleCounters(const SolverCounters &C, size_t K);

} // namespace pt::telemetry

#endif // HYBRIDPT_SUPPORT_TELEMETRY_H
