//===- support/Telemetry.h - Solver instrumentation counters ----*- C++ -*-===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Low-overhead instrumentation for the fixpoint solvers: one fire counter
/// per entry of the rule list (support/Rules.h) plus the infrastructure
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

#include "support/Rules.h"

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>
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

/// Longest counter name, terminator included.
inline constexpr size_t RuleCounterCap = 32;

/// The rule counters' wire names, indexed by rule: "rule_" + the display
/// name with '-' turned into '_' ("static-load" -> "rule_static_load").
inline constexpr auto RuleCounterNames = [] {
  std::array<std::array<char, RuleCounterCap>, NumRules> Out{};
  constexpr std::string_view Prefix = "rule_";
  for (size_t R = 0; R != NumRules; ++R) {
    std::string_view Name = RuleNames[R];
    if (Prefix.size() + Name.size() >= RuleCounterCap)
      throw "rule name too long for RuleCounterCap";
    for (size_t I = 0; I != Prefix.size(); ++I)
      Out[R][I] = Prefix[I];
    for (size_t I = 0; I != Name.size(); ++I)
      Out[R][Prefix.size() + I] = Name[I] == '-' ? '_' : Name[I];
  }
  return Out;
}();

/// One counter row per list rule: X(Rule<Enum>, "rule_<name>").
#define PT_RULE_COUNTER(X, Enum, Name)                                        \
  X(Rule##Enum,                                                               \
    ::pt::telemetry::RuleCounterNames[static_cast<size_t>(::pt::Rule::Enum)]  \
        .data())

/// X-macro over every solver counter: X(FieldName, "wire_name").
///
/// The rule counters come first, one per entry of the rule list
/// (support/Rules.h), counted per *application*: one fire per
/// (instruction, context[, object]) tuple the rule processed, whether at
/// method instantiation or in the delta loop.  The rest are
/// solver-infrastructure counters.
#define PT_SOLVER_COUNTERS(X)                                                  \
  PT_RULES(PT_RULE_COUNTER, X)                                                 \
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

  /// The fire counter of rule \p R.
  uint64_t &rule(Rule R) {
    switch (R) {
#define PT_RULE_CASE(A, Enum, Name)                                           \
  case Rule::Enum:                                                            \
    return Rule##Enum;
      PT_RULES(PT_RULE_CASE, )
#undef PT_RULE_CASE
    }
    return RuleEntry; // Not reached: the switch covers the list.
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

/// The \p K largest rule counters, descending (ties keep list order) — the
/// "--explain-abort" hot-rule summary.
std::vector<std::pair<const char *, uint64_t>>
topRuleCounters(const SolverCounters &C, size_t K);

} // namespace pt::telemetry

#endif // HYBRIDPT_SUPPORT_TELEMETRY_H
