//===- datalog/Engine.h - Semi-naive fixpoint engine ------------*- C++ -*-===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small semi-naive Datalog engine in the style the paper's
/// implementation platform (LogicBlox; also Souffle) provides: monotone
/// rules evaluated to fixpoint with delta-driven re-evaluation.
///
/// Evaluation model: rounds.  In each round every rule is evaluated once
/// per body atom, with that atom restricted to the previous round's delta
/// and all other atoms over the full settled content — any derivation that
/// uses at least one delta tuple is found (duplicate derivations are
/// deduplicated on insert).  Derived tuples become visible at the next
/// round; the engine stops when a round derives nothing new.
///
//===----------------------------------------------------------------------===//

#ifndef HYBRIDPT_DATALOG_ENGINE_H
#define HYBRIDPT_DATALOG_ENGINE_H

#include "datalog/Relation.h"
#include "datalog/Rule.h"
#include "support/Timer.h"

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace pt::dl {

/// Resource limits for a fixpoint run.
struct EngineOptions {
  /// Wall-clock budget in ms; 0 = unlimited.
  uint64_t TimeBudgetMs = 0;
  /// Cap on total derived tuples across all relations; 0 = unlimited.
  uint64_t MaxTuples = 0;
};

/// Evaluation statistics.
struct EngineStats {
  size_t Rounds = 0;
  size_t DerivedTuples = 0;
  bool Aborted = false;
  double SolveMs = 0.0;
};

/// Outcome of \c Engine::derives.
struct Derivation {
  bool Ok = false;
  /// How far the deepest binding got: body atoms matched, then functors
  /// that reproduced their bound result.
  size_t Depth = 0;
  /// On failure, the relation of the body atom or the name of the functor
  /// the deepest binding stopped at.
  std::string_view Unmet;
};

/// Owns relations and rules; runs the fixpoint.
class Engine {
public:
  /// Creates (or retrieves) the relation \p Name with \p Arity.
  /// Retrieval asserts that the arity matches.
  Relation &relation(std::string_view Name, uint32_t Arity);

  /// Looks up an existing relation; null when absent.
  Relation *find(std::string_view Name);

  /// Registers a rule.  Asserts basic well-formedness (head variables
  /// bound, arities consistent).
  void addRule(Rule R);

  /// Runs to fixpoint; returns statistics.  May be called once.
  EngineStats run(const EngineOptions &Opts = {});

  /// Makes every loaded tuple scannable without running the fixpoint, for
  /// \c derives checks against the input relations.
  void settle();

  /// Whether \p R derives its head under the bindings \p Env / \p Bound,
  /// as one rule application rather than a fixpoint: joins the body over
  /// settled rows, and requires each functor to reproduce its result
  /// variable, which the caller binds (with the head).  \p R need not be
  /// registered.
  static Derivation derives(const Rule &R, std::vector<Value> &Env,
                            std::vector<bool> &Bound);

  const std::vector<Rule> &rules() const { return Rules; }
  size_t numRelations() const { return Relations.size(); }

private:
  /// Evaluates one rule with body atom \p DeltaIdx restricted to the
  /// delta.  Returns the number of new head tuples.
  size_t evalRuleVersion(const Rule &R, size_t DeltaIdx);

  /// Recursive join over body atoms from position \p AtomIdx with the
  /// current variable binding \p Env / \p Bound.  \p Visit says what a
  /// full binding does (\c leaf) and when the join stops early (\c done).
  template <typename Visitor>
  static void joinFrom(const Rule &R, size_t DeltaIdx, size_t AtomIdx,
                       std::vector<Value> &Env, std::vector<bool> &Bound,
                       Visitor &Visit);

  /// Applies functors and inserts the head tuple for a full binding.
  static size_t fireHead(const Rule &R, std::vector<Value> &Env,
                         std::vector<bool> &Bound);

  std::vector<std::unique_ptr<Relation>> Relations;
  std::unordered_map<std::string, Relation *> ByName;
  std::vector<Rule> Rules;
  bool HasRun = false;
};

} // namespace pt::dl

#endif // HYBRIDPT_DATALOG_ENGINE_H
