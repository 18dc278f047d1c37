//===- datalog/Rule.h - Datalog rules with external functors ----*- C++ -*-===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Rule representation for the engine: a head atom, a sequence of body
/// atoms joined left to right, and external functor applications computed
/// once all atoms are bound.
///
/// Functors are how the paper hides context construction from the rules
/// ("these aspects are completely hidden behind constructor functions
/// RECORD, MERGE, and MERGESTATIC"): a rule can bind a fresh variable to
/// the result of an arbitrary host-language function of bound variables.
/// Functors are not part of regular Datalog and can build infinite
/// domains; termination is the policy's responsibility (the paper bounds
/// context depth statically).
///
//===----------------------------------------------------------------------===//

#ifndef HYBRIDPT_DATALOG_RULE_H
#define HYBRIDPT_DATALOG_RULE_H

#include "datalog/Relation.h"

#include <functional>
#include <string>
#include <vector>

namespace pt::dl {

/// A term in an atom: either a rule variable or a constant value.
struct Term {
  bool IsVar = true;
  Value V = 0;

  static Term var(uint32_t Index) { return {true, Index}; }
  static Term constant(Value C) { return {false, C}; }
};

/// One body or head atom: a relation and one term per column.
struct Atom {
  Relation *Rel = nullptr;
  std::vector<Term> Terms;

  Atom() = default;
  Atom(Relation &Rel, std::vector<Term> Terms)
      : Rel(&Rel), Terms(std::move(Terms)) {}
};

/// An external functor application: ResultVar := Fn(Args...), evaluated
/// after every body atom is bound.  Functors run in declaration order, so
/// later functors may consume earlier results.
struct FunctorApp {
  std::function<Value(const Value *Args)> Fn;
  /// Diagnostic label ("RECORD", "MERGE", ...), named by step checks.
  std::string Name;
  std::vector<Term> Args;
  uint32_t ResultVar = 0;
};

/// A complete rule.  Variables are dense indices [0, NumVars); every head
/// variable must be bound by a body atom or a functor.
struct Rule {
  Atom Head;
  std::vector<Atom> Body;
  std::vector<FunctorApp> Functors;
  uint32_t NumVars = 0;
  /// Diagnostic label (shown in engine stats).
  std::string Name;
};

} // namespace pt::dl

#endif // HYBRIDPT_DATALOG_RULE_H
