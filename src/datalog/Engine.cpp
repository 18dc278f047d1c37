//===- datalog/Engine.cpp --------------------------------------------------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//

#include "datalog/Engine.h"

#include <algorithm>
#include <cassert>

using namespace pt::dl;

Relation &Engine::relation(std::string_view Name, uint32_t Arity) {
  auto It = ByName.find(std::string(Name));
  if (It != ByName.end()) {
    assert(It->second->arity() == Arity && "relation arity mismatch");
    return *It->second;
  }
  Relations.push_back(std::make_unique<Relation>(std::string(Name), Arity));
  Relation *R = Relations.back().get();
  ByName.emplace(std::string(Name), R);
  return *R;
}

Relation *Engine::find(std::string_view Name) {
  auto It = ByName.find(std::string(Name));
  return It == ByName.end() ? nullptr : It->second;
}

void Engine::addRule(Rule R) {
  assert(R.Head.Rel && "rule without head relation");
  assert(R.Head.Terms.size() == R.Head.Rel->arity() && "head arity");
  std::vector<bool> Bound(R.NumVars, false);
  for (const Atom &A : R.Body) {
    assert(A.Rel && A.Terms.size() == A.Rel->arity() && "body arity");
    for (const Term &T : A.Terms)
      if (T.IsVar) {
        assert(T.V < R.NumVars && "variable index out of range");
        Bound[T.V] = true;
      }
  }
  for (const FunctorApp &F : R.Functors) {
    for ([[maybe_unused]] const Term &T : F.Args)
      assert((!T.IsVar || Bound[T.V]) && "functor arg unbound");
    assert(F.ResultVar < R.NumVars && "functor result var out of range");
    Bound[F.ResultVar] = true;
  }
  for ([[maybe_unused]] const Term &T : R.Head.Terms)
    assert((!T.IsVar || Bound[T.V]) && "head variable unbound");
  Rules.push_back(std::move(R));
}

namespace {

/// Per-run budget state shared via plain statics would break reentrancy;
/// thread it through a small struct instead.
struct Budget {
  pt::Deadline Deadline;
  uint64_t MaxTuples;
  size_t Derived = 0;
  bool Aborted = false;

  explicit Budget(const EngineOptions &Opts)
      : Deadline(Opts.TimeBudgetMs), MaxTuples(Opts.MaxTuples) {}

  void note(size_t NewTuples) {
    Derived += NewTuples;
    if (MaxTuples != 0 && Derived > MaxTuples)
      Aborted = true;
  }
};

Budget *ActiveBudget = nullptr;

} // namespace

size_t Engine::fireHead(const Rule &R, std::vector<Value> &Env,
                        std::vector<bool> &Bound) {
  // Functors in declaration order.
  for (const FunctorApp &F : R.Functors) {
    Value Args[16];
    assert(F.Args.size() <= 16 && "too many functor args");
    for (size_t I = 0; I < F.Args.size(); ++I)
      Args[I] = F.Args[I].IsVar ? Env[F.Args[I].V] : F.Args[I].V;
    Env[F.ResultVar] = F.Fn(Args);
    Bound[F.ResultVar] = true;
  }
  Value Row[32];
  assert(R.Head.Terms.size() <= 32 && "head too wide");
  for (size_t I = 0; I < R.Head.Terms.size(); ++I) {
    const Term &T = R.Head.Terms[I];
    Row[I] = T.IsVar ? Env[T.V] : T.V;
  }
  return R.Head.Rel->insert(Row) ? 1 : 0;
}

size_t Engine::joinFrom(const Rule &R, size_t DeltaIdx, size_t AtomIdx,
                        std::vector<Value> &Env, std::vector<bool> &Bound) {
  if (ActiveBudget->Aborted)
    return 0;
  if (AtomIdx == R.Body.size())
    return fireHead(R, Env, Bound);

  const Atom &A = R.Body[AtomIdx];
  Range Rng = AtomIdx == DeltaIdx ? Range::Delta : Range::All;

  // Build the bound-column mask and key (ascending column order).
  uint32_t Mask = 0;
  Value Key[32];
  uint32_t KeyLen = 0;
  for (size_t C = 0; C < A.Terms.size(); ++C) {
    const Term &T = A.Terms[C];
    if (!T.IsVar) {
      Mask |= 1u << C;
      Key[KeyLen++] = T.V;
    } else if (Bound[T.V]) {
      Mask |= 1u << C;
      Key[KeyLen++] = Env[T.V];
    }
  }

  size_t NewTuples = 0;
  A.Rel->scan(Rng, Mask, Key, [&](const Value *Row) {
    if (ActiveBudget->Aborted)
      return;
    // Bind free variables of this atom; handle repeated variables within
    // the atom (second occurrence acts as an equality filter).
    Value Saved[32];
    bool SavedBound[32];
    uint32_t NumSaved = 0;
    bool Ok = true;
    for (size_t C = 0; C < A.Terms.size() && Ok; ++C) {
      const Term &T = A.Terms[C];
      if (!T.IsVar)
        continue;
      if (Bound[T.V]) {
        if (Env[T.V] != Row[C] && !(Mask & (1u << C)))
          Ok = false; // repeated var bound earlier in this same atom
        continue;
      }
      Saved[NumSaved] = T.V;
      SavedBound[NumSaved] = false;
      ++NumSaved;
      Env[T.V] = Row[C];
      Bound[T.V] = true;
      (void)SavedBound;
    }
    if (Ok)
      NewTuples += joinFrom(R, DeltaIdx, AtomIdx + 1, Env, Bound);
    for (uint32_t I = 0; I < NumSaved; ++I)
      Bound[Saved[I]] = false;
  });
  return NewTuples;
}

size_t Engine::evalRuleVersion(const Rule &R, size_t DeltaIdx) {
  std::vector<Value> Env(R.NumVars, 0);
  std::vector<bool> Bound(R.NumVars, false);
  return joinFrom(R, DeltaIdx, 0, Env, Bound);
}

EngineStats Engine::run(const EngineOptions &Opts) {
  assert(!HasRun && "Engine::run may be called once");
  HasRun = true;

  pt::Stopwatch Watch;
  Budget B(Opts);
  ActiveBudget = &B;
  EngineStats Stats;
  Stats.RuleProfile.resize(Rules.size());
  for (size_t I = 0; I < Rules.size(); ++I)
    Stats.RuleProfile[I].Name = Rules[I].Name;
  Stats.RelationProfile.resize(Relations.size());
  for (size_t I = 0; I < Relations.size(); ++I)
    Stats.RelationProfile[I].Name = Relations[I]->name();

  // Promote initial facts into the first delta; record the seed deltas as
  // round 0 of each relation's profile.
  for (size_t I = 0; I < Relations.size(); ++I)
    Stats.RelationProfile[I].DeltaPerRound.push_back(
        Relations[I]->promote());

  bool Changed = true;
  while (Changed && !B.Aborted) {
    Changed = false;
    ++Stats.Rounds;
    for (size_t RuleIdx = 0; RuleIdx < Rules.size(); ++RuleIdx) {
      const Rule &R = Rules[RuleIdx];
      RuleStats &RS = Stats.RuleProfile[RuleIdx];
      if (R.Body.empty()) {
        // Fact rules (no body) only fire in the first round.
        if (Stats.Rounds == 1) {
          std::vector<Value> Env(R.NumVars, 0);
          std::vector<bool> Bound(R.NumVars, false);
          size_t New = fireHead(R, Env, Bound);
          ++RS.Evals;
          RS.Derived += New;
          B.note(New);
        }
        continue;
      }
      // Scans read settled rows only, so an atom over a relation with none
      // joins nothing this round.
      if (std::any_of(R.Body.begin(), R.Body.end(), [](const Atom &A) {
            return A.Rel->settledRows() == 0;
          }))
        continue;
      for (size_t DeltaIdx = 0; DeltaIdx < R.Body.size(); ++DeltaIdx) {
        size_t New = evalRuleVersion(R, DeltaIdx);
        ++RS.Evals;
        RS.Derived += New;
        B.note(New);
        if (B.Aborted || B.Deadline.expired())
          break;
      }
      if (B.Deadline.expired())
        B.Aborted = true;
      if (B.Aborted)
        break;
    }
    for (size_t I = 0; I < Relations.size(); ++I) {
      size_t Promoted = Relations[I]->promote();
      Stats.RelationProfile[I].DeltaPerRound.push_back(Promoted);
      if (Promoted > 0)
        Changed = true;
    }
  }

  ActiveBudget = nullptr;
  Stats.DerivedTuples = B.Derived;
  Stats.Aborted = B.Aborted;
  Stats.SolveMs = Watch.elapsedMs();
  for (size_t I = 0; I < Relations.size(); ++I)
    Stats.RelationProfile[I].FinalRows = Relations[I]->size();
  return Stats;
}
