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

/// \p F applied to its arguments under \p Env.
Value applyFunctor(const FunctorApp &F, const std::vector<Value> &Env) {
  Value Args[16];
  assert(F.Args.size() <= 16 && "too many functor args");
  for (size_t I = 0; I < F.Args.size(); ++I)
    Args[I] = F.Args[I].IsVar ? Env[F.Args[I].V] : F.Args[I].V;
  return F.Fn(Args);
}

} // namespace

size_t Engine::fireHead(const Rule &R, std::vector<Value> &Env,
                        std::vector<bool> &Bound) {
  // Functors in declaration order.
  for (const FunctorApp &F : R.Functors) {
    Env[F.ResultVar] = applyFunctor(F, Env);
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

template <typename Visitor>
void Engine::joinFrom(const Rule &R, size_t DeltaIdx, size_t AtomIdx,
                      std::vector<Value> &Env, std::vector<bool> &Bound,
                      Visitor &Visit) {
  if (Visit.done())
    return;
  Visit.enter(AtomIdx);
  if (AtomIdx == R.Body.size()) {
    Visit.leaf(R, Env, Bound);
    return;
  }

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

  A.Rel->scan(Rng, Mask, Key, [&](const Value *Row) {
    if (Visit.done())
      return;
    // Bind free variables of this atom; handle repeated variables within
    // the atom (second occurrence acts as an equality filter).
    Value Saved[32];
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
      Saved[NumSaved++] = T.V;
      Env[T.V] = Row[C];
      Bound[T.V] = true;
    }
    if (Ok)
      joinFrom(R, DeltaIdx, AtomIdx + 1, Env, Bound, Visit);
    for (uint32_t I = 0; I < NumSaved; ++I)
      Bound[Saved[I]] = false;
  });
}

size_t Engine::evalRuleVersion(const Rule &R, size_t DeltaIdx) {
  std::vector<Value> Env(R.NumVars, 0);
  std::vector<bool> Bound(R.NumVars, false);
  // Every full binding fires the head.
  struct {
    size_t New = 0;
    bool done() const { return ActiveBudget->Aborted; }
    void enter(size_t) {}
    void leaf(const Rule &R, std::vector<Value> &Env,
              std::vector<bool> &Bound) {
      New += fireHead(R, Env, Bound);
    }
  } Visit;
  joinFrom(R, DeltaIdx, 0, Env, Bound, Visit);
  return Visit.New;
}

void Engine::settle() {
  for (const std::unique_ptr<Relation> &R : Relations)
    R->promote();
}

Derivation Engine::derives(const Rule &R, std::vector<Value> &Env,
                           std::vector<bool> &Bound) {
  // Stops at the first full binding whose functors reproduce their
  // results, and remembers how far the deepest binding got.
  struct {
    bool Found = false;
    size_t Deepest = 0;  ///< Body atoms the deepest binding matched.
    size_t Functors = 0; ///< Functors the deepest full binding reproduced.
    bool done() const { return Found; }
    void enter(size_t AtomIdx) { Deepest = std::max(Deepest, AtomIdx); }
    void leaf(const Rule &R, std::vector<Value> &Env, std::vector<bool> &) {
      size_t I = 0;
      while (I < R.Functors.size() &&
             applyFunctor(R.Functors[I], Env) == Env[R.Functors[I].ResultVar])
        ++I;
      Functors = std::max(Functors, I);
      Found = I == R.Functors.size();
    }
  } Visit;
  for ([[maybe_unused]] const FunctorApp &F : R.Functors)
    assert(Bound[F.ResultVar] && "derives needs every functor result bound");
  joinFrom(R, SIZE_MAX, 0, Env, Bound, Visit);
  Derivation D{Visit.Found, Visit.Deepest, {}};
  if (Visit.Deepest == R.Body.size())
    D.Depth += Visit.Functors;
  if (!D.Ok)
    D.Unmet = Visit.Deepest < R.Body.size() ? R.Body[Visit.Deepest].Rel->name()
                                            : R.Functors[Visit.Functors].Name;
  return D;
}

EngineStats Engine::run(const EngineOptions &Opts) {
  assert(!HasRun && "Engine::run may be called once");
  HasRun = true;

  pt::Stopwatch Watch;
  Budget B(Opts);
  ActiveBudget = &B;
  EngineStats Stats;

  // Promote initial facts into the first delta.
  settle();

  bool Changed = true;
  while (Changed && !B.Aborted) {
    Changed = false;
    ++Stats.Rounds;
    for (const Rule &R : Rules) {
      if (R.Body.empty()) {
        // Fact rules (no body) only fire in the first round.
        if (Stats.Rounds == 1) {
          std::vector<Value> Env(R.NumVars, 0);
          std::vector<bool> Bound(R.NumVars, false);
          B.note(fireHead(R, Env, Bound));
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
        B.note(evalRuleVersion(R, DeltaIdx));
        if (B.Aborted || B.Deadline.expired())
          break;
      }
      if (B.Deadline.expired())
        B.Aborted = true;
      if (B.Aborted)
        break;
    }
    for (const std::unique_ptr<Relation> &Rel : Relations)
      if (Rel->promote() > 0)
        Changed = true;
  }

  ActiveBudget = nullptr;
  Stats.DerivedTuples = B.Derived;
  Stats.Aborted = B.Aborted;
  Stats.SolveMs = Watch.elapsedMs();
  return Stats;
}
