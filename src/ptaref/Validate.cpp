//===- ptaref/Validate.cpp - Replay derivation steps on the reference ----===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A step of list rule r is checked through each Datalog rule that
/// concludes the step's relation and mirrors r, alone or with the rule
/// deriving its intermediate atom inlined (docs/OBSERVABILITY.md).
/// Reachable is the solver's context anchor: a Reachable premise or atom
/// left unmatched is not checked.  A call edge can stand for the
/// intermediate tuple its CallGraph row projects; that tuple is still
/// re-proved whenever its functors stay evaluable, and the re-proving
/// rule's output atoms may then go uncited.
///
//===----------------------------------------------------------------------===//

#include "ptaref/Validate.h"

#include "context/Policy.h"
#include "ir/Program.h"
#include "pta/AnalysisResult.h"
#include "ptaref/ReferenceAnalysis.h"
#include "support/Hashing.h"

#include <algorithm>
#include <optional>

using namespace pt;
using namespace pt::prov;
using dl::Atom;
using dl::Relation;
using dl::Term;
using dl::Value;

namespace {

constexpr size_t NumKinds = 6; ///< FactKind values; also "no premise".
constexpr size_t NumSlots = NumKinds + 1; ///< A premise slot's kinds.

/// A fact as the reference's tuple: objects split into (heap, hctx).
struct Tuple {
  size_t Kind = NumKinds;
  Value V[5] = {};
};

/// One rule application that can conclude a step, flattened so the body
/// keeps only input atoms; Prem[i] is the atom premise i binds.
struct Plan {
  dl::Rule Flat;
  Atom Prem[2];
};

/// Replays the steps of one run against its loaded, unsolved reference.
class StepReplayer {
public:
  StepReplayer(const Recorder &R, const AnalysisResult &Res,
               ContextPolicy &Policy)
      : R(R), Res(Res), Policy(Policy), Ref(Res.program(), Policy),
        Rules(Ref.engine().rules()),
        Cache(NumRules * NumKinds * NumSlots * NumSlots) {
    Ref.engine().settle();
    const char *Names[] = {"VarPointsTo",   "FldPointsTo", "StaticFldPointsTo",
                           "ThrowPointsTo", "Reachable",   "CallGraph"};
    for (size_t K = 0; K != NumKinds; ++K)
      KindRel[K] = Ref.engine().find(Names[K]);
  }

  /// Empty when \p S checks; otherwise why not.
  std::string check(const Step &S) {
    if (S.Target >= R.numFacts())
      return "step targets fact id out of range";
    Tuple T, P[2];
    if (!decode(S.Target, T))
      return "conclusion cites an object or context id out of range";
    for (uint32_t I : {0u, 1u}) {
      uint32_t Id = I ? S.Prem1 : S.Prem0;
      if (Id != InvalidFact && (Id >= R.numFacts() || !decode(Id, P[I])))
        return "premise " + std::to_string(I) + " out of range";
    }
    Rule Of = S.rule();
    if (static_cast<size_t>(Of) >= NumRules)
      return "unknown rule";
    bool Reach = T.Kind == static_cast<size_t>(FactKind::Reachable);
    if (Of == Rule::Seed)
      return Reach ? "" : "seed of non-Reachable";
    if (Of == Rule::Entry)
      return checkEntry(T, Reach,
                        P[0].Kind != NumKinds || P[1].Kind != NumKinds);

    const std::vector<Plan> &Plans = plansFor(Of, T, P);
    if (Plans.empty())
      return std::string("no rule mirroring ") + ruleName(Of) +
             " concludes " + KindRel[T.Kind]->name() + " from these premises";
    // Report the plan that got furthest: a premise mismatch ranks below
    // the first body atom, a functor above the last.
    std::string Error;
    size_t ErrorDepth = 0;
    for (const Plan &Pl : Plans) {
      Env.resize(Pl.Flat.NumVars);
      Bound.assign(Pl.Flat.NumVars, false);
      std::string Why = bind(Pl.Flat.Head, T.V)
                            ? ""
                            : "conclusion does not match " +
                                  Pl.Flat.Head.Rel->name();
      for (size_t I = 0; I != 2 && Why.empty(); ++I)
        if (Pl.Prem[I].Rel && !bind(Pl.Prem[I], P[I].V))
          Why = "premise " + std::to_string(I) + " does not match " +
                Pl.Prem[I].Rel->name();
      size_t Depth = 0;
      if (Why.empty()) {
        dl::Derivation D = dl::Engine::derives(Pl.Flat, Env, Bound);
        if (D.Ok)
          return "";
        Depth = 1 + D.Depth;
        Why = D.Depth < Pl.Flat.Body.size()
                  ? "no " + std::string(D.Unmet) + " tuple matches"
                  : std::string(D.Unmet) + " does not reproduce the context";
      }
      if (Error.empty() || Depth > ErrorDepth) {
        Error = Pl.Flat.Name + ": " + Why;
        ErrorDepth = Depth;
      }
    }
    return Error;
  }

private:
  bool output(const Relation *Rel) const {
    return std::find(KindRel, KindRel + NumKinds, Rel) != KindRel + NumKinds;
  }
  bool derived(const Relation *Rel) const {
    return std::any_of(Rules.begin(), Rules.end(),
                       [Rel](const dl::Rule &D) { return D.Head.Rel == Rel; });
  }

  /// The rule projecting an intermediate \p From tuple onto a \p To row.
  const dl::Rule *projection(const Relation *From, const Relation *To) const {
    for (const dl::Rule &P : Rules)
      if (P.Head.Rel == To && P.Body.size() == 1 && P.Body[0].Rel == From &&
          P.Functors.empty())
        return &P;
    return nullptr;
  }

  /// Decodes fact \p Id; false when it cites an object or context id out
  /// of range.
  bool decode(uint32_t Id, Tuple &T) const {
    Fact F = R.fact(Id);
    T.Kind = static_cast<size_t>(F.Kind);
    uint32_t Hi = unpackHi(F.A), Lo = unpackLo(F.A);
    uint32_t Obj = static_cast<uint32_t>(F.B64);
    auto Object = [&](uint32_t O, Value *Out) {
      bool Ok = O < Res.numObjects();
      Out[0] = Ok ? Res.objHeap(O).index() : 0;
      Out[1] = Ok ? Res.objHCtx(O).index() : 0;
      return Ok;
    };
    auto Ctx = [&](uint32_t C) { return C < Policy.ctxTable().size(); };
    T.V[0] = Hi;
    T.V[1] = Lo;
    switch (F.Kind) {
    case FactKind::VarPointsTo:   // (var, ctx, heap, hctx)
    case FactKind::ThrowPointsTo: // (method, ctx, heap, hctx)
      return Ctx(Lo) && Object(Obj, T.V + 2);
    case FactKind::FieldPointsTo: // (baseHeap, baseHCtx, fld, heap, hctx)
      T.V[2] = Lo;
      return Object(Hi, T.V) && Object(Obj, T.V + 3);
    case FactKind::StaticPointsTo: // (fld, heap, hctx)
      T.V[0] = static_cast<uint32_t>(F.A);
      return Object(Obj, T.V + 1);
    case FactKind::Reachable: // (method, ctx)
      return Ctx(Lo);
    case FactKind::CallEdge: // (invo, callerCtx, callee, calleeCtx)
      T.V[2] = unpackHi(F.B64);
      T.V[3] = unpackLo(F.B64);
      return Ctx(Lo) && Ctx(T.V[3]);
    }
    return false;
  }

  /// The plans for steps of \p Of concluding \p T from \p P's kinds,
  /// compiled on first use.
  const std::vector<Plan> &plansFor(Rule Of, const Tuple &T,
                                    const Tuple (&P)[2]) {
    size_t Key = (static_cast<size_t>(Of) * NumKinds + T.Kind) * NumSlots;
    std::optional<std::vector<Plan>> &Plans =
        Cache[(Key + P[0].Kind) * NumSlots + P[1].Kind];
    if (Plans)
      return *Plans;
    Plans.emplace();
    const auto &Mirrors = Ref.ruleMirrors();
    for (const dl::Rule &Top : Rules) {
      if (Top.Head.Rel != KindRel[T.Kind])
        continue;
      // Top's intermediate atom, if any, is re-proved through each rule
      // deriving it, or else (null) vouched for by a cited call edge.  The
      // pair must mirror Of and no other list rule.
      std::vector<const dl::Rule *> Proofs;
      for (const Atom &A : Top.Body)
        for (const dl::Rule &D : Rules)
          if (!output(A.Rel) && D.Head.Rel == A.Rel)
            Proofs.push_back(&D);
      Proofs.push_back(nullptr);
      std::optional<Rule> TopOf = Mirrors[&Top - Rules.data()].Of;
      bool Reproved = false;
      for (const dl::Rule *Proof : Proofs) {
        std::optional<Rule> ProofOf =
            Proof ? Mirrors[Proof - Rules.data()].Of : std::nullopt;
        if ((TopOf != Of && ProofOf != Of) || (TopOf && TopOf != Of) ||
            (ProofOf && ProofOf != Of) || (!Proof && Reproved))
          continue;
        if (std::optional<Plan> Built = build(Top, Proof, P)) {
          Plans->push_back(std::move(*Built));
          Reproved |= Proof != nullptr;
        }
      }
    }
    return *Plans;
  }

  /// Flattens \p Top, with \p Proof inlined for its intermediate atom, and
  /// binds \p P's premises; nothing when that leaves a premise or output
  /// atom unmatched or a functor argument unbound.
  std::optional<Plan> build(const dl::Rule &Top, const dl::Rule *Proof,
                            const Tuple (&P)[2]) const {
    Plan Out;
    dl::Rule &Flat = Out.Flat;
    Flat.Name = Top.Name;
    Flat.Head = Top.Head;
    Flat.NumVars = Top.NumVars;
    // Output atoms a premise may bind, in order of preference: Top's own
    // (level 0), the re-proving rule's (1), and the call edge projecting
    // the intermediate tuple (2).
    struct Slot {
      Atom A;
      int Level;
      bool Taken = false;
    };
    std::vector<Slot> Slots;
    const Atom *Mid = nullptr;
    for (const Atom &A : Top.Body) {
      if (output(A.Rel))
        Slots.push_back({A, 0});
      else if (!derived(A.Rel))
        Flat.Body.push_back(A);
      else
        Mid = &A;
    }
    if (Mid && Proof) {
      // Proof's head variables become Mid's terms, the others fresh ones.
      std::vector<Term> Rename(Proof->NumVars, Term::var(UINT32_MAX));
      for (size_t C = 0; C != Proof->Head.Terms.size(); ++C)
        Rename[Proof->Head.Terms[C].V] = Mid->Terms[C];
      for (Term &T : Rename)
        if (T.V == UINT32_MAX)
          T = Term::var(Flat.NumVars++);
      auto Renamed = [&Rename](Atom A) {
        for (Term &T : A.Terms)
          T = T.IsVar ? Rename[T.V] : T;
        return A;
      };
      for (const Atom &B : Proof->Body) {
        if (output(B.Rel))
          Slots.push_back({Renamed(B), 1});
        else
          Flat.Body.push_back(Renamed(B));
      }
      for (dl::FunctorApp F : Proof->Functors) {
        for (Term &T : F.Args)
          T = T.IsVar ? Rename[T.V] : T;
        F.ResultVar = Rename[F.ResultVar].V;
        Flat.Functors.push_back(std::move(F));
      }
    }
    Flat.Functors.insert(Flat.Functors.end(), Top.Functors.begin(),
                         Top.Functors.end());
    // Only projections of call-target tuples conclude CallGraph, so a call
    // edge proves the tuple it projects.
    Relation *Edges = KindRel[static_cast<size_t>(FactKind::CallEdge)];
    if (const dl::Rule *Proj = Mid ? projection(Mid->Rel, Edges) : nullptr) {
      Slots.push_back({Atom(*Edges, {}), 2});
      const std::vector<Term> &From = Proj->Body[0].Terms;
      for (const Term &H : Proj->Head.Terms)
        Slots.back().A.Terms.push_back(
            Mid->Terms[std::find_if(From.begin(), From.end(),
                                    [&](const Term &T) { return T.V == H.V; }) -
                       From.begin()]);
    }

    const Relation *Anchor = KindRel[static_cast<size_t>(FactKind::Reachable)];
    bool MidCited = false;
    for (size_t I = 0; I != 2; ++I) {
      if (P[I].Kind == NumKinds)
        continue;
      auto Pick = std::find_if(Slots.begin(), Slots.end(), [&](Slot &S) {
        return !S.Taken && S.A.Rel == KindRel[P[I].Kind];
      });
      if (Pick == Slots.end() && KindRel[P[I].Kind] != Anchor)
        return std::nullopt; // A premise the rule has no atom for.
      if (Pick == Slots.end())
        continue;
      Pick->Taken = true;
      MidCited |= Pick->Level == 2;
      Out.Prem[I] = Pick->A;
    }
    if (Mid && !Proof && !MidCited)
      return std::nullopt; // An intermediate tuple nothing proves.
    for (const Slot &S : Slots)
      if (!S.Taken && S.A.Rel != Anchor && S.Level != 2 &&
          !(S.Level == 1 && MidCited))
        return std::nullopt; // An output atom no premise binds.

    // The head, the premises and the input atoms must bind every functor's
    // arguments and its result, which it must reproduce.
    std::vector<bool> IsBound(Flat.NumVars, false);
    auto Mark = [&IsBound](const Atom &A) {
      for (const Term &T : A.Terms)
        if (T.IsVar)
          IsBound[T.V] = true;
    };
    Mark(Flat.Head);
    Mark(Out.Prem[0]);
    Mark(Out.Prem[1]);
    std::for_each(Flat.Body.begin(), Flat.Body.end(), Mark);
    for (const dl::FunctorApp &F : Flat.Functors)
      if (!IsBound[F.ResultVar] ||
          std::any_of(F.Args.begin(), F.Args.end(), [&](const Term &T) {
            return T.IsVar && !IsBound[T.V];
          }))
        return std::nullopt;
    return Out;
  }

  bool bind(const Atom &A, const Value *Row) {
    for (size_t C = 0; C != A.Terms.size(); ++C) {
      const Term &T = A.Terms[C];
      if (!T.IsVar || Bound[T.V]) {
        if ((T.IsVar ? Env[T.V] : T.V) != Row[C])
          return false;
      } else {
        Env[T.V] = Row[C];
        Bound[T.V] = true;
      }
    }
    return true;
  }

  std::string checkEntry(const Tuple &T, bool Reach, bool HasPrem) {
    if (!Reach)
      return "entry concludes non-Reachable";
    if (HasPrem)
      return "entry with premises";
    for (MethodId M : Res.program().entryPoints())
      if (M.index() == T.V[0])
        return CtxId(T.V[1]) == Policy.initialContext()
                   ? ""
                   : "entry context is not the policy's initial context";
    return "entry Reachable of a non-entry method";
  }

  const Recorder &R;
  const AnalysisResult &Res;
  ContextPolicy &Policy;
  ReferenceAnalysis Ref;
  const std::vector<dl::Rule> &Rules;
  Relation *KindRel[NumKinds];
  /// Plans by (rule, conclusion kind, premise kinds).
  std::vector<std::optional<std::vector<Plan>>> Cache;
  std::vector<Value> Env;
  std::vector<bool> Bound;
};

/// Fails \p VR at step \p Idx.
ValidationResult &fail(ValidationResult &VR, const Step &S, size_t Idx,
                       const std::string &Why) {
  VR.Ok = false;
  VR.Error = "step " + std::to_string(Idx) + " (" + ruleName(S.rule()) +
             " -> fact " + std::to_string(S.Target) + "): " + Why;
  return VR;
}

} // namespace

ValidationResult pt::prov::validateTree(const Recorder &R,
                                        const AnalysisResult &Res,
                                        const DerivationTree &Tree,
                                        ContextPolicy &Policy) {
  ValidationResult VR;
  if (!Tree.Found) {
    VR.Ok = false;
    VR.Error = "tree not found: " + Tree.Error;
    return VR;
  }
  StepReplayer Replayer(R, Res, Policy);
  // Premises must be concluded by an earlier tree step (well-foundedness).
  std::vector<bool> Concluded(R.numFacts(), false);
  for (const TreeStep &TS : Tree.Steps) {
    Step S{TS.FactId, TS.Prem0, TS.Prem1, static_cast<uint32_t>(TS.R)};
    for (uint32_t P : {TS.Prem0, TS.Prem1})
      if (P != InvalidFact && (P >= R.numFacts() || !Concluded[P]))
        return fail(VR, S, TS.StepIdx,
                    "premise not concluded by an earlier tree step");
    if (std::string Err = Replayer.check(S); !Err.empty())
      return fail(VR, S, TS.StepIdx, Err);
    Concluded[TS.FactId] = true;
    ++VR.CheckedSteps;
  }
  if (Tree.Steps.empty() || Tree.Steps.back().FactId != Tree.Root) {
    VR.Ok = false;
    VR.Error = "tree does not conclude its root fact";
  }
  return VR;
}

ValidationResult pt::prov::validateSampledSteps(const Recorder &R,
                                                const AnalysisResult &Res,
                                                ContextPolicy &Policy,
                                                size_t Stride) {
  ValidationResult VR;
  StepReplayer Replayer(R, Res, Policy);
  for (size_t I = 0; I < R.numSteps(); I += std::max<size_t>(Stride, 1)) {
    if (std::string Err = Replayer.check(R.stepAt(I)); !Err.empty())
      return fail(VR, R.stepAt(I), I, Err);
    ++VR.CheckedSteps;
  }
  return VR;
}
