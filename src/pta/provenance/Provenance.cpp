//===- pta/provenance/Provenance.cpp - Derivation arena and queries ------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//

#include "pta/provenance/Provenance.h"

#include "context/ContextTable.h"
#include "ir/Program.h"
#include "pta/AnalysisResult.h"
#include "support/FlatMap.h"
#include "support/Hashing.h"

#include <algorithm>
#include <cassert>
#include <map>

using namespace pt;
using namespace pt::prov;

const char *pt::prov::factKindName(FactKind K) {
  switch (K) {
  case FactKind::VarPointsTo:
    return "VarPointsTo";
  case FactKind::FieldPointsTo:
    return "FieldPointsTo";
  case FactKind::StaticPointsTo:
    return "StaticPointsTo";
  case FactKind::ThrowPointsTo:
    return "ThrowPointsTo";
  case FactKind::Reachable:
    return "Reachable";
  case FactKind::CallEdge:
    return "CallEdge";
  }
  return "?";
}

void Recorder::clear() {
  Facts.clear();
  Facts.shrink_to_fit();
  Steps.clear();
  Steps.shrink_to_fit();
}

// --- Queries ----------------------------------------------------------------

DerivationTree pt::prov::deriveFact(const Recorder &R, uint32_t FactId) {
  DerivationTree Tree;
  Tree.Root = FactId;
  const size_t NumFacts = R.numFacts();
  if (FactId == InvalidFact || FactId >= NumFacts) {
    Tree.Error = "no such fact";
    return Tree;
  }
  // Backward walk over each fact's *first-recorded* step.  Steps are only
  // recorded after their premises exist, and a fact's first step never
  // (transitively) cites a fact first derived from it, so the first-step
  // graph is a DAG; an iterative DFS post-order yields premises strictly
  // before conclusions.  Step indices are *not* globally monotone along
  // the walk (a Reachable step may cite a CallEdge fact whose own step
  // lands a few entries later), which is why this is a topological emit
  // rather than a sort by arena position.
  // Visit state lives in a map over the facts the walk touches, not in
  // arrays over the whole arena: a lint run derives one tree per anchored
  // diagnostic, and state sized to the arena would make that
  // O(diagnostics x facts).
  // States: 0 unseen, 1 on the current DFS path, 2 emitted.
  struct Visit {
    uint32_t Depth;
    uint8_t State;
  };
  FlatMap<Visit> Seen;
  auto visit = [&Seen](uint32_t F) -> Visit & {
    return *Seen.tryEmplace(F, Visit{0, 0}).first;
  };
  struct Frame {
    uint32_t F;
    bool Post;
  };
  std::vector<Frame> Stack{{FactId, false}};
  while (!Stack.empty()) {
    Frame Fr = Stack.back();
    Stack.pop_back();
    uint32_t SIdx = R.firstStepOf(Fr.F);
    if (SIdx == UINT32_MAX) {
      // Interned but never concluded: a premise cited before its own step
      // would violate record order; treat as corrupt arena.
      Tree.Error = "fact has no derivation step";
      return Tree;
    }
    Step S = R.stepAt(SIdx);
    Visit &V = visit(Fr.F);
    if (Fr.Post) {
      V.State = 2;
      TreeStep TS;
      TS.FactId = Fr.F;
      TS.StepIdx = SIdx;
      TS.R = S.rule();
      TS.Prem0 = S.Prem0;
      TS.Prem1 = S.Prem1;
      TS.Depth = V.Depth;
      Tree.Steps.push_back(TS);
      continue;
    }
    if (V.State == 2)
      continue; // Shared premise already emitted via another conclusion.
    if (V.State == 1) {
      Tree.Error = "derivation arena contains a cyclic justification";
      return Tree;
    }
    V.State = 1;
    const uint32_t PremDepth = V.Depth + 1; // V dangles after visit() below.
    Stack.push_back({Fr.F, true});
    for (uint32_t P : {S.Prem1, S.Prem0}) {
      if (P == InvalidFact)
        continue;
      if (P >= NumFacts) {
        Tree.Error = "premise fact id out of range";
        return Tree;
      }
      Visit &PV = visit(P);
      if (PV.State == 2)
        continue;
      PV.Depth = PremDepth;
      Stack.push_back({P, false});
    }
  }
  Tree.Found = true;
  return Tree;
}

DerivationTree pt::prov::whyPointsTo(const Recorder &R,
                                     const AnalysisResult &Res, VarId V,
                                     CtxId Ctx, HeapId Heap) {
  // Find a dense object id whose heap site matches, then look the
  // VarPointsTo fact up in the arena.  Any heap context is accepted; when
  // Ctx is invalid any method context matches too.
  uint32_t Match = InvalidFact;
  R.scanFacts([&](uint32_t Id, const Fact &F) {
    if (F.Kind != FactKind::VarPointsTo || unpackHi(F.A) != V.rawValue())
      return true;
    if (Ctx.isValid() && unpackLo(F.A) != Ctx.rawValue())
      return true;
    uint32_t Obj = static_cast<uint32_t>(F.B64);
    if (Obj >= Res.numObjects() || Res.objHeap(Obj) != Heap)
      return true;
    Match = Id;
    return false;
  });
  if (Match != InvalidFact)
    return deriveFact(R, Match);
  DerivationTree Tree;
  Tree.Error = "no recorded VarPointsTo fact matches the query";
  return Tree;
}

// --- Blame ------------------------------------------------------------------

namespace {

void topK(std::map<std::string, uint64_t> &Counts, size_t K,
          std::vector<BlameRow> &Out) {
  std::vector<BlameRow> Rows;
  Rows.reserve(Counts.size());
  for (auto &[Key, N] : Counts)
    Rows.push_back(BlameRow{Key, N, N * sizeof(Step)});
  std::sort(Rows.begin(), Rows.end(), [](const BlameRow &A, const BlameRow &B) {
    if (A.Steps != B.Steps)
      return A.Steps > B.Steps;
    return A.Key < B.Key;
  });
  if (Rows.size() > K)
    Rows.resize(K);
  Out = std::move(Rows);
}

/// The method a conclusion is attributed to: the owner of the concluded
/// entity (var owner, throwing method, base-object alloc method, invoking
/// method); static slots have no owner.
MethodId blameMethod(const Program &Prog, const Fact &F) {
  switch (F.Kind) {
  case FactKind::VarPointsTo:
    return Prog.var(VarId(unpackHi(F.A))).Owner;
  case FactKind::FieldPointsTo:
    return MethodId::invalid(); // Resolved via the base object by caller.
  case FactKind::StaticPointsTo:
    return MethodId::invalid();
  case FactKind::ThrowPointsTo:
  case FactKind::Reachable:
    return MethodId(unpackHi(F.A));
  case FactKind::CallEdge:
    return Prog.invoke(InvokeId(unpackHi(F.A))).InMethod;
  }
  return MethodId::invalid();
}

} // namespace

BlameReport pt::prov::blame(const Recorder &R, const AnalysisResult &Res,
                            size_t TopK) {
  const Program &Prog = Res.program();
  const ContextPolicy &Policy = Res.policy();
  BlameReport Rep;
  Rep.TotalFacts = R.numFacts();
  Rep.TotalSteps = R.numSteps();
  Rep.ArenaBytes = R.memoryBytes();
  std::map<std::string, uint64_t> ByRule, ByMethod, ByAlloc, ByDepth;
  size_t N = R.numSteps();
  for (size_t I = 0; I < N; ++I) {
    Step S = R.stepAt(I);
    Fact F = R.fact(S.Target);
    ByRule[ruleName(S.rule())]++;

    MethodId M = blameMethod(Prog, F);
    if (F.Kind == FactKind::FieldPointsTo) {
      uint32_t BaseObj = unpackHi(F.A);
      if (BaseObj < Res.numObjects())
        M = Prog.heap(Res.objHeap(BaseObj)).InMethod;
    }
    ByMethod[M.isValid() ? Prog.qualifiedName(M) : "(static)"]++;

    // Allocation site of the concluded object, when the fact carries one.
    if (F.Kind != FactKind::Reachable && F.Kind != FactKind::CallEdge) {
      uint32_t Obj = static_cast<uint32_t>(F.B64);
      if (Obj < Res.numObjects()) {
        const HeapInfo &H = Prog.heap(Res.objHeap(Obj));
        ByAlloc[Prog.text(H.Name)]++;
      }
    }

    // Method-context depth: count non-star slots of the conclusion's ctx.
    if (F.Kind == FactKind::VarPointsTo || F.Kind == FactKind::ThrowPointsTo ||
        F.Kind == FactKind::Reachable) {
      CtxId Ctx(unpackLo(F.A));
      uint32_t Depth = 0;
      const auto &Tab = Policy.ctxTable();
      if (Ctx.isValid() && Ctx.index() < Tab.size()) {
        for (uint32_t Slot = 0; Slot < Tab.arity(Ctx); ++Slot)
          if (Tab.elem(Ctx, Slot).raw() != ContextElem::star().raw())
            ++Depth;
      }
      ByDepth["depth-" + std::to_string(Depth)]++;
    }
  }
  topK(ByRule, TopK, Rep.ByRule);
  topK(ByMethod, TopK, Rep.ByMethod);
  topK(ByAlloc, TopK, Rep.ByAllocSite);
  topK(ByDepth, TopK, Rep.ByCtxDepth);
  return Rep;
}
