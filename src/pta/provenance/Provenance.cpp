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

const char *pt::prov::ruleName(Rule R) {
  switch (R) {
  case Rule::Entry:
    return "entry";
  case Rule::Seed:
    return "seed";
  case Rule::ReachCall:
    return "reach-call";
  case Rule::Alloc:
    return "alloc";
  case Rule::Move:
    return "move";
  case Rule::Cast:
    return "cast";
  case Rule::Load:
    return "load";
  case Rule::Store:
    return "store";
  case Rule::StaticLoad:
    return "static-load";
  case Rule::StaticStore:
    return "static-store";
  case Rule::VCall:
    return "vcall";
  case Rule::SCall:
    return "scall";
  case Rule::ThisBind:
    return "this-bind";
  case Rule::ParamBind:
    return "param-bind";
  case Rule::ReturnBind:
    return "return-bind";
  case Rule::ThrowRaise:
    return "throw-raise";
  case Rule::CatchBind:
    return "catch-bind";
  case Rule::ThrowEscalate:
    return "throw-escalate";
  case Rule::CatchEscalate:
    return "catch-escalate";
  case Rule::ShortcutStore:
    return "shortcut-store";
  case Rule::ShortcutRetArg:
    return "shortcut-ret-arg";
  case Rule::ShortcutRetLoad:
    return "shortcut-ret-load";
  case Rule::ShortcutRetAlloc:
    return "shortcut-ret-alloc";
  case Rule::Sanitize:
    return "sanitize";
  case Rule::NumRules:
    break;
  }
  return "?";
}

namespace {

uint64_t factHash(FactKind Kind, uint64_t A, uint64_t B64) {
  return hashCombine(hashCombine(mix64(static_cast<uint64_t>(Kind)), A), B64);
}

} // namespace

uint32_t Recorder::appendLocked(FactKind Kind, uint64_t A, uint64_t B64) {
  uint32_t Id = static_cast<uint32_t>(Facts.size());
  Facts.push_back(FactRec{A, B64, UINT32_MAX, Kind});
  return Id;
}

void Recorder::stepLocked(uint32_t Target, Rule R, uint32_t P0, uint32_t P1) {
  assert(Target < Facts.size() && "step targets an unrecorded fact");
  uint32_t Idx = static_cast<uint32_t>(Steps.size());
  Steps.push_back(Step{Target, P0, P1, static_cast<uint32_t>(R)});
  if (Facts[Target].FirstStep == UINT32_MAX)
    Facts[Target].FirstStep = Idx;
}

void Recorder::indexLocked() {
  // Load factor at most 1: when the facts outgrow the buckets, rechain
  // everything into a table of twice the size.
  size_t NumBuckets = std::max<size_t>(Buckets.size(), 1024);
  while (NumBuckets < Facts.size())
    NumBuckets *= 2;
  if (NumBuckets != Buckets.size()) {
    Buckets.assign(NumBuckets, UINT32_MAX);
    Chain.clear();
  }
  for (uint32_t I = static_cast<uint32_t>(Chain.size()); I < Facts.size();
       ++I) {
    size_t S = factHash(Facts[I].Kind, Facts[I].A, Facts[I].B64) &
               (NumBuckets - 1);
    Chain.push_back(Buckets[S]);
    Buckets[S] = I;
  }
}

void Recorder::refreshBytesLocked() {
  size_t B = Facts.capacity() * sizeof(FactRec) +
             Steps.capacity() * sizeof(Step) +
             (Buckets.capacity() + Chain.capacity()) * sizeof(uint32_t);
  BytesA.store(B, std::memory_order_relaxed);
}

uint32_t Recorder::appendFact(FactKind Kind, uint64_t A, uint64_t B64, Rule R,
                              uint32_t P0, uint32_t P1) {
  std::lock_guard<std::mutex> Lock(Mu);
  uint32_t Id = appendLocked(Kind, A, B64);
  stepLocked(Id, R, P0, P1);
  refreshBytesLocked();
  return Id;
}

uint32_t Recorder::reserveFact(FactKind Kind, uint64_t A, uint64_t B64) {
  std::lock_guard<std::mutex> Lock(Mu);
  uint32_t Id = appendLocked(Kind, A, B64);
  refreshBytesLocked();
  return Id;
}

uint32_t Recorder::internFact(FactKind Kind, uint64_t A, uint64_t B64) {
  std::lock_guard<std::mutex> Lock(Mu);
  indexLocked();
  uint64_t H = factHash(Kind, A, B64);
  for (uint32_t I = Buckets[H & (Buckets.size() - 1)]; I != UINT32_MAX;
       I = Chain[I]) {
    const FactRec &F = Facts[I];
    if (F.Kind == Kind && F.A == A && F.B64 == B64)
      return I;
  }
  uint32_t Id = appendLocked(Kind, A, B64);
  indexLocked();
  refreshBytesLocked();
  return Id;
}

void Recorder::step(uint32_t Target, Rule R, uint32_t P0, uint32_t P1) {
  std::lock_guard<std::mutex> Lock(Mu);
  stepLocked(Target, R, P0, P1);
  refreshBytesLocked();
}

size_t Recorder::numFacts() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Facts.size();
}

size_t Recorder::numSteps() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Steps.size();
}

Fact Recorder::fact(uint32_t Id) const {
  std::lock_guard<std::mutex> Lock(Mu);
  const FactRec &F = Facts[Id];
  return Fact{F.A, F.B64, F.Kind};
}

Step Recorder::stepAt(size_t Idx) const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Steps[Idx];
}

uint32_t Recorder::firstStepOf(uint32_t FactId) const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Facts[FactId].FirstStep;
}

bool Recorder::readFacts(size_t Begin, std::vector<Fact> &Out) const {
  constexpr size_t BlockFacts = 4096;
  Out.clear();
  std::lock_guard<std::mutex> Lock(Mu);
  size_t End = std::min(Facts.size(), Begin + BlockFacts);
  for (size_t I = Begin; I < End; ++I)
    Out.push_back(Fact{Facts[I].A, Facts[I].B64, Facts[I].Kind});
  return !Out.empty();
}

void Recorder::clear() {
  std::lock_guard<std::mutex> Lock(Mu);
  Facts.clear();
  Facts.shrink_to_fit();
  Steps.clear();
  Steps.shrink_to_fit();
  Buckets.clear();
  Buckets.shrink_to_fit();
  Chain.clear();
  Chain.shrink_to_fit();
  refreshBytesLocked();
}

// --- Fact payload helpers ---------------------------------------------------

uint32_t pt::prov::varPointsTo(Recorder &R, VarId V, CtxId Ctx, uint32_t Obj) {
  return R.internFact(FactKind::VarPointsTo,
                      packPair(V.rawValue(), Ctx.rawValue()), Obj);
}

uint32_t pt::prov::fieldPointsTo(Recorder &R, uint32_t BaseObj, FieldId F,
                                 uint32_t Obj) {
  return R.internFact(FactKind::FieldPointsTo,
                      packPair(BaseObj, F.rawValue()), Obj);
}

uint32_t pt::prov::staticPointsTo(Recorder &R, FieldId F, uint32_t Obj) {
  return R.internFact(FactKind::StaticPointsTo, F.rawValue(), Obj);
}

uint32_t pt::prov::throwPointsTo(Recorder &R, MethodId M, CtxId Ctx,
                                 uint32_t Obj) {
  return R.internFact(FactKind::ThrowPointsTo,
                      packPair(M.rawValue(), Ctx.rawValue()), Obj);
}

uint32_t pt::prov::reachableFact(Recorder &R, MethodId M, CtxId Ctx) {
  return R.internFact(FactKind::Reachable,
                      packPair(M.rawValue(), Ctx.rawValue()), 0);
}

uint32_t pt::prov::callEdgeFact(Recorder &R, InvokeId I, CtxId CallerCtx,
                                MethodId Callee, CtxId CalleeCtx) {
  return R.internFact(FactKind::CallEdge,
                      packPair(I.rawValue(), CallerCtx.rawValue()),
                      packPair(Callee.rawValue(), CalleeCtx.rawValue()));
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
