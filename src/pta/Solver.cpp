//===- pta/Solver.cpp ---------------------------------------------------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//

#include "pta/Solver.h"

#include "context/CutShortcut.h"
#include "context/Policy.h"
#include "ir/Program.h"
#include "pta/Trace.h"
#include "support/Hashing.h"

#include <algorithm>
#include <cassert>

using namespace pt;

const Solver::ColdNode Solver::NoCold{};

AnalysisResult pt::solveProgram(const Program &Prog, ContextPolicy &Policy,
                                const SolverOptions &Opts) {
  Solver S(Prog, Policy, Opts);
  return S.run();
}

Solver::Solver(const Program &Prog, ContextPolicy &Policy, SolverOptions Opts)
    : Prog(Prog), Policy(Policy), CutPlan(Policy.cutPlan()), Opts(Opts),
      Budget(Opts.TimeBudgetMs) {
  assert(Prog.isFinalized() && "solver needs a finalized program");
  // Fault injection for harness self-tests and the robustness matrix
  // (docs/ROBUSTNESS.md).  An explicit plan wins; otherwise pick up the
  // HYBRIDPT_FAULT_PLAN / HYBRIDPT_TEST_BREAK environment plan.  Never set
  // outside tests/CI.
  if (!this->Opts.Faults.any())
    this->Opts.Faults = FaultPlan::fromEnv();
  StepFaultArmed = this->Opts.Faults.OomAtStep != 0 ||
                   this->Opts.Faults.CancelAtStep != 0;
  SlowRuleArmed = this->Opts.Faults.SlowRule.has_value();
  LocalOf.assign(Prog.numVars(), NoIndex);
  for (uint32_t M = 0; M < Prog.numMethods(); ++M) {
    const std::vector<VarId> &Locals =
        Prog.method(MethodId::fromIndex(M)).Locals;
    for (uint32_t I = 0; I < Locals.size(); ++I)
      LocalOf[Locals[I].index()] = I;
  }
}

void Solver::pollGuards() {
  if (Budget.expired()) {
    abortRun(AbortReason::TimeBudget);
    return;
  }
  if (Opts.Cancel && Opts.Cancel->cancelled()) {
    abortRun(AbortReason::Cancelled);
    return;
  }
  // The memory walk is O(nodes), so sample it on every eighth poll only
  // (~8K budget ticks); overshoot is bounded by one polling interval.
  if (Opts.MemoryBudgetBytes != 0 && (++MemPollTick & 0x7) == 0 &&
      memoryBytes() > Opts.MemoryBudgetBytes)
    abortRun(AbortReason::MemoryBudget);
}

void Solver::pollStepFaults() {
  if (Aborted)
    return;
  if (Opts.Faults.OomAtStep != 0 && StepCount >= Opts.Faults.OomAtStep)
    abortRun(AbortReason::MemoryBudget, /*Injected=*/true);
  else if (Opts.Faults.CancelAtStep != 0 &&
           StepCount >= Opts.Faults.CancelAtStep)
    abortRun(AbortReason::Cancelled, /*Injected=*/true);
}

void Solver::stallForFault() {
  // ~50us busy wait per targeted rule fire: enough to blow any realistic
  // time budget without sleeping through test suites.
  Stopwatch W;
  while (W.elapsedMs() < 0.05) {
  }
}

uint32_t Solver::newNode(NodeKind Kind, uint32_t A, uint32_t B) {
  // The hot node: the set (an order vector and a bitmap pointer), Scanned,
  // Cold, Edges, Loads and Queued.  Every other list lives in ColdNodes.
  static_assert(sizeof(Node) <= 96, "Solver::Node outgrew its layout");
  PT_COUNT(Counters.NodesCreated);
  uint32_t Idx = static_cast<uint32_t>(Nodes.size());
  Nodes.emplace_back();
  Descs.push_back({Kind, A, B});
  if (provOn())
    ProvNodes.emplace_back();
  return Idx;
}

uint32_t Solver::fieldNode(uint32_t Obj, FieldId Fld) {
  uint64_t Key = packPair(Obj, Fld.index());
  auto [Slot, Inserted] =
      FieldSlotIndex.tryEmplace(Key, static_cast<uint32_t>(Nodes.size()));
  return Inserted ? newNode(NodeKind::FieldSlot, Obj, Fld.index()) : *Slot;
}

uint32_t Solver::staticNode(FieldId Fld) {
  auto [Slot, Inserted] = StaticSlotIndex.tryEmplace(
      Fld.index(), static_cast<uint32_t>(Nodes.size()));
  return Inserted ? newNode(NodeKind::StaticSlot, Fld.index(), 0) : *Slot;
}

uint32_t Solver::throwSlot(uint32_t F) {
  stampThrowSeq(F);
  if (Frames[F].ThrowNode != NoIndex)
    return Frames[F].ThrowNode;
  auto [M, Ctx] = ReachableList[F];
  uint32_t TN = newNode(NodeKind::ThrowSlot, M.index(), Ctx.index());
  Frames[F].ThrowNode = TN;
  // The slot is empty, so linking the waiting call edges replays nothing.
  // Each waiting edge's caller frame is looked up once, here: most frames
  // never get a slot, so the call edges do not carry it.
  for (uint32_t E = Frames[F].PendingHead; E != NoIndex; E = PendingNext[E]) {
    const CallGraphEdge &CE = CallEdges[E];
    uint32_t Caller = *FrameIndex.find(packPair(
        Prog.invoke(CE.Invo).InMethod.index(), CE.CallerCtx.index()));
    addThrowLink(TN, Caller, provOn() ? CallEdgeFacts[E] : prov::InvalidFact);
  }
  Frames[F].PendingHead = Frames[F].PendingTail = NoIndex;
  return TN;
}

uint32_t Solver::internObject(HeapId Heap, HCtxId HCtx) {
  uint64_t Key = packPair(Heap.index(), HCtx.index());
  uint32_t Obj = static_cast<uint32_t>(ObjHeaps.size());
  auto [Slot, Inserted] = ObjIndex.tryEmplace(Key, Obj);
  if (!Inserted)
    return *Slot;
  PT_COUNT(Counters.ObjectsInterned);
  ObjHeaps.push_back(Heap);
  ObjHCtxs.push_back(HCtx);
  return Obj;
}

bool Solver::addFact(uint32_t NodeIdx, uint32_t Obj) {
  if (Aborted)
    return false;
  // Fact budget: refuse to queue more work once the budget is spent (the
  // old check ran after queueing, letting one extra wave through).
  if (Opts.MaxFacts != 0 && FactCount >= Opts.MaxFacts) {
    abortRun(AbortReason::FactBudget);
    return false;
  }
  Node &N = Nodes[NodeIdx];
  if (!N.Set.insert(Obj)) {
    PT_COUNT(Counters.FactDedupHits);
    return false;
  }
  PT_COUNT(Counters.FactsInserted);
  ++FactCount;
  if (!N.Queued) {
    N.Queued = true;
    Worklist.push_back(NodeIdx);
  }
  return true;
}

void Solver::concludeFact(uint32_t NodeIdx, uint32_t Obj, Rule Why,
                          uint32_t P0, uint32_t P1) {
  const NodeDesc &D = Descs[NodeIdx];
  prov::FactKind Kind = prov::FactKind::VarPointsTo;
  uint64_t A = packPair(D.A, D.B);
  switch (D.Kind) {
  case NodeKind::VarCtx:
    break;
  case NodeKind::FieldSlot:
    Kind = prov::FactKind::FieldPointsTo;
    break;
  case NodeKind::StaticSlot:
    Kind = prov::FactKind::StaticPointsTo;
    A = D.A;
    break;
  case NodeKind::ThrowSlot:
    Kind = prov::FactKind::ThrowPointsTo;
    break;
  }
  ProvNodes[NodeIdx].FactIds.push_back(
      Opts.Prov->appendFact(Kind, A, Obj, Why, P0, P1));
}

Solver::ColdNode &Solver::coldNode(uint32_t NodeIdx) {
  uint32_t &C = Nodes[NodeIdx].Cold;
  if (C == NoIndex) {
    C = static_cast<uint32_t>(ColdNodes.size());
    ColdNodes.emplace_back();
    if (provOn())
      ColdProvs.emplace_back();
  }
  return ColdNodes[C];
}

void Solver::addEdge(uint32_t From, uint32_t To, EdgeWhy W) {
  if (From == To)
    return;
  std::vector<uint32_t> &Edges = Nodes[From].Edges;
  bool Dup = Edges.size() < EdgeScanLimit
                 ? std::find(Edges.begin(), Edges.end(), To) != Edges.end()
                 : !EdgeDedup.insert(packPair(From, To));
  if (Dup) {
    PT_COUNT(Counters.EdgeDedupHits);
    return;
  }
  PT_COUNT(Counters.EdgesAdded);
  Edges.push_back(To);
  if (Edges.size() == EdgeScanLimit)
    for (uint32_t T : Edges)
      EdgeDedup.insert(packPair(From, T));
  if (provOn())
    ProvNodes[From].EdgeWhys.push_back(W);
  // Replay facts already present at the source.  ObjectSet positions are
  // stable under insertion, so walk by index instead of copying the set;
  // re-read the node each step since Nodes may reallocate through
  // reentrant graph growth.
  uint32_t Count = Nodes[From].Set.size();
  PT_COUNT_ADD(Counters.FactsReplayed, Count);
  for (uint32_t I = 0; I < Count; ++I) {
    uint32_t Obj = Nodes[From].Set.at(I);
    if (addFact(To, Obj) && provOn())
      concludeFact(To, Obj, W.Why, ProvNodes[From].FactIds[I], W.Aux);
  }
}

bool Solver::passesCastFilter(uint32_t Obj, TypeId Filter) const {
  const HeapInfo &H = Prog.heap(ObjHeaps[Obj]);
  // An invalid filter marks a sanitize edge: pass untainted objects only
  // (SanitizeInstr; docs/CHECKS.md "Taint analysis").
  if (!Filter.isValid())
    return H.TaintTag == 0;
  return Prog.isSubtype(H.Type, Filter);
}

void Solver::addCastEdge(uint32_t From, uint32_t To, TypeId Filter,
                         EdgeWhy W) {
  PT_COUNT(Counters.EdgesAdded);
  coldNode(From).CastEdges.push_back({To, Filter});
  if (provOn())
    ColdProvs[Nodes[From].Cold].CastEdgeWhys.push_back(W);
  uint32_t Count = Nodes[From].Set.size();
  PT_COUNT_ADD(Counters.FactsReplayed, Count);
  for (uint32_t I = 0; I < Count; ++I) {
    uint32_t Obj = Nodes[From].Set.at(I);
    fire(castRule(Filter));
    if (passesCastFilter(Obj, Filter) && addFact(To, Obj) && provOn())
      concludeFact(To, Obj, W.Why, ProvNodes[From].FactIds[I], W.Aux);
  }
}

uint32_t Solver::ensureReachable(MethodId M, CtxId Ctx, Rule Why,
                                 uint32_t WhyPrem) {
  uint64_t Key = packPair(M.index(), Ctx.index());
  if (Aborted) {
    const uint32_t *Known = FrameIndex.find(Key);
    return Known ? *Known : NoIndex;
  }
  fire(Why);
  uint32_t F = static_cast<uint32_t>(ReachableList.size());
  auto [Slot, Fresh] = FrameIndex.tryEmplace(Key, F);
  if (!Fresh)
    return *Slot;
  PT_COUNT(Counters.MethodsInstantiated);
  ReachableList.push_back({M, Ctx});
  const MethodInfo &Body = Prog.method(M);
  Frames.emplace_back();
  Frames.back().SlotBase = static_cast<uint32_t>(LocalSlots.size());
  LocalSlots.resize(LocalSlots.size() + Body.Locals.size(), NoIndex);

  // The Reachable fact anchors every intra-procedural derivation of this
  // body: allocs cite it directly, move/cast/static edges carry it as
  // their auxiliary premise.
  uint32_t RFact = prov::InvalidFact;
  if (provOn())
    RFact = Opts.Prov->appendFact(prov::FactKind::Reachable, Key, 0, Why,
                                  WhyPrem);

  // ALLOC: RECORD builds the heap context; seed the fact directly
  // (Figure 2, third rule).
  for (const AllocInstr &A : Body.Allocs) {
    fire(Rule::Alloc);
    HCtxId HCtx = Policy.record(A.Heap, Ctx);
    uint32_t Obj = internObject(A.Heap, HCtx);
    uint32_t VN = localNode(F, A.Var);
    if (addFact(VN, Obj) && provOn())
      concludeFact(VN, Obj, Rule::Alloc, RFact);
  }

  // MOVE: intra-procedural copy edges.
  for (const MoveInstr &Mv : Body.Moves) {
    fire(Rule::Move);
    uint32_t FromN = localNode(F, Mv.From), ToN = localNode(F, Mv.To);
    addEdge(FromN, ToN, {RFact, Rule::Move});
  }

  // Casts: copy edges filtered by the target type.
  for (const CastInstr &C : Body.Casts) {
    uint32_t FromN = localNode(F, C.From), ToN = localNode(F, C.To);
    addCastEdge(FromN, ToN, C.Target, {RFact, Rule::Cast});
  }

  // Sanitize: copy edges filtered by the taint tag (invalid filter type;
  // see passesCastFilter).
  for (const SanitizeInstr &S : Body.Sanitizes) {
    uint32_t FromN = localNode(F, S.From), ToN = localNode(F, S.To);
    addCastEdge(FromN, ToN, TypeId::invalid(), {RFact, Rule::Sanitize});
  }

  // LOAD / STORE: subscribe on the base variable.  Each object that ever
  // reaches the base connects the field slot to the local variable.  The
  // replay loops below capture the set size up front: facts arriving
  // mid-replay stay in the node's pending suffix and reach the new
  // subscription through the worklist.
  for (const LoadInstr &L : Body.Loads) {
    uint32_t Base = localNode(F, L.Base);
    uint32_t To = localNode(F, L.To);
    Nodes[Base].Loads.push_back({L.Fld, To});
    uint32_t Count = Nodes[Base].Set.size();
    for (uint32_t I = 0; I < Count; ++I) {
      uint32_t Obj = Nodes[Base].Set.at(I);
      fire(Rule::Load);
      uint32_t FN = fieldNode(Obj, L.Fld);
      addEdge(FN, To,
              {provOn() ? ProvNodes[Base].FactIds[I] : prov::InvalidFact,
               Rule::Load});
    }
  }
  for (uint32_t SI = 0; SI < Body.Stores.size(); ++SI) {
    const StoreInstr &S = Body.Stores[SI];
    // A cut store has no generic subscription: dispatch() wires
    // actual -> receiver.field shortcut edges per call edge instead.
    if (CutPlan && CutPlan->isStoreCut(M, SI))
      continue;
    uint32_t Base = localNode(F, S.Base);
    uint32_t From = localNode(F, S.From);
    coldNode(Base).Stores.push_back({S.Fld, From});
    uint32_t Count = Nodes[Base].Set.size();
    for (uint32_t I = 0; I < Count; ++I) {
      uint32_t Obj = Nodes[Base].Set.at(I);
      fire(Rule::Store);
      uint32_t FN = fieldNode(Obj, S.Fld);
      addEdge(From, FN,
              {provOn() ? ProvNodes[Base].FactIds[I] : prov::InvalidFact,
               Rule::Store});
    }
  }

  // Static field accesses: global, context-free slots (Doop's model).
  for (const SLoadInstr &L : Body.SLoads) {
    fire(Rule::StaticLoad);
    uint32_t FromN = staticNode(L.Fld), ToN = localNode(F, L.To);
    addEdge(FromN, ToN, {RFact, Rule::StaticLoad});
  }
  for (const SStoreInstr &S : Body.SStores) {
    fire(Rule::StaticStore);
    uint32_t FromN = localNode(F, S.From), ToN = staticNode(S.Fld);
    addEdge(FromN, ToN, {RFact, Rule::StaticStore});
  }

  // Throws: every object reaching the thrown variable is routed through
  // this frame's handlers (or escapes).
  for (const ThrowInstr &T : Body.Throws) {
    uint32_t VNode = localNode(F, T.V);
    coldNode(VNode).ThrowSubs.push_back(F);
    uint32_t Count = Nodes[VNode].Set.size();
    for (uint32_t I = 0; I < Count; ++I) {
      routeThrow(Nodes[VNode].Set.at(I), F,
                 provOn() ? ProvNodes[VNode].FactIds[I] : prov::InvalidFact);
    }
  }

  // Calls.
  for (InvokeId Inv : Body.Invokes) {
    const InvokeInfo &Call = Prog.invoke(Inv);
    if (Call.IsStatic) {
      // SCALL: MERGESTATIC gives the callee context outright
      // (Figure 2, last rule).
      fire(Rule::SCall);
      if (Opts.Faults.DropSCall)
        continue; // Injected bug (support/FaultPlan.h): see constructor.
      CtxId CalleeCtx = Policy.mergeStatic(Inv, Ctx);
      wireCall(Inv, F, Call.Target, CalleeCtx, NoIndex, Rule::SCall, RFact);
    } else {
      // VCALL: subscribe on the receiver; dispatch per arriving object
      // (Figure 2, second-to-last rule).
      uint32_t Base = localNode(F, Call.Base);
      coldNode(Base).Dispatches.push_back({Inv, F});
      uint32_t Count = Nodes[Base].Set.size();
      for (uint32_t I = 0; I < Count; ++I)
        dispatch({Inv, F}, Nodes[Base].Set.at(I),
                 provOn() ? ProvNodes[Base].FactIds[I] : prov::InvalidFact);
    }
  }
  return F;
}

void Solver::routeThrow(uint32_t Obj, uint32_t F, uint32_t WhyPrem,
                        uint32_t WhyAux) {
  if (checkBudget())
    return;
  // A valid aux premise (the call edge) means the object is escalating out
  // of a callee; otherwise it is raised locally by a throw instruction.
  bool Escalating = WhyAux != prov::InvalidFact;
  Rule CatchRule = Escalating ? Rule::CatchEscalate : Rule::CatchBind;
  Rule ThrowRule = Escalating ? Rule::ThrowEscalate : Rule::ThrowRaise;
  TypeId ObjType = Prog.heap(ObjHeaps[Obj]).Type;
  const MethodInfo &Body = Prog.method(ReachableList[F].first);
  bool Caught = false;
  for (const HandlerInfo &H : Body.Handlers) {
    if (Prog.isSubtype(ObjType, H.CatchType)) {
      fire(CatchRule);
      uint32_t HN = localNode(F, H.Var);
      if (addFact(HN, Obj) && provOn())
        concludeFact(HN, Obj, CatchRule, WhyPrem, WhyAux);
      Caught = true;
    }
  }
  if (!Caught) {
    fire(ThrowRule);
    uint32_t TN = throwSlot(F);
    if (addFact(TN, Obj) && provOn())
      concludeFact(TN, Obj, ThrowRule, WhyPrem, WhyAux);
  }
}

void Solver::addThrowLink(uint32_t ThrowNodeIdx, uint32_t CallerFrame,
                          uint32_t WhyAux) {
  if (!ThrowLinkDedup.insert(packPair(ThrowNodeIdx, CallerFrame)))
    return;
  coldNode(ThrowNodeIdx).ThrowLinks.push_back(CallerFrame);
  if (provOn())
    ColdProvs[Nodes[ThrowNodeIdx].Cold].ThrowLinkWhys.push_back(WhyAux);
  uint32_t Count = Nodes[ThrowNodeIdx].Set.size();
  for (uint32_t I = 0; I < Count; ++I)
    routeThrow(Nodes[ThrowNodeIdx].Set.at(I), CallerFrame,
               provOn() ? ProvNodes[ThrowNodeIdx].FactIds[I]
                        : prov::InvalidFact,
               WhyAux);
}

void Solver::dispatch(const DispatchSub &Sub, uint32_t Obj,
                      uint32_t ObjFact) {
  if (checkBudget())
    return;
  fire(Rule::VCall);
  const InvokeInfo &Call = Prog.invoke(Sub.Invo);
  HeapId Heap = ObjHeaps[Obj];
  HCtxId HCtx = ObjHCtxs[Obj];
  // LOOKUP(heapT, sig, toMeth).
  MethodId Callee = Prog.lookup(Prog.heap(Heap).Type, Call.Sig);
  if (!Callee.isValid())
    return; // No receiver method: the concrete execution would throw.
  CtxId CallerCtx = ReachableList[Sub.CallerFrame].second;
  CtxId CalleeCtx = Policy.merge(Heap, HCtx, Sub.Invo, CallerCtx);
  // Provenance: the receiver fact justifies the call edge, the call edge
  // justifies callee reachability and the this-binding.  A new edge's fact
  // id is reserved here, before the callee's body cites it; wireCall
  // records its step on the edge's insertion.
  uint32_t CEFact = prov::InvalidFact;
  if (provOn()) {
    uint32_t Edge = findCallEdge({Sub.Invo, CallerCtx, Callee, CalleeCtx});
    CEFact = Edge != UINT32_MAX
                 ? CallEdgeFacts[Edge]
                 : Opts.Prov->reserveFact(
                       prov::FactKind::CallEdge,
                       packPair(Sub.Invo.index(), CallerCtx.index()),
                       packPair(Callee.index(), CalleeCtx.index()));
  }
  // THISVAR binding: only this receiver object flows into `this` under the
  // context derived from it.
  uint32_t CalleeFrame =
      ensureReachable(Callee, CalleeCtx, Rule::ReachCall, CEFact);
  if (CalleeFrame == NoIndex)
    return; // Aborted before the callee became reachable.
  fire(Rule::ThisBind);
  uint32_t ThisN = localNode(CalleeFrame, Prog.method(Callee).This);
  if (addFact(ThisN, Obj) && provOn())
    concludeFact(ThisN, Obj, Rule::ThisBind, ObjFact, CEFact);
  wireCall(Sub.Invo, Sub.CallerFrame, Callee, CalleeCtx, CalleeFrame,
           Rule::VCall, ObjFact, CEFact);

  // Receiver-dependent shortcut edges (context/CutShortcut.h), wired per
  // (call site, receiver object).  This cannot live in wireCall: the call
  // edge dedups by (invoke, ctx, callee, ctx), which collapses distinct
  // receiver objects under a contextless policy.  Everything below is
  // idempotent (edge dedup), matching dispatch's replay semantics.
  if (CutPlan) {
    const CutShortcutPlan::MethodPlan &MP = CutPlan->method(Callee);
    for (const CutShortcutPlan::StoreCut &SC : MP.StoreCuts) {
      if (SC.FormalIdx >= Call.Actuals.size())
        continue; // Arity mismatch: the generic param bind drops it too.
      fire(Rule::ShortcutStore);
      uint32_t FromN = localNode(Sub.CallerFrame, Call.Actuals[SC.FormalIdx]);
      uint32_t FN = fieldNode(Obj, SC.Fld);
      addEdge(FromN, FN, {CEFact, Rule::ShortcutStore});
    }
    if (MP.RetCut && Call.RetTo.isValid()) {
      uint32_t RetN = localNode(Sub.CallerFrame, Call.RetTo);
      for (FieldId F : MP.RetLoads) {
        fire(Rule::ShortcutRetLoad);
        addEdge(fieldNode(Obj, F), RetN, {CEFact, Rule::ShortcutRetLoad});
      }
    }
  }
}

namespace {

uint64_t callEdgeHash(const CallGraphEdge &E) {
  uint32_t Words[4] = {E.Invo.index(), E.CallerCtx.index(),
                       E.Callee.index(), E.CalleeCtx.index()};
  return hashWords(Words, 4);
}

bool sameCallEdge(const CallGraphEdge &X, const CallGraphEdge &E) {
  return X.Invo == E.Invo && X.CallerCtx == E.CallerCtx &&
         X.Callee == E.Callee && X.CalleeCtx == E.CalleeCtx;
}

} // namespace

uint32_t Solver::findCallEdge(const CallGraphEdge &E) const {
  const uint32_t *Head = CallEdgeHead.find(callEdgeHash(E));
  for (uint32_t I = Head ? *Head : UINT32_MAX; I != UINT32_MAX;
       I = CallEdgeNext[I])
    if (sameCallEdge(CallEdges[I], E))
      return I;
  return UINT32_MAX;
}

bool Solver::insertCallEdge(const CallGraphEdge &E) {
  uint32_t NewIdx = static_cast<uint32_t>(CallEdges.size());
  auto [Head, Fresh] = CallEdgeHead.tryEmplace(callEdgeHash(E), NewIdx);
  uint32_t ChainNext = UINT32_MAX;
  if (!Fresh) {
    for (uint32_t I = *Head; I != UINT32_MAX; I = CallEdgeNext[I])
      if (sameCallEdge(CallEdges[I], E))
        return false;
    ChainNext = *Head;
    *Head = NewIdx;
  }
  PT_COUNT(Counters.CallEdgesInserted);
  CallEdges.push_back(E);
  CallEdgeNext.push_back(ChainNext);
  PendingNext.push_back(NoIndex);
  return true;
}

void Solver::wireCall(InvokeId Invo, uint32_t CallerFrame, MethodId Callee,
                      CtxId CalleeCtx, uint32_t CalleeFrame, Rule CallWhy,
                      uint32_t CallPrem, uint32_t CEFact) {
  CtxId CallerCtx = ReachableList[CallerFrame].second;
  uint32_t EdgeIdx = static_cast<uint32_t>(CallEdges.size());
  if (!insertCallEdge({Invo, CallerCtx, Callee, CalleeCtx}))
    return;

  // The call-edge fact: conclusion of VCALL/SCALL, auxiliary premise of
  // every interprocedural binding below.
  if (provOn()) {
    if (CEFact == prov::InvalidFact)
      CEFact = Opts.Prov->appendFact(
          prov::FactKind::CallEdge, packPair(Invo.index(), CallerCtx.index()),
          packPair(Callee.index(), CalleeCtx.index()), CallWhy, CallPrem);
    else
      Opts.Prov->step(CEFact, CallWhy, CallPrem);
    CallEdgeFacts.push_back(CEFact);
  }

  if (CalleeFrame == NoIndex)
    CalleeFrame = ensureReachable(Callee, CalleeCtx, Rule::ReachCall, CEFact);
  if (CalleeFrame == NoIndex)
    return; // Aborted before the callee became reachable.

  // INTERPROCASSIGN: actual -> formal edges (Figure 2, first rule).
  const InvokeInfo &Call = Prog.invoke(Invo);
  const MethodInfo &CalleeInfo = Prog.method(Callee);
  size_t NumArgs = std::min(Call.Actuals.size(), CalleeInfo.Formals.size());
  for (size_t I = 0; I < NumArgs; ++I) {
    uint32_t FromN = localNode(CallerFrame, Call.Actuals[I]);
    uint32_t ToN = localNode(CalleeFrame, CalleeInfo.Formals[I]);
    fire(Rule::ParamBind);
    addEdge(FromN, ToN, {CEFact, Rule::ParamBind});
  }

  // Return value: formal-return -> actual-return (Figure 2, second rule).
  // A ret-cut callee (context/CutShortcut.h) drops this merged edge; the
  // receiver-independent shortcuts below cover every definition of the
  // return variable per call edge (receiver-dependent ret-loads are wired
  // in dispatch).
  const CutShortcutPlan::MethodPlan *MP =
      CutPlan ? &CutPlan->method(Callee) : nullptr;
  bool RetCut = MP && MP->RetCut;
  if (Call.RetTo.isValid() && CalleeInfo.Return.isValid() && !RetCut) {
    uint32_t FromN = localNode(CalleeFrame, CalleeInfo.Return);
    uint32_t ToN = localNode(CallerFrame, Call.RetTo);
    fire(Rule::ReturnBind);
    addEdge(FromN, ToN, {CEFact, Rule::ReturnBind});
  }
  if (RetCut && Call.RetTo.isValid()) {
    uint32_t RetN = localNode(CallerFrame, Call.RetTo);
    for (uint32_t Pos : MP->RetArgs) {
      if (Pos >= Call.Actuals.size())
        continue;
      fire(Rule::ShortcutRetArg);
      addEdge(localNode(CallerFrame, Call.Actuals[Pos]), RetN,
              {CEFact, Rule::ShortcutRetArg});
    }
    for (HeapId H : MP->RetAllocs) {
      fire(Rule::ShortcutRetAlloc);
      uint32_t Obj = internObject(H, Policy.record(H, CalleeCtx));
      if (addFact(RetN, Obj) && provOn())
        concludeFact(RetN, Obj, Rule::ShortcutRetAlloc, CEFact);
    }
  }

  // Exception escalation: what escapes the callee is raised in the
  // calling frame.  A callee that has let nothing escape yet has no throw
  // slot; the edge waits on its pending chain until one exists.
  stampThrowSeq(CalleeFrame);
  Frame &F = Frames[CalleeFrame];
  if (F.ThrowNode != NoIndex) {
    addThrowLink(F.ThrowNode, CallerFrame, CEFact);
    return;
  }
  if (F.PendingTail == NoIndex)
    F.PendingHead = EdgeIdx;
  else
    PendingNext[F.PendingTail] = EdgeIdx;
  F.PendingTail = EdgeIdx;
}

void Solver::processDelta(uint32_t NodeIdx) {
  // The pending delta is the set suffix [Scanned, size()): positions are
  // stable, so no batch is moved out — reentrant growth just extends the
  // suffix and the loop picks it up.
  //
  // Subscriptions may grow while we iterate (body instantiation reached
  // through dispatch can add loads on this very node), so use index loops
  // and re-read the vectors from Nodes[NodeIdx] each step.  Subscriptions
  // added mid-processing replay the full set themselves, which includes
  // this delta; processing them again here is idempotent.
  while (true) {
    if (Aborted)
      return;
    {
      Node &N = Nodes[NodeIdx];
      if (N.Scanned >= N.Set.size())
        break;
    }
    uint32_t Pos = Nodes[NodeIdx].Scanned++;
    uint32_t Obj = Nodes[NodeIdx].Set.at(Pos);
    // The fact (NodeIdx, Obj): the premise of everything it triggers.
    uint32_t ObjFact =
        provOn() ? ProvNodes[NodeIdx].FactIds[Pos] : prov::InvalidFact;

    for (size_t I = 0; I < coldOf(NodeIdx).Dispatches.size(); ++I) {
      DispatchSub Sub = coldOf(NodeIdx).Dispatches[I];
      dispatch(Sub, Obj, ObjFact);
    }
    for (size_t I = 0; I < coldOf(NodeIdx).ThrowSubs.size(); ++I) {
      // This node is the thrown variable; its fact is the raise premise.
      routeThrow(Obj, coldOf(NodeIdx).ThrowSubs[I], ObjFact);
    }
    for (size_t I = 0; I < coldOf(NodeIdx).ThrowLinks.size(); ++I) {
      // This node is a callee throw slot; the link's call edge is the aux.
      routeThrow(Obj, coldOf(NodeIdx).ThrowLinks[I], ObjFact,
                 provOn() ? ColdProvs[Nodes[NodeIdx].Cold].ThrowLinkWhys[I]
                          : prov::InvalidFact);
    }
    for (size_t I = 0; I < Nodes[NodeIdx].Loads.size(); ++I) {
      LoadSub Sub = Nodes[NodeIdx].Loads[I];
      fire(Rule::Load);
      addEdge(fieldNode(Obj, Sub.Fld), Sub.ToNode, {ObjFact, Rule::Load});
    }
    for (size_t I = 0; I < coldOf(NodeIdx).Stores.size(); ++I) {
      StoreSub Sub = coldOf(NodeIdx).Stores[I];
      fire(Rule::Store);
      addEdge(Sub.FromNode, fieldNode(Obj, Sub.Fld), {ObjFact, Rule::Store});
    }
    for (size_t I = 0; I < Nodes[NodeIdx].Edges.size(); ++I) {
      uint32_t To = Nodes[NodeIdx].Edges[I];
      if (addFact(To, Obj) && provOn()) {
        EdgeWhy W = ProvNodes[NodeIdx].EdgeWhys[I];
        concludeFact(To, Obj, W.Why, ObjFact, W.Aux);
      }
    }
    for (size_t I = 0; I < coldOf(NodeIdx).CastEdges.size(); ++I) {
      CastEdge E = coldOf(NodeIdx).CastEdges[I];
      fire(castRule(E.Filter));
      if (passesCastFilter(Obj, E.Filter) && addFact(E.ToNode, Obj) &&
          provOn()) {
        EdgeWhy W = ColdProvs[Nodes[NodeIdx].Cold].CastEdgeWhys[I];
        concludeFact(E.ToNode, Obj, W.Why, ObjFact, W.Aux);
      }
    }
  }
}

void Solver::drainWorklist() {
  while (!Worklist.empty()) {
    if (Aborted || checkBudget())
      return;
    ++StepCount;
    if (StepFaultArmed) {
      pollStepFaults();
      if (Aborted)
        return;
    }
    uint32_t NodeIdx = Worklist.front();
    Worklist.pop_front();
    PT_COUNT(Counters.WorklistSteps);
    pollHeartbeat();
    Nodes[NodeIdx].Queued = false;
    processDelta(NodeIdx);
  }
}

AnalysisResult Solver::run() {
  assert(!HasRun && "Solver::run may be called once");
  HasRun = true;

  Stopwatch Watch;
  CtxId Initial = Policy.initialContext();
  // Warm start: the fallback ladder seeds a coarser re-run with the
  // aborted finer run's reachable set (see SolverOptions::SeedReachable
  // for the soundness argument).  Seeds go in before the entry points so
  // their bodies instantiate exactly once either way.
  for (MethodId Seed : Opts.SeedReachable)
    ensureReachable(Seed, Initial, Rule::Seed);
  for (MethodId Entry : Prog.entryPoints())
    ensureReachable(Entry, Initial, Rule::Entry);
  drainWorklist();

  // One closing heartbeat regardless of cadence, so every traced run —
  // including aborted ones — leaves a last-known-state record behind
  // (the --explain-abort source).
  if (Opts.Trace)
    emitHeartbeat(/*Final=*/true);

  AnalysisResult Result = harvest();
  Result.SolveMs = Watch.elapsedMs();
  // The context-insensitive view is a consumer of the fixpoint, not part
  // of it: built after the solve time is stamped and after PeakBytes.
  // The node storage is released first, so the view reuses that memory
  // instead of raising the process's peak above the solver's.
  Nodes = std::vector<Node>();
  Result.buildCiView();
  return Result;
}

size_t Solver::memoryBytes() const {
  size_t Bytes = Nodes.capacity() * sizeof(Node) +
                 Descs.capacity() * sizeof(NodeDesc);
  for (const Node &N : Nodes) {
    Bytes += N.Set.memoryBytes();
    Bytes += N.Edges.capacity() * sizeof(uint32_t);
    Bytes += N.Loads.capacity() * sizeof(LoadSub);
  }
  Bytes += ColdNodes.capacity() * sizeof(ColdNode);
  for (const ColdNode &C : ColdNodes) {
    Bytes += C.CastEdges.capacity() * sizeof(CastEdge);
    Bytes += C.Stores.capacity() * sizeof(StoreSub);
    Bytes += C.Dispatches.capacity() * sizeof(DispatchSub);
    Bytes += (C.ThrowSubs.capacity() + C.ThrowLinks.capacity()) *
             sizeof(uint32_t);
  }
  Bytes += (LocalOf.capacity() + LocalSlots.capacity()) * sizeof(uint32_t);
  Bytes += FieldSlotIndex.memoryBytes() +
           StaticSlotIndex.memoryBytes() + ThrowLinkDedup.memoryBytes() +
           ObjIndex.memoryBytes() + FrameIndex.memoryBytes() +
           CallEdgeHead.memoryBytes() + EdgeDedup.memoryBytes();
  Bytes += ObjHeaps.capacity() * sizeof(HeapId) +
           ObjHCtxs.capacity() * sizeof(HCtxId);
  Bytes += ReachableList.capacity() * sizeof(std::pair<MethodId, CtxId>) +
           Frames.capacity() * sizeof(Frame);
  Bytes += CallEdges.capacity() * sizeof(CallGraphEdge) +
           (CallEdgeNext.capacity() + PendingNext.capacity()) *
               sizeof(uint32_t);
  // Provenance costs count against the same budget: the derivation arena
  // plus the per-node fact ids and edge justifications.
  if (provOn()) {
    Bytes += Opts.Prov->memoryBytes() +
             ProvNodes.capacity() * sizeof(ProvNode) +
             ColdProvs.capacity() * sizeof(ColdProv) +
             CallEdgeFacts.capacity() * sizeof(uint32_t);
    for (const ProvNode &P : ProvNodes)
      Bytes += P.FactIds.capacity() * sizeof(uint32_t) +
               P.EdgeWhys.capacity() * sizeof(EdgeWhy);
    for (const ColdProv &P : ColdProvs)
      Bytes += P.ThrowLinkWhys.capacity() * sizeof(uint32_t) +
               P.CastEdgeWhys.capacity() * sizeof(EdgeWhy);
  }
  return Bytes;
}

void Solver::emitHeartbeat(bool Final) {
  trace::Heartbeat HB;
  HB.Label = Opts.TraceLabel;
  HB.Step = StepCount;
  HB.WorklistDepth = Worklist.size();
  HB.Nodes = Nodes.size();
  HB.Facts = FactCount;
  HB.Objects = ObjHeaps.size();
  HB.MemoryBytes = memoryBytes();
  HB.Final = Final;
  if (Final && Aborted)
    HB.Abort = abortReasonName(Reason);
  HB.Totals = Counters;
  HB.Deltas = Counters.since(LastBeat);
  LastBeat = Counters;
  StepsSinceBeat = 0;
  BeatWatch.restart();
  Opts.Trace->heartbeat(std::move(HB));
}

AnalysisResult Solver::harvest() {
  AnalysisResult Result(Prog, Policy);
  Result.Aborted = Aborted;
  Result.Reason = Reason;
  Result.FaultInjected = FaultInjected;
  Result.SolverNodes = Nodes.size();
  // Everything measured is append-only, so final == peak; computed before
  // the moves below empty the containers.
  Result.PeakBytes = memoryBytes();
  Result.Counters = Counters;
  Result.ObjHeaps = std::move(ObjHeaps);
  Result.ObjHCtxs = std::move(ObjHCtxs);
  Result.CallEdges = std::move(CallEdges);
  Result.Reachable = std::move(ReachableList);

  auto sortedObjs = [this](uint32_t NodeIdx) {
    const ObjectSet &Set = Nodes[NodeIdx].Set;
    std::vector<uint32_t> Objs;
    Objs.reserve(Set.size());
    Set.forEach([&Objs](uint32_t Obj) { Objs.push_back(Obj); });
    std::sort(Objs.begin(), Objs.end());
    return Objs;
  };
  for (uint32_t I = 0; I < Nodes.size(); ++I) {
    const NodeDesc &D = Descs[I];
    if (Nodes[I].Set.empty() || D.Kind == NodeKind::ThrowSlot)
      continue;
    if (D.Kind == NodeKind::VarCtx)
      Result.VarFacts.push_back({VarId(D.A), CtxId(D.B), sortedObjs(I)});
    else if (D.Kind == NodeKind::FieldSlot)
      Result.FieldFacts.push_back({D.A, FieldId(D.B), sortedObjs(I)});
    else
      Result.StaticFacts.push_back({FieldId(D.A), sortedObjs(I)});
  }
  // Throw slots are created on first escape, so their node order is not
  // the frames' stamp order; emit them by stamp.
  std::vector<std::pair<uint32_t, uint32_t>> Slots; // (stamp, node)
  for (const Frame &F : Frames)
    if (F.ThrowNode != NoIndex && !Nodes[F.ThrowNode].Set.empty())
      Slots.push_back({F.ThrowSeq, F.ThrowNode});
  std::sort(Slots.begin(), Slots.end());
  for (auto [Seq, NodeIdx] : Slots) {
    const NodeDesc &D = Descs[NodeIdx];
    Result.ThrowFacts.push_back(
        {MethodId(D.A), CtxId(D.B), sortedObjs(NodeIdx)});
  }
  return Result;
}
