//===- ptaref/ReferenceAnalysis.cpp ----------------------------------------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//

#include "ptaref/ReferenceAnalysis.h"

#include "context/CutShortcut.h"
#include "context/Policy.h"
#include "ir/Program.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <string_view>

using namespace pt;
using namespace pt::dl;

namespace {
Term V(uint32_t Index) { return Term::var(Index); }
} // namespace

ReferenceAnalysis::ReferenceAnalysis(const Program &Prog,
                                     ContextPolicy &Policy)
    : Prog(Prog), Policy(Policy) {
  assert(Prog.isFinalized() && "reference analysis needs finalized program");

  Alloc = &Engine.relation("Alloc", 3);
  Move = &Engine.relation("Move", 2);
  Sanitize = &Engine.relation("Sanitize", 2);
  CleanHeap = &Engine.relation("CleanHeap", 1);
  Cast = &Engine.relation("Cast", 3);
  SubtypeOf = &Engine.relation("SubtypeOf", 2);
  Load = &Engine.relation("Load", 3);
  Store = &Engine.relation("Store", 3);
  SLoad = &Engine.relation("SLoad", 2);
  SStore = &Engine.relation("SStore", 2);
  VarMeth = &Engine.relation("VarMeth", 2);
  Throw = &Engine.relation("Throw", 2);
  HandlerFor = &Engine.relation("HandlerFor", 3);
  NoHandler = &Engine.relation("NoHandler", 2);
  InvokeIn = &Engine.relation("InvokeIn", 2);
  VCall = &Engine.relation("VCall", 4);
  SCall = &Engine.relation("SCall", 3);
  FormalArg = &Engine.relation("FormalArg", 3);
  ActualArg = &Engine.relation("ActualArg", 3);
  FormalRet = &Engine.relation("FormalRet", 2);
  ActualRet = &Engine.relation("ActualRet", 2);
  ThisVar = &Engine.relation("ThisVar", 2);
  HeapType = &Engine.relation("HeapType", 2);
  Lookup = &Engine.relation("Lookup", 3);
  RetKept = &Engine.relation("RetKept", 1);
  CutStore = &Engine.relation("CutStore", 3);
  CutRetArg = &Engine.relation("CutRetArg", 2);
  CutRetAlloc = &Engine.relation("CutRetAlloc", 2);
  CutRetLoad = &Engine.relation("CutRetLoad", 2);

  VarPointsTo = &Engine.relation("VarPointsTo", 4);
  CallGraph = &Engine.relation("CallGraph", 4);
  FldPointsTo = &Engine.relation("FldPointsTo", 5);
  InterProcAssign = &Engine.relation("InterProcAssign", 4);
  StaticFldPointsTo = &Engine.relation("StaticFldPointsTo", 3);
  ThrowPointsTo = &Engine.relation("ThrowPointsTo", 4);
  Reachable = &Engine.relation("Reachable", 2);
  VCallTarget = &Engine.relation("VCallTarget", 7);
  SCallTarget = &Engine.relation("SCallTarget", 4);

  loadFacts();
  buildRules();
  buildStaticFieldRules();
  buildExceptionRules();
  // Built for every policy: without a cut plan the Cut* relations are
  // empty and the shortcut rules derive nothing.
  buildCutShortcutRules();
}

namespace {

/// What each Datalog rule mirrors: the list rule (support/Rules.h) whose
/// solver site derives the same conclusion, or nothing for an intermediate
/// rule, one that only derives or projects a staging relation
/// (InterProcAssign, VCallTarget, SCallTarget).
struct MirrorRow {
  std::string_view Name;
  std::optional<pt::Rule> Of;
};

constexpr MirrorRow MirrorTable[] = {
    {"interproc-arg", pt::Rule::ParamBind},
    {"interproc-ret", pt::Rule::ReturnBind},
    {"alloc", pt::Rule::Alloc},
    {"move", pt::Rule::Move},
    {"cast", pt::Rule::Cast},
    {"sanitize", pt::Rule::Sanitize},
    {"interproc-flow", std::nullopt},
    {"load", pt::Rule::Load},
    {"store", pt::Rule::Store},
    {"vcall-resolve", std::nullopt},
    {"vcall-reachable", pt::Rule::ReachCall},
    {"vcall-edge", pt::Rule::VCall},
    {"vcall-this", pt::Rule::ThisBind},
    {"scall-resolve", std::nullopt},
    {"scall-reachable", pt::Rule::ReachCall},
    {"scall-edge", pt::Rule::SCall},
    {"sstore", pt::Rule::StaticStore},
    {"sload", pt::Rule::StaticLoad},
    {"throw-caught", pt::Rule::CatchBind},
    {"throw-escape", pt::Rule::ThrowRaise},
    {"escalate-caught", pt::Rule::CatchEscalate},
    {"escalate-escape", pt::Rule::ThrowEscalate},
    {"cs-store", pt::Rule::ShortcutStore},
    {"cs-ret-arg", pt::Rule::ShortcutRetArg},
    {"cs-ret-arg-s", pt::Rule::ShortcutRetArg},
    {"cs-ret-alloc", pt::Rule::ShortcutRetAlloc},
    {"cs-ret-alloc-s", pt::Rule::ShortcutRetAlloc},
    {"cs-ret-load", pt::Rule::ShortcutRetLoad},
};

} // namespace

void ReferenceAnalysis::addRule(dl::Rule R) {
  const MirrorRow *Row = nullptr;
  for (const MirrorRow &M : MirrorTable)
    if (M.Name == R.Name)
      Row = &M;
  if (!Row) {
    // Every rule must say what it mirrors; an untagged one is a bug here.
    std::fprintf(stderr, "ptaref: rule '%s' is missing from MirrorTable\n",
                 R.Name.c_str());
    std::abort();
  }
  Mirrors.push_back({R.Name, Row->Of});
  Engine.addRule(std::move(R));
}

void ReferenceAnalysis::loadFacts() {
  const CutShortcutPlan *Plan = Policy.cutPlan();

  // Instructions and symbol tables (Figure 1's input relations).
  for (size_t MI = 0; MI < Prog.numMethods(); ++MI) {
    MethodId M = MethodId::fromIndex(MI);
    const MethodInfo &Info = Prog.method(M);
    for (const AllocInstr &A : Info.Allocs)
      Alloc->insert({A.Var.index(), A.Heap.index(), M.index()});
    for (const MoveInstr &Mv : Info.Moves)
      Move->insert({Mv.To.index(), Mv.From.index()});
    for (const SanitizeInstr &S : Info.Sanitizes)
      Sanitize->insert({S.To.index(), S.From.index()});
    for (const CastInstr &C : Info.Casts)
      Cast->insert({C.To.index(), C.From.index(), C.Target.index()});
    for (const LoadInstr &L : Info.Loads)
      Load->insert({L.To.index(), L.Base.index(), L.Fld.index()});
    for (uint32_t SI = 0; SI < Info.Stores.size(); ++SI) {
      const StoreInstr &S = Info.Stores[SI];
      if (Plan && Plan->isStoreCut(M, SI))
        continue; // Covered store: replaced by the cs-store shortcut rule.
      Store->insert({S.Base.index(), S.Fld.index(), S.From.index()});
    }
    for (const SLoadInstr &L : Info.SLoads) {
      SLoad->insert({L.To.index(), L.Fld.index()});
      VarMeth->insert({L.To.index(), M.index()});
    }
    for (const SStoreInstr &S : Info.SStores)
      SStore->insert({S.Fld.index(), S.From.index()});
    for (const ThrowInstr &T : Info.Throws)
      Throw->insert({T.V.index(), M.index()});

    for (size_t I = 0; I < Info.Formals.size(); ++I)
      FormalArg->insert({M.index(), static_cast<Value>(I),
                         Info.Formals[I].index()});
    bool RetCut = Plan && Plan->method(M).RetCut;
    if (Info.Return.isValid()) {
      FormalRet->insert({M.index(), Info.Return.index()});
      if (!RetCut)
        RetKept->insert({M.index()});
    }
    if (Info.This.isValid())
      ThisVar->insert({M.index(), Info.This.index()});
    if (Plan) {
      const CutShortcutPlan::MethodPlan &MP = Plan->method(M);
      for (const CutShortcutPlan::StoreCut &SC : MP.StoreCuts)
        CutStore->insert({M.index(), SC.FormalIdx, SC.Fld.index()});
      if (MP.RetCut) {
        for (uint32_t Pos : MP.RetArgs)
          CutRetArg->insert({M.index(), Pos});
        for (HeapId H : MP.RetAllocs)
          CutRetAlloc->insert({M.index(), H.index()});
        for (FieldId F : MP.RetLoads)
          CutRetLoad->insert({M.index(), F.index()});
      }
    }
  }

  for (size_t II = 0; II < Prog.numInvokes(); ++II) {
    InvokeId Inv = InvokeId::fromIndex(II);
    const InvokeInfo &Call = Prog.invoke(Inv);
    if (Call.IsStatic)
      SCall->insert({Call.Target.index(), Inv.index(),
                     Call.InMethod.index()});
    else
      VCall->insert({Call.Base.index(), Call.Sig.index(), Inv.index(),
                     Call.InMethod.index()});
    for (size_t I = 0; I < Call.Actuals.size(); ++I)
      ActualArg->insert({Inv.index(), static_cast<Value>(I),
                         Call.Actuals[I].index()});
    if (Call.RetTo.isValid())
      ActualRet->insert({Inv.index(), Call.RetTo.index()});
    InvokeIn->insert({Inv.index(), Call.InMethod.index()});
  }

  for (size_t HI = 0; HI < Prog.numHeaps(); ++HI) {
    HeapId H = HeapId::fromIndex(HI);
    HeapType->insert({H.index(), Prog.heap(H).Type.index()});
    if (Prog.heap(H).TaintTag == 0)
      CleanHeap->insert({H.index()});
  }

  // Reflexive-transitive subtype pairs and the dispatch LOOKUP table.
  for (size_t A = 0; A < Prog.numTypes(); ++A)
    for (size_t B = 0; B < Prog.numTypes(); ++B)
      if (Prog.isSubtype(TypeId::fromIndex(A), TypeId::fromIndex(B)))
        SubtypeOf->insert({static_cast<Value>(A), static_cast<Value>(B)});
  for (size_t T = 0; T < Prog.numTypes(); ++T)
    for (size_t S = 0; S < Prog.numSigs(); ++S) {
      MethodId Target =
          Prog.lookup(TypeId::fromIndex(T), SigId::fromIndex(S));
      if (Target.isValid())
        Lookup->insert({static_cast<Value>(T), static_cast<Value>(S),
                        Target.index()});
    }

  // Handler matching, stratified into plain EDB relations so the "no
  // matching handler" negation never appears in a recursive rule: for
  // every method and every *allocated* type, either the HandlerFor rows
  // (all matching handlers) or one NoHandler row.
  std::vector<TypeId> AllocatedTypes;
  {
    std::vector<bool> Seen(Prog.numTypes(), false);
    for (size_t HI = 0; HI < Prog.numHeaps(); ++HI) {
      TypeId T = Prog.heap(HeapId::fromIndex(HI)).Type;
      if (!Seen[T.index()]) {
        Seen[T.index()] = true;
        AllocatedTypes.push_back(T);
      }
    }
  }
  for (size_t MI = 0; MI < Prog.numMethods(); ++MI) {
    MethodId M = MethodId::fromIndex(MI);
    const MethodInfo &Info = Prog.method(M);
    for (TypeId T : AllocatedTypes) {
      bool Matched = false;
      for (const HandlerInfo &H : Info.Handlers) {
        if (Prog.isSubtype(T, H.CatchType)) {
          HandlerFor->insert({M.index(), T.index(), H.Var.index()});
          Matched = true;
        }
      }
      if (!Matched)
        NoHandler->insert({M.index(), T.index()});
    }
  }

  // Entry points: REACHABLE(main, initial context).
  CtxId Initial = Policy.initialContext();
  for (MethodId Entry : Prog.entryPoints())
    Reachable->insert({Entry.index(), Initial.index()});
}

void ReferenceAnalysis::buildRules() {
  ContextPolicy *Pol = &Policy;

  // Rule 1 (Figure 2): argument passing.
  // InterProcAssign(to, calleeCtx, from, callerCtx) <-
  //   CallGraph(invo, callerCtx, meth, calleeCtx),
  //   FormalArg(meth, i, to), ActualArg(invo, i, from).
  {
    dl::Rule R;
    R.Name = "interproc-arg";
    enum { Invo, CallerCtx, Meth, CalleeCtx, I, To, From, NumVars };
    R.NumVars = NumVars;
    R.Head = Atom(*InterProcAssign, {V(To), V(CalleeCtx), V(From),
                                     V(CallerCtx)});
    R.Body.push_back(Atom(*CallGraph, {V(Invo), V(CallerCtx), V(Meth),
                                       V(CalleeCtx)}));
    R.Body.push_back(Atom(*FormalArg, {V(Meth), V(I), V(To)}));
    R.Body.push_back(Atom(*ActualArg, {V(Invo), V(I), V(From)}));
    addRule(std::move(R));
  }

  // Rule 2: return value passing.  Gated on RetKept so ret-cut callees of
  // a cut-shortcut policy skip the generic return edge (the cs-ret-*
  // shortcut rules carry their values instead); for tuple policies RetKept
  // holds every method with a return, making the gate a no-op.
  {
    dl::Rule R;
    R.Name = "interproc-ret";
    enum { Invo, CallerCtx, Meth, CalleeCtx, From, To, NumVars };
    R.NumVars = NumVars;
    R.Head = Atom(*InterProcAssign, {V(To), V(CallerCtx), V(From),
                                     V(CalleeCtx)});
    R.Body.push_back(Atom(*CallGraph, {V(Invo), V(CallerCtx), V(Meth),
                                       V(CalleeCtx)}));
    R.Body.push_back(Atom(*FormalRet, {V(Meth), V(From)}));
    R.Body.push_back(Atom(*RetKept, {V(Meth)}));
    R.Body.push_back(Atom(*ActualRet, {V(Invo), V(To)}));
    addRule(std::move(R));
  }

  // Rule 3: allocation, with RECORD as a functor.
  // RECORD(heap, ctx) = hctx, VarPointsTo(var, ctx, heap, hctx) <-
  //   Reachable(meth, ctx), Alloc(var, heap, meth).
  {
    dl::Rule R;
    R.Name = "alloc";
    enum { Meth, Ctx, Var, Heap, HCtx, NumVars };
    R.NumVars = NumVars;
    R.Head = Atom(*VarPointsTo, {V(Var), V(Ctx), V(Heap), V(HCtx)});
    R.Body.push_back(Atom(*Reachable, {V(Meth), V(Ctx)}));
    R.Body.push_back(Atom(*Alloc, {V(Var), V(Heap), V(Meth)}));
    FunctorApp F;
    F.Fn = [Pol](const Value *Args) {
      return Pol->record(HeapId(Args[0]), CtxId(Args[1])).index();
    };
    F.Name = "RECORD";
    F.Args = {V(Heap), V(Ctx)};
    F.ResultVar = HCtx;
    R.Functors.push_back(std::move(F));
    addRule(std::move(R));
  }

  // Rule 4: move.
  {
    dl::Rule R;
    R.Name = "move";
    enum { To, From, Ctx, Heap, HCtx, NumVars };
    R.NumVars = NumVars;
    R.Head = Atom(*VarPointsTo, {V(To), V(Ctx), V(Heap), V(HCtx)});
    R.Body.push_back(Atom(*Move, {V(To), V(From)}));
    R.Body.push_back(Atom(*VarPointsTo, {V(From), V(Ctx), V(Heap),
                                         V(HCtx)}));
    addRule(std::move(R));
  }

  // Rule 4b: cast (type-filtered move; Doop's AssignCast).
  {
    dl::Rule R;
    R.Name = "cast";
    enum { To, From, Target, Ctx, Heap, HCtx, HeapT, NumVars };
    R.NumVars = NumVars;
    R.Head = Atom(*VarPointsTo, {V(To), V(Ctx), V(Heap), V(HCtx)});
    R.Body.push_back(Atom(*Cast, {V(To), V(From), V(Target)}));
    R.Body.push_back(Atom(*VarPointsTo, {V(From), V(Ctx), V(Heap),
                                         V(HCtx)}));
    R.Body.push_back(Atom(*HeapType, {V(Heap), V(HeapT)}));
    R.Body.push_back(Atom(*SubtypeOf, {V(HeapT), V(Target)}));
    addRule(std::move(R));
  }

  // Rule 4c: sanitize (taint-filtered move; docs/CHECKS.md).  CleanHeap
  // holds every allocation site with TaintTag == 0, so tagged objects
  // simply fail to propagate across the barrier.
  {
    dl::Rule R;
    R.Name = "sanitize";
    enum { To, From, Ctx, Heap, HCtx, NumVars };
    R.NumVars = NumVars;
    R.Head = Atom(*VarPointsTo, {V(To), V(Ctx), V(Heap), V(HCtx)});
    R.Body.push_back(Atom(*Sanitize, {V(To), V(From)}));
    R.Body.push_back(Atom(*VarPointsTo, {V(From), V(Ctx), V(Heap),
                                         V(HCtx)}));
    R.Body.push_back(Atom(*CleanHeap, {V(Heap)}));
    addRule(std::move(R));
  }

  // Rule 5: inter-procedural assignment.
  {
    dl::Rule R;
    R.Name = "interproc-flow";
    enum { To, ToCtx, From, FromCtx, Heap, HCtx, NumVars };
    R.NumVars = NumVars;
    R.Head = Atom(*VarPointsTo, {V(To), V(ToCtx), V(Heap), V(HCtx)});
    R.Body.push_back(Atom(*InterProcAssign, {V(To), V(ToCtx), V(From),
                                             V(FromCtx)}));
    R.Body.push_back(Atom(*VarPointsTo, {V(From), V(FromCtx), V(Heap),
                                         V(HCtx)}));
    addRule(std::move(R));
  }

  // Rule 6: field load.
  {
    dl::Rule R;
    R.Name = "load";
    enum { To, Base, Fld, Ctx, BaseH, BaseHCtx, Heap, HCtx, NumVars };
    R.NumVars = NumVars;
    R.Head = Atom(*VarPointsTo, {V(To), V(Ctx), V(Heap), V(HCtx)});
    R.Body.push_back(Atom(*Load, {V(To), V(Base), V(Fld)}));
    R.Body.push_back(Atom(*VarPointsTo, {V(Base), V(Ctx), V(BaseH),
                                         V(BaseHCtx)}));
    R.Body.push_back(Atom(*FldPointsTo, {V(BaseH), V(BaseHCtx), V(Fld),
                                         V(Heap), V(HCtx)}));
    addRule(std::move(R));
  }

  // Rule 7: field store.
  {
    dl::Rule R;
    R.Name = "store";
    enum { Base, Fld, From, Ctx, Heap, HCtx, BaseH, BaseHCtx, NumVars };
    R.NumVars = NumVars;
    R.Head = Atom(*FldPointsTo, {V(BaseH), V(BaseHCtx), V(Fld), V(Heap),
                                 V(HCtx)});
    R.Body.push_back(Atom(*Store, {V(Base), V(Fld), V(From)}));
    R.Body.push_back(Atom(*VarPointsTo, {V(From), V(Ctx), V(Heap),
                                         V(HCtx)}));
    R.Body.push_back(Atom(*VarPointsTo, {V(Base), V(Ctx), V(BaseH),
                                         V(BaseHCtx)}));
    addRule(std::move(R));
  }

  // Rule 8: virtual dispatch, with MERGE as a functor.  The paper's rule
  // has a conjunctive head; we stage it through VCallTarget.
  {
    dl::Rule R;
    R.Name = "vcall-resolve";
    enum {
      Base, Sig, Invo, InMeth, CallerCtx, Heap, HCtx, HeapT, ToMeth, This,
      CalleeCtx, NumVars
    };
    R.NumVars = NumVars;
    R.Head = Atom(*VCallTarget, {V(Invo), V(CallerCtx), V(Heap), V(HCtx),
                                 V(ToMeth), V(This), V(CalleeCtx)});
    R.Body.push_back(Atom(*VCall, {V(Base), V(Sig), V(Invo), V(InMeth)}));
    R.Body.push_back(Atom(*Reachable, {V(InMeth), V(CallerCtx)}));
    R.Body.push_back(Atom(*VarPointsTo, {V(Base), V(CallerCtx), V(Heap),
                                         V(HCtx)}));
    R.Body.push_back(Atom(*HeapType, {V(Heap), V(HeapT)}));
    R.Body.push_back(Atom(*Lookup, {V(HeapT), V(Sig), V(ToMeth)}));
    R.Body.push_back(Atom(*ThisVar, {V(ToMeth), V(This)}));
    FunctorApp F;
    F.Fn = [Pol](const Value *Args) {
      return Pol->merge(HeapId(Args[0]), HCtxId(Args[1]), InvokeId(Args[2]),
                        CtxId(Args[3]))
          .index();
    };
    F.Name = "MERGE";
    F.Args = {V(Heap), V(HCtx), V(Invo), V(CallerCtx)};
    F.ResultVar = CalleeCtx;
    R.Functors.push_back(std::move(F));
    addRule(std::move(R));
  }
  // Rule 8's conjunctive head, one projection per conclusion.
  {
    dl::Rule R;
    R.Name = "vcall-reachable";
    enum { Invo, CallerCtx, Heap, HCtx, ToMeth, This, CalleeCtx, NumVars };
    R.NumVars = NumVars;
    R.Head = Atom(*Reachable, {V(ToMeth), V(CalleeCtx)});
    R.Body.push_back(Atom(*VCallTarget, {V(Invo), V(CallerCtx), V(Heap),
                                         V(HCtx), V(ToMeth), V(This),
                                         V(CalleeCtx)}));
    addRule(std::move(R));
  }
  {
    dl::Rule R;
    R.Name = "vcall-edge";
    enum { Invo, CallerCtx, Heap, HCtx, ToMeth, This, CalleeCtx, NumVars };
    R.NumVars = NumVars;
    R.Head = Atom(*CallGraph, {V(Invo), V(CallerCtx), V(ToMeth),
                               V(CalleeCtx)});
    R.Body.push_back(Atom(*VCallTarget, {V(Invo), V(CallerCtx), V(Heap),
                                         V(HCtx), V(ToMeth), V(This),
                                         V(CalleeCtx)}));
    addRule(std::move(R));
  }
  {
    dl::Rule R;
    R.Name = "vcall-this";
    enum { Invo, CallerCtx, Heap, HCtx, ToMeth, This, CalleeCtx, NumVars };
    R.NumVars = NumVars;
    R.Head = Atom(*VarPointsTo, {V(This), V(CalleeCtx), V(Heap), V(HCtx)});
    R.Body.push_back(Atom(*VCallTarget, {V(Invo), V(CallerCtx), V(Heap),
                                         V(HCtx), V(ToMeth), V(This),
                                         V(CalleeCtx)}));
    addRule(std::move(R));
  }

  // Rule 9: static call, with MERGESTATIC as a functor.
  {
    dl::Rule R;
    R.Name = "scall-resolve";
    enum { ToMeth, Invo, InMeth, CallerCtx, CalleeCtx, NumVars };
    R.NumVars = NumVars;
    R.Head = Atom(*SCallTarget, {V(Invo), V(CallerCtx), V(ToMeth),
                                 V(CalleeCtx)});
    R.Body.push_back(Atom(*SCall, {V(ToMeth), V(Invo), V(InMeth)}));
    R.Body.push_back(Atom(*Reachable, {V(InMeth), V(CallerCtx)}));
    FunctorApp F;
    F.Fn = [Pol](const Value *Args) {
      return Pol->mergeStatic(InvokeId(Args[0]), CtxId(Args[1])).index();
    };
    F.Name = "MERGESTATIC";
    F.Args = {V(Invo), V(CallerCtx)};
    F.ResultVar = CalleeCtx;
    R.Functors.push_back(std::move(F));
    addRule(std::move(R));
  }
  {
    dl::Rule R;
    R.Name = "scall-reachable";
    enum { Invo, CallerCtx, ToMeth, CalleeCtx, NumVars };
    R.NumVars = NumVars;
    R.Head = Atom(*Reachable, {V(ToMeth), V(CalleeCtx)});
    R.Body.push_back(Atom(*SCallTarget, {V(Invo), V(CallerCtx), V(ToMeth),
                                         V(CalleeCtx)}));
    addRule(std::move(R));
  }
  {
    dl::Rule R;
    R.Name = "scall-edge";
    enum { Invo, CallerCtx, ToMeth, CalleeCtx, NumVars };
    R.NumVars = NumVars;
    R.Head = Atom(*CallGraph, {V(Invo), V(CallerCtx), V(ToMeth),
                               V(CalleeCtx)});
    R.Body.push_back(Atom(*SCallTarget, {V(Invo), V(CallerCtx), V(ToMeth),
                                         V(CalleeCtx)}));
    addRule(std::move(R));
  }
}

void ReferenceAnalysis::buildStaticFieldRules() {
  // Static field store: the global slot collects every stored value,
  // context-free.
  // StaticFldPointsTo(fld, h, hc) <- SStore(fld, from),
  //                                  VarPointsTo(from, ctx, h, hc).
  {
    dl::Rule R;
    R.Name = "sstore";
    enum { Fld, From, Ctx, Heap, HCtx, NumVars };
    R.NumVars = NumVars;
    R.Head = Atom(*StaticFldPointsTo, {V(Fld), V(Heap), V(HCtx)});
    R.Body.push_back(Atom(*SStore, {V(Fld), V(From)}));
    R.Body.push_back(Atom(*VarPointsTo, {V(From), V(Ctx), V(Heap),
                                         V(HCtx)}));
    addRule(std::move(R));
  }
  // Static field load, gated on the loading method's reachability in the
  // target context (matching the solver's per-(method, ctx) wiring).
  // VarPointsTo(to, ctx, h, hc) <- SLoad(to, fld), VarMeth(to, m),
  //                                Reachable(m, ctx),
  //                                StaticFldPointsTo(fld, h, hc).
  {
    dl::Rule R;
    R.Name = "sload";
    enum { To, Fld, Meth, Ctx, Heap, HCtx, NumVars };
    R.NumVars = NumVars;
    R.Head = Atom(*VarPointsTo, {V(To), V(Ctx), V(Heap), V(HCtx)});
    R.Body.push_back(Atom(*SLoad, {V(To), V(Fld)}));
    R.Body.push_back(Atom(*VarMeth, {V(To), V(Meth)}));
    R.Body.push_back(Atom(*Reachable, {V(Meth), V(Ctx)}));
    R.Body.push_back(Atom(*StaticFldPointsTo, {V(Fld), V(Heap), V(HCtx)}));
    addRule(std::move(R));
  }
}

void ReferenceAnalysis::buildExceptionRules() {
  // Raise, caught locally:
  // VarPointsTo(hv, ctx, h, hc) <- Throw(v, m), VarPointsTo(v, ctx, h, hc),
  //                                HeapType(h, t), HandlerFor(m, t, hv).
  {
    dl::Rule R;
    R.Name = "throw-caught";
    enum { Var, Meth, Ctx, Heap, HCtx, HeapT, HVar, NumVars };
    R.NumVars = NumVars;
    R.Head = Atom(*VarPointsTo, {V(HVar), V(Ctx), V(Heap), V(HCtx)});
    R.Body.push_back(Atom(*Throw, {V(Var), V(Meth)}));
    R.Body.push_back(Atom(*VarPointsTo, {V(Var), V(Ctx), V(Heap),
                                         V(HCtx)}));
    R.Body.push_back(Atom(*HeapType, {V(Heap), V(HeapT)}));
    R.Body.push_back(Atom(*HandlerFor, {V(Meth), V(HeapT), V(HVar)}));
    addRule(std::move(R));
  }
  // Raise, escaping:
  // ThrowPointsTo(m, ctx, h, hc) <- Throw(v, m), VarPointsTo(v, ctx, h,
  //                                 hc), HeapType(h, t), NoHandler(m, t).
  {
    dl::Rule R;
    R.Name = "throw-escape";
    enum { Var, Meth, Ctx, Heap, HCtx, HeapT, NumVars };
    R.NumVars = NumVars;
    R.Head = Atom(*ThrowPointsTo, {V(Meth), V(Ctx), V(Heap), V(HCtx)});
    R.Body.push_back(Atom(*Throw, {V(Var), V(Meth)}));
    R.Body.push_back(Atom(*VarPointsTo, {V(Var), V(Ctx), V(Heap),
                                         V(HCtx)}));
    R.Body.push_back(Atom(*HeapType, {V(Heap), V(HeapT)}));
    R.Body.push_back(Atom(*NoHandler, {V(Meth), V(HeapT)}));
    addRule(std::move(R));
  }
  // Escalation, caught in the caller:
  // VarPointsTo(hv, callerCtx, h, hc) <-
  //   ThrowPointsTo(callee, calleeCtx, h, hc),
  //   CallGraph(invo, callerCtx, callee, calleeCtx),
  //   InvokeIn(invo, caller), HeapType(h, t), HandlerFor(caller, t, hv).
  {
    dl::Rule R;
    R.Name = "escalate-caught";
    enum {
      Callee, CalleeCtx, Heap, HCtx, Invo, CallerCtx, Caller, HeapT, HVar,
      NumVars
    };
    R.NumVars = NumVars;
    R.Head = Atom(*VarPointsTo, {V(HVar), V(CallerCtx), V(Heap), V(HCtx)});
    R.Body.push_back(Atom(*ThrowPointsTo, {V(Callee), V(CalleeCtx),
                                           V(Heap), V(HCtx)}));
    R.Body.push_back(Atom(*CallGraph, {V(Invo), V(CallerCtx), V(Callee),
                                       V(CalleeCtx)}));
    R.Body.push_back(Atom(*InvokeIn, {V(Invo), V(Caller)}));
    R.Body.push_back(Atom(*HeapType, {V(Heap), V(HeapT)}));
    R.Body.push_back(Atom(*HandlerFor, {V(Caller), V(HeapT), V(HVar)}));
    addRule(std::move(R));
  }
  // Escalation, escaping the caller too:
  {
    dl::Rule R;
    R.Name = "escalate-escape";
    enum {
      Callee, CalleeCtx, Heap, HCtx, Invo, CallerCtx, Caller, HeapT,
      NumVars
    };
    R.NumVars = NumVars;
    R.Head = Atom(*ThrowPointsTo, {V(Caller), V(CallerCtx), V(Heap),
                                   V(HCtx)});
    R.Body.push_back(Atom(*ThrowPointsTo, {V(Callee), V(CalleeCtx),
                                           V(Heap), V(HCtx)}));
    R.Body.push_back(Atom(*CallGraph, {V(Invo), V(CallerCtx), V(Callee),
                                       V(CalleeCtx)}));
    R.Body.push_back(Atom(*InvokeIn, {V(Invo), V(Caller)}));
    R.Body.push_back(Atom(*HeapType, {V(Heap), V(HeapT)}));
    R.Body.push_back(Atom(*NoHandler, {V(Caller), V(HeapT)}));
    addRule(std::move(R));
  }
}

void ReferenceAnalysis::buildCutShortcutRules() {
  ContextPolicy *Pol = &Policy;

  // Cut-shortcut rules (Ma et al., "Context Sensitivity without
  // Contexts"): each cut constraint removed from the EDB is replaced by a
  // per-call-edge shortcut joining the caller's data flow directly across
  // the callee.  Receiver-dependent shortcuts (covered stores, ret-loads
  // through `this`) exist only for virtual dispatch; argument/alloc return
  // shortcuts have a static-call twin because CutMode::All also cuts
  // static-method returns.

  // cs-store: a covered store `this.f = formal_i` becomes
  // FldPointsTo(recvH, recvHC, f, h, hc) <-
  //   VCallTarget(invo, cctx, recvH, recvHC, meth, this, calleeCtx),
  //   CutStore(meth, i, f), ActualArg(invo, i, from),
  //   VarPointsTo(from, cctx, h, hc).
  {
    dl::Rule R;
    R.Name = "cs-store";
    enum {
      Invo, CallerCtx, RecvH, RecvHC, Meth, This, CalleeCtx, Pos, Fld,
      From, Heap, HCtx, NumVars
    };
    R.NumVars = NumVars;
    R.Head = Atom(*FldPointsTo, {V(RecvH), V(RecvHC), V(Fld), V(Heap),
                                 V(HCtx)});
    R.Body.push_back(Atom(*VCallTarget, {V(Invo), V(CallerCtx), V(RecvH),
                                         V(RecvHC), V(Meth), V(This),
                                         V(CalleeCtx)}));
    R.Body.push_back(Atom(*CutStore, {V(Meth), V(Pos), V(Fld)}));
    R.Body.push_back(Atom(*ActualArg, {V(Invo), V(Pos), V(From)}));
    R.Body.push_back(Atom(*VarPointsTo, {V(From), V(CallerCtx), V(Heap),
                                         V(HCtx)}));
    addRule(std::move(R));
  }

  // cs-ret-arg: a return of (a clean copy of) formal_i becomes a direct
  // actual_i -> retTo edge at every call edge.
  {
    dl::Rule R;
    R.Name = "cs-ret-arg";
    enum {
      Invo, CallerCtx, RecvH, RecvHC, Meth, This, CalleeCtx, Pos, From,
      RetTo, Heap, HCtx, NumVars
    };
    R.NumVars = NumVars;
    R.Head = Atom(*VarPointsTo, {V(RetTo), V(CallerCtx), V(Heap), V(HCtx)});
    R.Body.push_back(Atom(*VCallTarget, {V(Invo), V(CallerCtx), V(RecvH),
                                         V(RecvHC), V(Meth), V(This),
                                         V(CalleeCtx)}));
    R.Body.push_back(Atom(*CutRetArg, {V(Meth), V(Pos)}));
    R.Body.push_back(Atom(*ActualArg, {V(Invo), V(Pos), V(From)}));
    R.Body.push_back(Atom(*ActualRet, {V(Invo), V(RetTo)}));
    R.Body.push_back(Atom(*VarPointsTo, {V(From), V(CallerCtx), V(Heap),
                                         V(HCtx)}));
    addRule(std::move(R));
  }
  {
    dl::Rule R;
    R.Name = "cs-ret-arg-s";
    enum {
      Invo, CallerCtx, Meth, CalleeCtx, Pos, From, RetTo, Heap, HCtx,
      NumVars
    };
    R.NumVars = NumVars;
    R.Head = Atom(*VarPointsTo, {V(RetTo), V(CallerCtx), V(Heap), V(HCtx)});
    R.Body.push_back(Atom(*SCallTarget, {V(Invo), V(CallerCtx), V(Meth),
                                         V(CalleeCtx)}));
    R.Body.push_back(Atom(*CutRetArg, {V(Meth), V(Pos)}));
    R.Body.push_back(Atom(*ActualArg, {V(Invo), V(Pos), V(From)}));
    R.Body.push_back(Atom(*ActualRet, {V(Invo), V(RetTo)}));
    R.Body.push_back(Atom(*VarPointsTo, {V(From), V(CallerCtx), V(Heap),
                                         V(HCtx)}));
    addRule(std::move(R));
  }

  // cs-ret-alloc: a returned local allocation flows straight to retTo,
  // with RECORD applied under the callee context (the same heap context
  // the in-callee Alloc rule would have produced).
  {
    dl::Rule R;
    R.Name = "cs-ret-alloc";
    enum {
      Invo, CallerCtx, RecvH, RecvHC, Meth, This, CalleeCtx, Heap, RetTo,
      HCtx, NumVars
    };
    R.NumVars = NumVars;
    R.Head = Atom(*VarPointsTo, {V(RetTo), V(CallerCtx), V(Heap), V(HCtx)});
    R.Body.push_back(Atom(*VCallTarget, {V(Invo), V(CallerCtx), V(RecvH),
                                         V(RecvHC), V(Meth), V(This),
                                         V(CalleeCtx)}));
    R.Body.push_back(Atom(*CutRetAlloc, {V(Meth), V(Heap)}));
    R.Body.push_back(Atom(*ActualRet, {V(Invo), V(RetTo)}));
    FunctorApp F;
    F.Fn = [Pol](const Value *Args) {
      return Pol->record(HeapId(Args[0]), CtxId(Args[1])).index();
    };
    F.Name = "RECORD";
    F.Args = {V(Heap), V(CalleeCtx)};
    F.ResultVar = HCtx;
    R.Functors.push_back(std::move(F));
    addRule(std::move(R));
  }
  {
    dl::Rule R;
    R.Name = "cs-ret-alloc-s";
    enum { Invo, CallerCtx, Meth, CalleeCtx, Heap, RetTo, HCtx, NumVars };
    R.NumVars = NumVars;
    R.Head = Atom(*VarPointsTo, {V(RetTo), V(CallerCtx), V(Heap), V(HCtx)});
    R.Body.push_back(Atom(*SCallTarget, {V(Invo), V(CallerCtx), V(Meth),
                                         V(CalleeCtx)}));
    R.Body.push_back(Atom(*CutRetAlloc, {V(Meth), V(Heap)}));
    R.Body.push_back(Atom(*ActualRet, {V(Invo), V(RetTo)}));
    FunctorApp F;
    F.Fn = [Pol](const Value *Args) {
      return Pol->record(HeapId(Args[0]), CtxId(Args[1])).index();
    };
    F.Name = "RECORD";
    F.Args = {V(Heap), V(CalleeCtx)};
    F.ResultVar = HCtx;
    R.Functors.push_back(std::move(F));
    addRule(std::move(R));
  }

  // cs-ret-load: a return of `this.f` becomes a direct read of the
  // receiver object's slot at every call edge.
  {
    dl::Rule R;
    R.Name = "cs-ret-load";
    enum {
      Invo, CallerCtx, RecvH, RecvHC, Meth, This, CalleeCtx, Fld, RetTo,
      Heap, HCtx, NumVars
    };
    R.NumVars = NumVars;
    R.Head = Atom(*VarPointsTo, {V(RetTo), V(CallerCtx), V(Heap), V(HCtx)});
    R.Body.push_back(Atom(*VCallTarget, {V(Invo), V(CallerCtx), V(RecvH),
                                         V(RecvHC), V(Meth), V(This),
                                         V(CalleeCtx)}));
    R.Body.push_back(Atom(*CutRetLoad, {V(Meth), V(Fld)}));
    R.Body.push_back(Atom(*ActualRet, {V(Invo), V(RetTo)}));
    R.Body.push_back(Atom(*FldPointsTo, {V(RecvH), V(RecvHC), V(Fld),
                                         V(Heap), V(HCtx)}));
    addRule(std::move(R));
  }
}

bool ReferenceAnalysis::run(const EngineOptions &Opts) {
  return !Engine.run(Opts).Aborted;
}

std::vector<std::vector<uint32_t>>
ReferenceAnalysis::exportRows(const dl::Relation &Rel,
                              std::string_view Columns) const {
  std::vector<std::vector<uint32_t>> Rows;
  for (size_t I = 0; I < Rel.settledRows(); ++I) {
    const Value *Row = Rel.row(I);
    std::vector<uint32_t> Out;
    for (size_t C = 0; C != Columns.size(); ++C) {
      if (Columns[C] == 'c')
        appendCanonicalContext(Policy.ctxTable(), CtxId(Row[C]), Out);
      else if (Columns[C] == 'h')
        appendCanonicalContext(Policy.hctxTable(), HCtxId(Row[C]), Out);
      else
        Out.push_back(Row[C]);
    }
    Rows.push_back(std::move(Out));
  }
  std::sort(Rows.begin(), Rows.end());
  Rows.erase(std::unique(Rows.begin(), Rows.end()), Rows.end());
  return Rows;
}

std::vector<std::vector<uint32_t>>
ReferenceAnalysis::exportVarPointsTo() const {
  return exportRows(*VarPointsTo, "-c-h");
}
std::vector<std::vector<uint32_t>> ReferenceAnalysis::exportCallGraph() const {
  return exportRows(*CallGraph, "-c-c");
}
std::vector<std::vector<uint32_t>>
ReferenceAnalysis::exportFieldPointsTo() const {
  return exportRows(*FldPointsTo, "-h--h");
}
std::vector<std::vector<uint32_t>>
ReferenceAnalysis::exportStaticFieldPointsTo() const {
  return exportRows(*StaticFldPointsTo, "--h");
}
std::vector<std::vector<uint32_t>>
ReferenceAnalysis::exportThrowPointsTo() const {
  return exportRows(*ThrowPointsTo, "-c-h");
}
std::vector<std::vector<uint32_t>> ReferenceAnalysis::exportReachable() const {
  return exportRows(*Reachable, "-c");
}

std::set<std::pair<uint32_t, uint32_t>>
ReferenceAnalysis::ciVarPointsTo() const {
  std::set<std::pair<uint32_t, uint32_t>> Out;
  for (size_t I = 0; I < VarPointsTo->settledRows(); ++I) {
    const Value *Row = VarPointsTo->row(I);
    Out.emplace(Row[0], Row[2]);
  }
  return Out;
}

std::set<std::pair<uint32_t, uint32_t>> ReferenceAnalysis::ciCallEdges() const {
  std::set<std::pair<uint32_t, uint32_t>> Out;
  for (size_t I = 0; I < CallGraph->settledRows(); ++I) {
    const Value *Row = CallGraph->row(I);
    Out.emplace(Row[0], Row[2]);
  }
  return Out;
}

std::set<uint32_t> ReferenceAnalysis::ciReachable() const {
  std::set<uint32_t> Out;
  for (size_t I = 0; I < Reachable->settledRows(); ++I)
    Out.insert(Reachable->row(I)[0]);
  return Out;
}

std::set<std::pair<uint32_t, uint32_t>>
ReferenceAnalysis::ciStaticFieldPointsTo() const {
  std::set<std::pair<uint32_t, uint32_t>> Out;
  for (size_t I = 0; I < StaticFldPointsTo->settledRows(); ++I) {
    const Value *Row = StaticFldPointsTo->row(I);
    Out.emplace(Row[0], Row[1]);
  }
  return Out;
}

std::set<std::tuple<uint32_t, uint32_t, uint32_t>>
ReferenceAnalysis::ciFieldPointsTo() const {
  std::set<std::tuple<uint32_t, uint32_t, uint32_t>> Out;
  for (size_t I = 0; I < FldPointsTo->settledRows(); ++I) {
    const Value *Row = FldPointsTo->row(I);
    Out.emplace(Row[0], Row[2], Row[3]);
  }
  return Out;
}
