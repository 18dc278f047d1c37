//===- pta/provenance/Validate.cpp - Re-check derivation steps -----------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Replays recorded derivation steps against the Figure-2 side conditions.
/// A step is accepted when *some* instruction of the relevant method
/// justifies it (the instruction bag is flow-insensitive, so any witness
/// is as good as another), all type filters hold, the run's context
/// constructors reproduce the recorded contexts, and every shortcut step is
/// one the run's cut plan wires.
/// This is the oracle behind the derivation-replay fuzz axis: the solver
/// must only ever record checkable steps.
///
//===----------------------------------------------------------------------===//

#include "pta/provenance/Provenance.h"

#include "context/ContextTable.h"
#include "context/CutShortcut.h"
#include "context/Policy.h"
#include "ir/Program.h"
#include "pta/AnalysisResult.h"
#include "support/Hashing.h"

#include <algorithm>
#include <optional>
#include <string>

using namespace pt;
using namespace pt::prov;

namespace {

/// Decoded view of one fact, with payload split per kind.
struct FactView {
  FactKind Kind;
  uint32_t A0 = 0; ///< var / baseObj / fld / method / invoke.
  uint32_t A1 = 0; ///< ctx / fld / callerCtx (kind-dependent).
  uint32_t Obj = 0;
  uint32_t Callee = 0;
  uint32_t CalleeCtx = 0;
};

FactView decode(const Fact &F) {
  FactView V;
  V.Kind = F.Kind;
  V.A0 = unpackHi(F.A);
  V.A1 = unpackLo(F.A);
  if (F.Kind == FactKind::StaticPointsTo) {
    V.A0 = static_cast<uint32_t>(F.A);
    V.A1 = 0;
  }
  if (F.Kind == FactKind::CallEdge) {
    V.Callee = unpackHi(F.B64);
    V.CalleeCtx = unpackLo(F.B64);
  } else {
    V.Obj = static_cast<uint32_t>(F.B64);
  }
  return V;
}

/// Checks one step; empty string = accepted.
class StepChecker {
public:
  StepChecker(const Recorder &R, const AnalysisResult &Res,
              ContextPolicy &Policy)
      : R(R), Res(Res), Prog(Res.program()), Policy(Policy),
        Plan(Policy.cutPlan()) {}

  std::string check(const Step &S) {
    if (S.Target >= R.numFacts())
      return "step targets fact id out of range";
    Fact TF = R.fact(S.Target);
    FactView T = decode(TF);
    FactView P0, P1;
    bool HasP0 = S.Prem0 != InvalidFact, HasP1 = S.Prem1 != InvalidFact;
    if (HasP0) {
      if (S.Prem0 >= R.numFacts())
        return "premise 0 out of range";
      P0 = decode(R.fact(S.Prem0));
    }
    if (HasP1) {
      if (S.Prem1 >= R.numFacts())
        return "premise 1 out of range";
      P1 = decode(R.fact(S.Prem1));
    }
    switch (S.rule()) {
    case Rule::Entry:
      return checkEntry(T, HasP0 || HasP1);
    case Rule::Seed:
      return T.Kind == FactKind::Reachable ? "" : "seed of non-Reachable";
    case Rule::ReachCall:
      return checkReachCall(T, P0, HasP0);
    case Rule::Alloc:
      return checkAlloc(T, P0, HasP0);
    case Rule::Move:
      return checkMoveCast(T, P0, HasP0, /*IsCast=*/false);
    case Rule::Cast:
      return checkMoveCast(T, P0, HasP0, /*IsCast=*/true);
    case Rule::Load:
      return checkLoad(T, P0, P1, HasP0 && HasP1);
    case Rule::Store:
      return checkStore(T, P0, P1, HasP0 && HasP1);
    case Rule::StaticLoad:
      return checkStaticLoad(T, P0, HasP0);
    case Rule::StaticStore:
      return checkStaticStore(T, P0, HasP0);
    case Rule::VCall:
      return checkVCall(T, P0, HasP0);
    case Rule::SCall:
      return checkSCall(T, P0, HasP0);
    case Rule::ThisBind:
      return checkThisBind(T, P0, P1, HasP0 && HasP1);
    case Rule::ParamBind:
      return checkParamBind(T, P0, P1, HasP0 && HasP1);
    case Rule::ReturnBind:
      return checkReturnBind(T, P0, P1, HasP0 && HasP1);
    case Rule::ThrowRaise:
      return checkThrowLocal(T, P0, HasP0, /*Caught=*/false);
    case Rule::CatchBind:
      return checkThrowLocal(T, P0, HasP0, /*Caught=*/true);
    case Rule::ThrowEscalate:
      return checkEscalate(T, P0, P1, HasP0 && HasP1, /*Caught=*/false);
    case Rule::CatchEscalate:
      return checkEscalate(T, P0, P1, HasP0 && HasP1, /*Caught=*/true);
    case Rule::ShortcutStore:
      return checkShortcutStore(T, P0, P1, HasP0 && HasP1);
    case Rule::ShortcutRetArg:
      return checkShortcutRetArg(T, P0, P1, HasP0 && HasP1);
    case Rule::ShortcutRetLoad:
      return checkShortcutRetLoad(T, P0, P1, HasP0 && HasP1);
    case Rule::ShortcutRetAlloc:
      return checkShortcutRetAlloc(T, P0, HasP0 && !HasP1);
    case Rule::Sanitize:
      return checkSanitize(T, P0, HasP0);
    }
    return "unknown rule";
  }

private:
  TypeId objType(uint32_t Obj) const {
    return Prog.heap(Res.objHeap(Obj)).Type;
  }

  bool objOk(uint32_t Obj) const { return Obj < Res.numObjects(); }

  /// True when a handler of method \p M catches \p ObjType; with \p Var,
  /// one that binds the variable of raw id \p Var.
  bool catches(MethodId M, TypeId ObjType,
               std::optional<uint32_t> Var = std::nullopt) const {
    for (const HandlerInfo &H : Prog.method(M).Handlers)
      if (Prog.isSubtype(ObjType, H.CatchType) &&
          (!Var || H.Var.rawValue() == *Var))
        return true;
    return false;
  }

  std::string checkEntry(const FactView &T, bool HasPrem) {
    if (T.Kind != FactKind::Reachable)
      return "entry concludes non-Reachable";
    if (HasPrem)
      return "entry with premises";
    for (MethodId M : Prog.entryPoints())
      if (M.rawValue() == T.A0) {
        if (CtxId(T.A1) != Policy.initialContext())
          return "entry context is not the policy's initial context";
        return "";
      }
    return "entry Reachable of a non-entry method";
  }

  std::string checkReachCall(const FactView &T, const FactView &P, bool Has) {
    if (T.Kind != FactKind::Reachable || !Has)
      return "reach-call shape";
    if (P.Kind != FactKind::CallEdge)
      return "reach-call premise is not a CallEdge";
    if (P.Callee != T.A0 || P.CalleeCtx != T.A1)
      return "reach-call conclusion does not match the edge's callee";
    return "";
  }

  std::string checkAlloc(const FactView &T, const FactView &P, bool Has) {
    if (T.Kind != FactKind::VarPointsTo || !Has ||
        P.Kind != FactKind::Reachable)
      return "alloc shape";
    if (!objOk(T.Obj))
      return "alloc object id out of range";
    VarId V(T.A0);
    if (Prog.var(V).Owner.rawValue() != P.A0)
      return "alloc var not owned by the reachable method";
    if (T.A1 != P.A1)
      return "alloc context differs from the reachable context";
    HeapId H = Res.objHeap(T.Obj);
    for (const AllocInstr &A : Prog.method(MethodId(P.A0)).Allocs)
      if (A.Var == V && A.Heap == H) {
        if (Policy.record(H, CtxId(T.A1)) != Res.objHCtx(T.Obj))
          return "alloc heap context does not match RECORD";
        return "";
      }
    return "no alloc instruction witnesses this fact";
  }

  std::string checkMoveCast(const FactView &T, const FactView &P, bool Has,
                            bool IsCast) {
    if (T.Kind != FactKind::VarPointsTo || !Has ||
        P.Kind != FactKind::VarPointsTo)
      return "move/cast shape";
    if (T.A1 != P.A1 || T.Obj != P.Obj)
      return "move/cast must preserve context and object";
    if (!objOk(T.Obj))
      return "object id out of range";
    VarId To(T.A0), From(P.A0);
    const MethodInfo &M = Prog.method(Prog.var(To).Owner);
    if (IsCast) {
      // Any witnessing cast whose filter admits the object justifies the
      // step (two casts over the same variable pair may differ in target).
      bool SawPair = false;
      for (const CastInstr &C : M.Casts)
        if (C.To == To && C.From == From) {
          SawPair = true;
          if (Prog.isSubtype(objType(T.Obj), C.Target))
            return "";
        }
      return SawPair ? "cast admits an object that fails the type filter"
                     : "no cast instruction witnesses this fact";
    }
    for (const MoveInstr &Mv : M.Moves)
      if (Mv.To == To && Mv.From == From)
        return "";
    return "no move instruction witnesses this fact";
  }

  std::string checkSanitize(const FactView &T, const FactView &P, bool Has) {
    if (T.Kind != FactKind::VarPointsTo || !Has ||
        P.Kind != FactKind::VarPointsTo)
      return "sanitize shape";
    if (T.A1 != P.A1 || T.Obj != P.Obj)
      return "sanitize must preserve context and object";
    if (!objOk(T.Obj))
      return "object id out of range";
    if (Prog.heap(Res.objHeap(T.Obj)).TaintTag != 0)
      return "sanitize passes a tainted object";
    VarId To(T.A0), From(P.A0);
    for (const SanitizeInstr &S : Prog.method(Prog.var(To).Owner).Sanitizes)
      if (S.To == To && S.From == From)
        return "";
    return "no sanitize instruction witnesses this fact";
  }

  std::string checkLoad(const FactView &T, const FactView &P0,
                        const FactView &P1, bool Has) {
    if (T.Kind != FactKind::VarPointsTo || !Has ||
        P0.Kind != FactKind::FieldPointsTo || P1.Kind != FactKind::VarPointsTo)
      return "load shape (needs FPT + base VPT premises)";
    if (T.Obj != P0.Obj)
      return "load must conclude the field's object";
    if (P1.Obj != P0.A0)
      return "load base premise does not point to the field's base object";
    if (T.A1 != P1.A1)
      return "load conclusion context differs from the base context";
    VarId To(T.A0), Base(P1.A0);
    for (const LoadInstr &L : Prog.method(Prog.var(To).Owner).Loads)
      if (L.To == To && L.Base == Base && L.Fld.rawValue() == P0.A1)
        return "";
    return "no load instruction witnesses this fact";
  }

  std::string checkStore(const FactView &T, const FactView &P0,
                         const FactView &P1, bool Has) {
    if (T.Kind != FactKind::FieldPointsTo || !Has ||
        P0.Kind != FactKind::VarPointsTo || P1.Kind != FactKind::VarPointsTo)
      return "store shape (needs value VPT + base VPT premises)";
    if (T.Obj != P0.Obj)
      return "store must conclude the value premise's object";
    if (P1.Obj != T.A0)
      return "store base premise does not point to the concluded base object";
    if (P0.A1 != P1.A1)
      return "store premises must share one context";
    VarId From(P0.A0), Base(P1.A0);
    for (const StoreInstr &S : Prog.method(Prog.var(From).Owner).Stores)
      if (S.From == From && S.Base == Base && S.Fld.rawValue() == T.A1)
        return "";
    return "no store instruction witnesses this fact";
  }

  std::string checkStaticLoad(const FactView &T, const FactView &P, bool Has) {
    if (T.Kind != FactKind::VarPointsTo || !Has ||
        P.Kind != FactKind::StaticPointsTo)
      return "static-load shape";
    if (T.Obj != P.Obj)
      return "static-load must preserve the object";
    VarId To(T.A0);
    for (const SLoadInstr &L : Prog.method(Prog.var(To).Owner).SLoads)
      if (L.To == To && L.Fld.rawValue() == P.A0)
        return "";
    return "no static-load instruction witnesses this fact";
  }

  std::string checkStaticStore(const FactView &T, const FactView &P,
                               bool Has) {
    if (T.Kind != FactKind::StaticPointsTo || !Has ||
        P.Kind != FactKind::VarPointsTo)
      return "static-store shape";
    if (T.Obj != P.Obj)
      return "static-store must preserve the object";
    VarId From(P.A0);
    for (const SStoreInstr &S : Prog.method(Prog.var(From).Owner).SStores)
      if (S.From == From && S.Fld.rawValue() == T.A0)
        return "";
    return "no static-store instruction witnesses this fact";
  }

  std::string checkVCall(const FactView &T, const FactView &P, bool Has) {
    if (T.Kind != FactKind::CallEdge || !Has ||
        P.Kind != FactKind::VarPointsTo)
      return "vcall shape (needs receiver VPT premise)";
    const InvokeInfo &Inv = Prog.invoke(InvokeId(T.A0));
    if (Inv.IsStatic)
      return "vcall edge at a static invocation site";
    if (Inv.Base.rawValue() != P.A0 || T.A1 != P.A1)
      return "vcall receiver premise does not match the invocation";
    if (!objOk(P.Obj))
      return "receiver object id out of range";
    MethodId Callee = Prog.lookup(objType(P.Obj), Inv.Sig);
    if (!Callee.isValid() || Callee.rawValue() != T.Callee)
      return "vcall LOOKUP does not resolve to the recorded callee";
    CtxId CC = Policy.merge(Res.objHeap(P.Obj), Res.objHCtx(P.Obj),
                            InvokeId(T.A0), CtxId(T.A1));
    if (CC.rawValue() != T.CalleeCtx)
      return "vcall callee context does not match MERGE";
    return "";
  }

  std::string checkSCall(const FactView &T, const FactView &P, bool Has) {
    if (T.Kind != FactKind::CallEdge || !Has ||
        P.Kind != FactKind::Reachable)
      return "scall shape (needs caller Reachable premise)";
    const InvokeInfo &Inv = Prog.invoke(InvokeId(T.A0));
    if (!Inv.IsStatic)
      return "scall edge at a virtual invocation site";
    if (Inv.InMethod.rawValue() != P.A0 || T.A1 != P.A1)
      return "scall caller premise does not match the invocation";
    if (Inv.Target.rawValue() != T.Callee)
      return "scall target does not match the recorded callee";
    if (Policy.mergeStatic(InvokeId(T.A0), CtxId(T.A1)).rawValue() !=
        T.CalleeCtx)
      return "scall callee context does not match MERGESTATIC";
    return "";
  }

  std::string checkThisBind(const FactView &T, const FactView &P0,
                            const FactView &P1, bool Has) {
    if (T.Kind != FactKind::VarPointsTo || !Has ||
        P0.Kind != FactKind::VarPointsTo || P1.Kind != FactKind::CallEdge)
      return "this-bind shape";
    const InvokeInfo &Inv = Prog.invoke(InvokeId(P1.A0));
    if (Inv.IsStatic)
      return "this-bind at a static call";
    if (Inv.Base.rawValue() != P0.A0 || P1.A1 != P0.A1)
      return "this-bind receiver premise does not match the edge's caller";
    const MethodInfo &Callee = Prog.method(MethodId(P1.Callee));
    if (Callee.This.rawValue() != T.A0 || T.A1 != P1.CalleeCtx)
      return "this-bind conclusion is not the callee's this in callee ctx";
    if (T.Obj != P0.Obj)
      return "this-bind must preserve the receiver object";
    return "";
  }

  std::string checkParamBind(const FactView &T, const FactView &P0,
                             const FactView &P1, bool Has) {
    if (T.Kind != FactKind::VarPointsTo || !Has ||
        P0.Kind != FactKind::VarPointsTo || P1.Kind != FactKind::CallEdge)
      return "param-bind shape";
    const InvokeInfo &Inv = Prog.invoke(InvokeId(P1.A0));
    if (P1.A1 != P0.A1)
      return "param-bind actual premise context differs from the caller ctx";
    if (T.A1 != P1.CalleeCtx)
      return "param-bind conclusion context differs from the callee ctx";
    if (T.Obj != P0.Obj)
      return "param-bind must preserve the object";
    const MethodInfo &Callee = Prog.method(MethodId(P1.Callee));
    size_t N = std::min(Inv.Actuals.size(), Callee.Formals.size());
    for (size_t I = 0; I < N; ++I)
      if (Inv.Actuals[I].rawValue() == P0.A0 &&
          Callee.Formals[I].rawValue() == T.A0)
        return "";
    return "no formal/actual pair witnesses this binding";
  }

  std::string checkReturnBind(const FactView &T, const FactView &P0,
                              const FactView &P1, bool Has) {
    if (T.Kind != FactKind::VarPointsTo || !Has ||
        P0.Kind != FactKind::VarPointsTo || P1.Kind != FactKind::CallEdge)
      return "return-bind shape";
    const InvokeInfo &Inv = Prog.invoke(InvokeId(P1.A0));
    const MethodInfo &Callee = Prog.method(MethodId(P1.Callee));
    if (!Inv.RetTo.isValid() || Inv.RetTo.rawValue() != T.A0)
      return "return-bind conclusion is not the call's return target";
    if (!Callee.Return.isValid() || Callee.Return.rawValue() != P0.A0)
      return "return-bind premise is not the callee's return variable";
    if (P0.A1 != P1.CalleeCtx || T.A1 != P1.A1)
      return "return-bind contexts do not match the edge";
    if (T.Obj != P0.Obj)
      return "return-bind must preserve the object";
    return "";
  }

  std::string checkThrowLocal(const FactView &T, const FactView &P, bool Has,
                              bool Caught) {
    if (!Has || P.Kind != FactKind::VarPointsTo)
      return "throw premise must be a VarPointsTo";
    if (!objOk(P.Obj))
      return "thrown object id out of range";
    VarId V(P.A0);
    MethodId Raiser = Prog.var(V).Owner;
    bool HasThrow = false;
    for (const ThrowInstr &Th : Prog.method(Raiser).Throws)
      HasThrow |= Th.V == V;
    if (!HasThrow)
      return "no throw instruction witnesses this fact";
    bool Handled = catches(Raiser, objType(P.Obj));
    if (Caught) {
      if (T.Kind != FactKind::VarPointsTo)
        return "catch-bind concludes non-VarPointsTo";
      if (!Handled)
        return "catch-bind but no handler of the method matches";
      if (!catches(Raiser, objType(P.Obj), T.A0))
        return "catch-bind target is not a matching handler variable";
      if (T.A1 != P.A1 || T.Obj != P.Obj)
        return "catch-bind must preserve context and object";
      return "";
    }
    if (T.Kind != FactKind::ThrowPointsTo)
      return "throw-raise concludes non-ThrowPointsTo";
    if (Handled)
      return "throw-raise but a handler of the method matches";
    if (T.A0 != Raiser.rawValue() || T.A1 != P.A1 || T.Obj != P.Obj)
      return "throw-raise conclusion does not match the raising frame";
    return "";
  }

  // --- Cut-shortcut steps (context/CutShortcut.h) -----------------------
  //
  // A recorded shortcut must be one the run's cut plan wires.  Shortcut
  // steps are only ever recorded by cut-shortcut policies, so a policy
  // without a plan rejects every one of them.

  std::string checkShortcutStore(const FactView &T, const FactView &P0,
                                 const FactView &P1, bool Has) {
    if (T.Kind != FactKind::FieldPointsTo || !Has ||
        P0.Kind != FactKind::VarPointsTo || P1.Kind != FactKind::CallEdge)
      return "shortcut-store shape (needs actual VPT + CallEdge premises)";
    if (!Plan)
      return "shortcut step under a policy without a cut plan";
    const InvokeInfo &Inv = Prog.invoke(InvokeId(P1.A0));
    if (Inv.IsStatic)
      return "shortcut-store at a static call";
    if (P0.A1 != P1.A1)
      return "shortcut-store actual premise is not in the caller context";
    if (T.Obj != P0.Obj)
      return "shortcut-store must preserve the stored object";
    if (!objOk(T.A0))
      return "shortcut-store receiver object id out of range";
    MethodId Callee(P1.Callee);
    MethodId Resolved = Prog.lookup(objType(T.A0), Inv.Sig);
    if (!Resolved.isValid() || Resolved != Callee)
      return "shortcut-store receiver does not dispatch to the edge callee";
    for (const CutShortcutPlan::StoreCut &SC : Plan->method(Callee).StoreCuts)
      if (SC.Fld.rawValue() == T.A1 && SC.FormalIdx < Inv.Actuals.size() &&
          Inv.Actuals[SC.FormalIdx].rawValue() == P0.A0)
        return "";
    return "no store cut in the plan witnesses this shortcut";
  }

  std::string checkShortcutRetArg(const FactView &T, const FactView &P0,
                                  const FactView &P1, bool Has) {
    if (T.Kind != FactKind::VarPointsTo || !Has ||
        P0.Kind != FactKind::VarPointsTo || P1.Kind != FactKind::CallEdge)
      return "shortcut-ret-arg shape (needs actual VPT + CallEdge premises)";
    if (!Plan)
      return "shortcut step under a policy without a cut plan";
    const InvokeInfo &Inv = Prog.invoke(InvokeId(P1.A0));
    if (!Inv.RetTo.isValid() || Inv.RetTo.rawValue() != T.A0)
      return "shortcut-ret-arg conclusion is not the call's return target";
    if (T.A1 != P1.A1 || P0.A1 != P1.A1)
      return "shortcut-ret-arg must stay in the caller context";
    if (T.Obj != P0.Obj)
      return "shortcut-ret-arg must preserve the object";
    const CutShortcutPlan::MethodPlan &MP = Plan->method(MethodId(P1.Callee));
    if (!MP.RetCut)
      return "shortcut-ret-arg at a callee whose return is not cut";
    for (uint32_t Pos : MP.RetArgs)
      if (Pos < Inv.Actuals.size() && Inv.Actuals[Pos].rawValue() == P0.A0)
        return "";
    return "no ret-arg cut in the plan witnesses this shortcut";
  }

  std::string checkShortcutRetLoad(const FactView &T, const FactView &P0,
                                   const FactView &P1, bool Has) {
    if (T.Kind != FactKind::VarPointsTo || !Has ||
        P0.Kind != FactKind::FieldPointsTo || P1.Kind != FactKind::CallEdge)
      return "shortcut-ret-load shape (needs FPT + CallEdge premises)";
    if (!Plan)
      return "shortcut step under a policy without a cut plan";
    const InvokeInfo &Inv = Prog.invoke(InvokeId(P1.A0));
    if (Inv.IsStatic)
      return "shortcut-ret-load at a static call";
    if (!Inv.RetTo.isValid() || Inv.RetTo.rawValue() != T.A0)
      return "shortcut-ret-load conclusion is not the call's return target";
    if (T.A1 != P1.A1)
      return "shortcut-ret-load must stay in the caller context";
    if (T.Obj != P0.Obj)
      return "shortcut-ret-load must preserve the loaded object";
    if (!objOk(P0.A0))
      return "shortcut-ret-load receiver object id out of range";
    MethodId Callee(P1.Callee);
    MethodId Resolved = Prog.lookup(objType(P0.A0), Inv.Sig);
    if (!Resolved.isValid() || Resolved != Callee)
      return "shortcut-ret-load receiver does not dispatch to the callee";
    const CutShortcutPlan::MethodPlan &MP = Plan->method(Callee);
    if (!MP.RetCut)
      return "shortcut-ret-load at a callee whose return is not cut";
    for (FieldId F : MP.RetLoads)
      if (F.rawValue() == P0.A1)
        return "";
    return "no ret-load cut in the plan witnesses this shortcut";
  }

  std::string checkShortcutRetAlloc(const FactView &T, const FactView &P0,
                                    bool Has) {
    if (T.Kind != FactKind::VarPointsTo || !Has ||
        P0.Kind != FactKind::CallEdge)
      return "shortcut-ret-alloc shape (needs a CallEdge premise)";
    if (!Plan)
      return "shortcut step under a policy without a cut plan";
    const InvokeInfo &Inv = Prog.invoke(InvokeId(P0.A0));
    if (!Inv.RetTo.isValid() || Inv.RetTo.rawValue() != T.A0)
      return "shortcut-ret-alloc conclusion is not the call's return target";
    if (T.A1 != P0.A1)
      return "shortcut-ret-alloc must stay in the caller context";
    if (!objOk(T.Obj))
      return "shortcut-ret-alloc object id out of range";
    HeapId H = Res.objHeap(T.Obj);
    if (Policy.record(H, CtxId(P0.CalleeCtx)) != Res.objHCtx(T.Obj))
      return "shortcut-ret-alloc heap context does not match RECORD";
    const CutShortcutPlan::MethodPlan &MP = Plan->method(MethodId(P0.Callee));
    if (!MP.RetCut)
      return "shortcut-ret-alloc at a callee whose return is not cut";
    for (HeapId PH : MP.RetAllocs)
      if (PH == H)
        return "";
    return "no ret-alloc cut in the plan witnesses this shortcut";
  }

  std::string checkEscalate(const FactView &T, const FactView &P0,
                            const FactView &P1, bool Has, bool Caught) {
    if (!Has || P0.Kind != FactKind::ThrowPointsTo ||
        P1.Kind != FactKind::CallEdge)
      return "escalate shape (needs callee TPT + CallEdge premises)";
    if (P0.A0 != P1.Callee || P0.A1 != P1.CalleeCtx)
      return "escalated throw frame is not the edge's callee";
    if (!objOk(P0.Obj))
      return "escalated object id out of range";
    MethodId Caller = Prog.invoke(InvokeId(P1.A0)).InMethod;
    bool Handled = catches(Caller, objType(P0.Obj));
    if (Caught) {
      if (T.Kind != FactKind::VarPointsTo || !Handled)
        return "catch-escalate without a matching caller handler";
      if (!catches(Caller, objType(P0.Obj), T.A0))
        return "catch-escalate target is not a matching handler variable";
      if (T.A1 != P1.A1 || T.Obj != P0.Obj)
        return "catch-escalate must bind in the caller context";
      return "";
    }
    if (T.Kind != FactKind::ThrowPointsTo)
      return "throw-escalate concludes non-ThrowPointsTo";
    if (Handled)
      return "throw-escalate but a caller handler matches";
    if (T.A0 != Caller.rawValue() || T.A1 != P1.A1 || T.Obj != P0.Obj)
      return "throw-escalate conclusion does not match the caller frame";
    return "";
  }

  const Recorder &R;
  const AnalysisResult &Res;
  const Program &Prog;
  ContextPolicy &Policy;
  const CutShortcutPlan *Plan; ///< Null unless a cut-shortcut policy.
};

std::string describeStep(const Step &S, size_t Idx) {
  return "step " + std::to_string(Idx) + " (" + ruleName(S.rule()) +
         " -> fact " + std::to_string(S.Target) + ")";
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
  StepChecker Checker(R, Res, Policy);
  // Premises must be concluded by an earlier tree step (well-foundedness).
  std::vector<bool> Concluded(R.numFacts(), false);
  for (const TreeStep &TS : Tree.Steps) {
    Step S{TS.FactId, TS.Prem0, TS.Prem1, static_cast<uint32_t>(TS.R)};
    for (uint32_t P : {TS.Prem0, TS.Prem1}) {
      if (P == InvalidFact)
        continue;
      if (P >= R.numFacts() || !Concluded[P]) {
        VR.Ok = false;
        VR.Error = describeStep(S, TS.StepIdx) +
                   ": premise not concluded by an earlier tree step";
        return VR;
      }
    }
    std::string Err = Checker.check(S);
    if (!Err.empty()) {
      VR.Ok = false;
      VR.Error = describeStep(S, TS.StepIdx) + ": " + Err;
      return VR;
    }
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
  if (Stride == 0)
    Stride = 1;
  StepChecker Checker(R, Res, Policy);
  size_t N = R.numSteps();
  for (size_t I = 0; I < N; I += Stride) {
    Step S = R.stepAt(I);
    std::string Err = Checker.check(S);
    if (!Err.empty()) {
      VR.Ok = false;
      VR.Error = describeStep(S, I) + ": " + Err;
      return VR;
    }
    ++VR.CheckedSteps;
  }
  return VR;
}
