//===- context/CutShortcut.cpp -----------------------------------------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//

#include "context/CutShortcut.h"

#include "ir/Program.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

using namespace pt;

size_t CutShortcutPlan::numStoreCuts() const {
  size_t N = 0;
  for (const MethodPlan &MP : Methods)
    N += MP.StoreCuts.size();
  return N;
}

size_t CutShortcutPlan::numRetCuts() const {
  size_t N = 0;
  for (const MethodPlan &MP : Methods)
    N += MP.RetCut ? 1 : 0;
  return N;
}

namespace {

/// Variables of one method body that have an instruction definition.  A
/// variable *not* in this set receives values only through its
/// parameter/this binding, which is the cleanliness property every cut
/// relies on.  Handler bindings and call-return bindings count as
/// instruction definitions; the generator and fuzzer emit arbitrary
/// bodies, so nothing here may assume well-behaved shapes.
std::unordered_set<uint32_t> instructionDefs(const Program &Prog,
                                             const MethodInfo &Body) {
  std::unordered_set<uint32_t> Defs;
  for (const AllocInstr &A : Body.Allocs)
    Defs.insert(A.Var.index());
  for (const MoveInstr &M : Body.Moves)
    Defs.insert(M.To.index());
  for (const CastInstr &C : Body.Casts)
    Defs.insert(C.To.index());
  for (const LoadInstr &L : Body.Loads)
    Defs.insert(L.To.index());
  for (const SLoadInstr &L : Body.SLoads)
    Defs.insert(L.To.index());
  for (const HandlerInfo &H : Body.Handlers)
    Defs.insert(H.Var.index());
  for (InvokeId Inv : Body.Invokes) {
    const InvokeInfo &Call = Prog.invoke(Inv);
    if (Call.RetTo.isValid())
      Defs.insert(Call.RetTo.index());
  }
  return Defs;
}

/// The unique formal position of \p V, or UINT32_MAX when \p V is not a
/// formal or appears more than once in the formal list (two bindings would
/// break the one-actual-per-edge coverage argument).
uint32_t uniqueFormalPos(const MethodInfo &Body, VarId V) {
  uint32_t Pos = UINT32_MAX;
  for (uint32_t I = 0; I < Body.Formals.size(); ++I) {
    if (Body.Formals[I] != V)
      continue;
    if (Pos != UINT32_MAX)
      return UINT32_MAX;
    Pos = I;
  }
  return Pos;
}

} // namespace

CutShortcutPlan pt::computeCutShortcutPlan(const Program &Prog,
                                           CutMode Mode) {
  assert(Mode != CutMode::None && "a policy without cuts has no plan");
  CutShortcutPlan Plan;
  Plan.Methods.resize(Prog.numMethods());

  for (size_t MI = 0; MI < Prog.numMethods(); ++MI) {
    const MethodInfo &Body = Prog.method(MethodId(MI));
    CutShortcutPlan::MethodPlan &MP = Plan.Methods[MI];

    std::unordered_set<uint32_t> Defs = instructionDefs(Prog, Body);
    auto IsClean = [&](VarId V) { return !Defs.count(V.index()); };
    // `this` is clean when the dispatch binding is its only definition.
    // Instance methods are reachable only through dispatch (the IR forbids
    // static calls to instance methods), so each context's `this` holds
    // exactly the dispatch receivers — the property the store and
    // ret-load shortcuts encode.
    bool ThisClean = Body.This.isValid() && IsClean(Body.This) &&
                     uniqueFormalPos(Body, Body.This) == UINT32_MAX;

    // Covered stores: `this.f = formal_i` with both sides clean.
    if (ThisClean) {
      for (uint32_t SI = 0; SI < Body.Stores.size(); ++SI) {
        const StoreInstr &S = Body.Stores[SI];
        if (S.Base != Body.This)
          continue;
        uint32_t Pos = uniqueFormalPos(Body, S.From);
        if (Pos == UINT32_MAX || !IsClean(S.From))
          continue;
        MP.StoreCuts.push_back({SI, Pos, S.Fld});
      }
    }

    // Covered returns: every definition of the return variable must map to
    // a shortcut; one uncoverable definition vetoes the whole cut.
    VarId Ret = Body.Return;
    if (!Ret.isValid() || Ret == Body.This)
      continue;
    if (Mode == CutMode::VirtualOnly && Body.IsStatic)
      continue;

    bool Coverable = true;
    std::vector<uint32_t> RetArgs;
    std::vector<HeapId> RetAllocs;
    std::vector<FieldId> RetLoads;

    // Parameter binding as a definition: the return variable *is* a formal.
    for (uint32_t I = 0; Coverable && I < Body.Formals.size(); ++I)
      if (Body.Formals[I] == Ret)
        RetArgs.push_back(I);

    for (const AllocInstr &A : Body.Allocs)
      if (A.Var == Ret)
        RetAllocs.push_back(A.Heap);
    for (const MoveInstr &M : Body.Moves) {
      if (M.To != Ret || M.From == Ret)
        continue; // Self-moves add no values.
      uint32_t Pos = uniqueFormalPos(Body, M.From);
      if (Pos == UINT32_MAX || !IsClean(M.From)) {
        Coverable = false;
        break;
      }
      RetArgs.push_back(Pos);
    }
    for (const LoadInstr &L : Body.Loads) {
      if (L.To != Ret)
        continue;
      if (!ThisClean || L.Base != Body.This) {
        Coverable = false;
        break;
      }
      RetLoads.push_back(L.Fld);
    }
    // Casts are type-filtered, static loads are global, call returns and
    // handler bindings depend on downstream state: none reduce to a plain
    // per-edge shortcut.
    for (const CastInstr &C : Body.Casts)
      if (C.To == Ret)
        Coverable = false;
    for (const SLoadInstr &L : Body.SLoads)
      if (L.To == Ret)
        Coverable = false;
    for (const HandlerInfo &H : Body.Handlers)
      if (H.Var == Ret)
        Coverable = false;
    for (InvokeId Inv : Body.Invokes)
      if (Prog.invoke(Inv).RetTo == Ret)
        Coverable = false;

    if (!Coverable)
      continue;

    auto Dedup = [](auto &V) {
      std::sort(V.begin(), V.end());
      V.erase(std::unique(V.begin(), V.end()), V.end());
    };
    std::sort(RetAllocs.begin(), RetAllocs.end(),
              [](HeapId A, HeapId B) { return A.index() < B.index(); });
    RetAllocs.erase(std::unique(RetAllocs.begin(), RetAllocs.end()),
                    RetAllocs.end());
    std::sort(RetLoads.begin(), RetLoads.end(),
              [](FieldId A, FieldId B) { return A.index() < B.index(); });
    RetLoads.erase(std::unique(RetLoads.begin(), RetLoads.end()),
                   RetLoads.end());
    Dedup(RetArgs);

    MP.RetCut = true;
    MP.RetArgs = std::move(RetArgs);
    MP.RetAllocs = std::move(RetAllocs);
    MP.RetLoads = std::move(RetLoads);
  }
  return Plan;
}
