//===- context/Policy.cpp ---------------------------------------------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//

#include "context/Policy.h"

#include "ir/Program.h"

#include <algorithm>
#include <cassert>

using namespace pt;

ContextPolicy::ContextPolicy(const Program &Prog, const PolicyRow &Row)
    : Prog(Prog), Row(Row) {
  assert(Row.MethodArity <= MaxContextDepth &&
         Row.HeapArity <= MaxContextDepth && "context too deep");
  [[maybe_unused]] auto Reads = [](const SlotRow &Slots, SlotFrom From) {
    return std::any_of(Slots.begin(), Slots.end(), [From](const Slot &S) {
      return S.Src.From == From || (S.IfInvoke && S.Else.From == From);
    });
  };
  assert(!Reads(Row.Record, SlotFrom::Invo) &&
         !Reads(Row.Record, SlotFrom::HCtx) && "RECORD reads heap and ctx");
  assert(!Reads(Row.MergeStatic, SlotFrom::Heap) &&
         !Reads(Row.MergeStatic, SlotFrom::CAHeap) &&
         !Reads(Row.MergeStatic, SlotFrom::HCtx) &&
         "MERGESTATIC reads invo and ctx");
  StaticKeepsCtx = true;
  for (uint8_t I = 0; I < Row.MethodArity; ++I)
    StaticKeepsCtx &= Row.MergeStatic[I] == slots::ctx(I);
  if (Row.Cut != CutMode::None)
    Plan = computeCutShortcutPlan(Prog, Row.Cut);
}

ContextElem ContextPolicy::read(SlotSource S, const Inputs &In) const {
  switch (S.From) {
  case SlotFrom::Star:
    break;
  case SlotFrom::Heap:
    return ContextElem::heap(In.Heap);
  case SlotFrom::CAHeap:
    return ContextElem::type(Prog.allocSiteClass(In.Heap));
  case SlotFrom::Invo:
    return ContextElem::invoke(In.Invo);
  case SlotFrom::Ctx:
    return Ctxs.elem(In.Ctx, S.Index);
  case SlotFrom::HCtx:
    return HCtxs.elem(In.HCtx, S.Index);
  }
  return ContextElem::star();
}

void ContextPolicy::build(const SlotRow &Slots, uint32_t Arity,
                          const Inputs &In, ContextElem *Out) const {
  for (uint32_t I = 0; I < Arity; ++I) {
    const Slot &S = Slots[I];
    Out[I] = read(S.Src, In);
    if (S.IfInvoke && !Out[I].isInvoke())
      Out[I] = read(S.Else, In);
  }
}

HCtxId ContextPolicy::record(HeapId Heap, CtxId Ctx) {
  ContextElem Elems[MaxContextDepth];
  build(Row.Record, Row.HeapArity, {Heap, HCtxId(), InvokeId(), Ctx}, Elems);
  return HCtxs.intern(Elems, Row.HeapArity);
}

CtxId ContextPolicy::merge(HeapId Heap, HCtxId HCtx, InvokeId Invo,
                           CtxId Ctx) {
  ContextElem Elems[MaxContextDepth];
  build(Row.Merge, Row.MethodArity, {Heap, HCtx, Invo, Ctx}, Elems);
  return Ctxs.intern(Elems, Row.MethodArity);
}

CtxId ContextPolicy::mergeStatic(InvokeId Invo, CtxId Ctx) {
  if (StaticKeepsCtx)
    return Ctx;
  ContextElem Elems[MaxContextDepth];
  build(Row.MergeStatic, Row.MethodArity, {HeapId(), HCtxId(), Invo, Ctx},
        Elems);
  return Ctxs.intern(Elems, Row.MethodArity);
}

CtxId ContextPolicy::initialContext() {
  ContextElem Elems[MaxContextDepth];
  return Ctxs.intern(Elems, Row.MethodArity);
}

std::string pt::formatContextElem(ContextElem E, const Program &Prog) {
  switch (E.kind()) {
  case ElemKind::Star:
    return "*";
  case ElemKind::Heap:
    return "H:" + Prog.text(Prog.heap(E.asHeap()).Name);
  case ElemKind::Invoke:
    return "I:" + Prog.text(Prog.invoke(E.asInvoke()).Name);
  case ElemKind::Type:
    return "T:" + Prog.text(Prog.type(E.asType()).Name);
  }
  return "?";
}
