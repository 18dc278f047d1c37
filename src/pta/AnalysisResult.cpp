//===- pta/AnalysisResult.cpp -------------------------------------------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//

#include "pta/AnalysisResult.h"

#include "ir/Program.h"

#include <algorithm>

using namespace pt;

const char *pt::abortReasonName(AbortReason Reason) {
  switch (Reason) {
  case AbortReason::None:
    return "none";
  case AbortReason::TimeBudget:
    return "time_budget";
  case AbortReason::FactBudget:
    return "fact_budget";
  case AbortReason::MemoryBudget:
    return "memory_budget";
  case AbortReason::Cancelled:
    return "cancelled";
  }
  return "none";
}

bool AnalysisResult::mayFailCast(uint32_t Site) const {
  const CastSite &CS = Prog->castSite(Site);
  for (HeapId H : Ci.pointsTo(CS.From))
    if (!Prog->isSubtype(Prog->heap(H).Type, CS.Target))
      return true;
  return false;
}

namespace {

/// Groups \p Items by key into CSR form: \p Start gets NumKeys + 1 offsets
/// and \p Vals each key's distinct values, ascending.  A counting sort
/// orders the items by key; a per-value stamp (the key index, so it never
/// wraps) drops values repeated across a key's items.  \p ForEachValue
/// calls its sink once per (possibly repeated) value index of an item.
template <typename ValT, typename ItemT, typename KeyFn, typename ValuesFn>
void groupDistinct(const std::vector<ItemT> &Items, size_t NumKeys,
                   size_t NumVals, KeyFn KeyOf, ValuesFn ForEachValue,
                   std::vector<uint32_t> &Start, std::vector<ValT> &Vals) {
  std::vector<uint32_t> ItemStart(NumKeys + 1, 0);
  for (const ItemT &Item : Items)
    ++ItemStart[KeyOf(Item) + 1];
  for (size_t K = 0; K < NumKeys; ++K)
    ItemStart[K + 1] += ItemStart[K];
  std::vector<uint32_t> Order(Items.size());
  {
    std::vector<uint32_t> Cursor(ItemStart.begin(), ItemStart.end() - 1);
    for (uint32_t I = 0; I < Items.size(); ++I)
      Order[Cursor[KeyOf(Items[I])]++] = I;
  }

  Start.assign(NumKeys + 1, 0);
  std::vector<uint32_t> Stamp(NumVals, UINT32_MAX);
  for (uint32_t K = 0; K < NumKeys; ++K) {
    Start[K] = static_cast<uint32_t>(Vals.size());
    for (uint32_t F = ItemStart[K]; F < ItemStart[K + 1]; ++F)
      ForEachValue(Items[Order[F]], [&](uint32_t V) {
        if (Stamp[V] != K) {
          Stamp[V] = K;
          Vals.push_back(ValT(V));
        }
      });
    std::sort(Vals.begin() + Start[K], Vals.end());
  }
  Start[NumKeys] = static_cast<uint32_t>(Vals.size());
}

} // namespace

CiView::CiView(const AnalysisResult &Result) {
  const Program &Prog = Result.program();

  groupDistinct(
      Result.VarFacts, Prog.numVars(), Prog.numHeaps(),
      [](const AnalysisResult::VarFactsEntry &E) { return E.Var.index(); },
      [&Result](const AnalysisResult::VarFactsEntry &E, auto Sink) {
        for (uint32_t Obj : E.Objs)
          Sink(Result.objHeap(Obj).index());
      },
      VarStart, VarHeaps);
  for (size_t V = 0; V < Prog.numVars(); ++V)
    PointingVars += VarStart[V] != VarStart[V + 1];

  groupDistinct(
      Result.CallEdges, Prog.numInvokes(), Prog.numMethods(),
      [](const CallGraphEdge &E) { return E.Invo.index(); },
      [](const CallGraphEdge &E, auto Sink) { Sink(E.Callee.index()); },
      InvokeStart, Callees);

  Reached.assign(Prog.numMethods(), false);
  for (const auto &[M, Ctx] : Result.Reachable)
    Reached[M.index()] = true;
  for (uint32_t M = 0; M < Reached.size(); ++M)
    if (Reached[M])
      ReachList.push_back(MethodId(M));
}

size_t AnalysisResult::numCsVarPointsTo() const {
  size_t N = 0;
  for (const VarFactsEntry &E : VarFacts)
    N += E.Objs.size();
  return N;
}

size_t AnalysisResult::numFieldPointsTo() const {
  size_t N = 0;
  for (const FieldFactsEntry &E : FieldFacts)
    N += E.Objs.size();
  return N;
}

size_t AnalysisResult::numStaticFieldPointsTo() const {
  size_t N = 0;
  for (const StaticFactsEntry &E : StaticFacts)
    N += E.Objs.size();
  return N;
}

size_t AnalysisResult::numThrowFacts() const {
  size_t N = 0;
  for (const ThrowFactsEntry &E : ThrowFacts)
    N += E.Objs.size();
  return N;
}

std::vector<HeapId> AnalysisResult::uncaughtExceptions() const {
  std::vector<HeapId> Out;
  const auto &Entries = Prog->entryPoints();
  for (const ThrowFactsEntry &E : ThrowFacts) {
    bool IsEntry =
        std::find(Entries.begin(), Entries.end(), E.Meth) != Entries.end();
    if (!IsEntry)
      continue;
    for (uint32_t Obj : E.Objs)
      Out.push_back(objHeap(Obj));
  }
  std::sort(Out.begin(), Out.end());
  Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
  return Out;
}

std::vector<std::tuple<uint32_t, uint32_t, uint32_t>>
AnalysisResult::ciFieldEdges() const {
  std::vector<std::tuple<uint32_t, uint32_t, uint32_t>> Out;
  for (const FieldFactsEntry &E : FieldFacts)
    for (uint32_t Obj : E.Objs)
      Out.emplace_back(objHeap(E.BaseObj).index(), E.Fld.index(),
                       objHeap(Obj).index());
  std::sort(Out.begin(), Out.end());
  Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
  return Out;
}

std::vector<std::pair<uint32_t, uint32_t>>
AnalysisResult::ciStaticEdges() const {
  std::vector<std::pair<uint32_t, uint32_t>> Out;
  for (const StaticFactsEntry &E : StaticFacts)
    for (uint32_t Obj : E.Objs)
      Out.emplace_back(E.Fld.index(), objHeap(Obj).index());
  std::sort(Out.begin(), Out.end());
  Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
  return Out;
}

namespace {

/// Appends the canonical element tuple of a context to \p Row.
template <typename IdT>
void appendCtx(std::vector<uint32_t> &Row, const ContextTable<IdT> &Table,
               IdT Id) {
  appendCanonicalContext(Table, Id, Row);
}

void sortRows(std::vector<std::vector<uint32_t>> &Rows) {
  std::sort(Rows.begin(), Rows.end());
  Rows.erase(std::unique(Rows.begin(), Rows.end()), Rows.end());
}

} // namespace

std::vector<std::vector<uint32_t>> AnalysisResult::exportVarPointsTo() const {
  std::vector<std::vector<uint32_t>> Rows;
  const auto &Ctxs = Policy->ctxTable();
  const auto &HCtxs = Policy->hctxTable();
  for (const VarFactsEntry &E : VarFacts) {
    for (uint32_t Obj : E.Objs) {
      std::vector<uint32_t> Row;
      Row.push_back(E.Var.index());
      appendCtx(Row, Ctxs, E.Ctx);
      Row.push_back(objHeap(Obj).index());
      appendCtx(Row, HCtxs, objHCtx(Obj));
      Rows.push_back(std::move(Row));
    }
  }
  sortRows(Rows);
  return Rows;
}

std::vector<std::vector<uint32_t>> AnalysisResult::exportCallGraph() const {
  std::vector<std::vector<uint32_t>> Rows;
  const auto &Ctxs = Policy->ctxTable();
  for (const CallGraphEdge &E : CallEdges) {
    std::vector<uint32_t> Row;
    Row.push_back(E.Invo.index());
    appendCtx(Row, Ctxs, E.CallerCtx);
    Row.push_back(E.Callee.index());
    appendCtx(Row, Ctxs, E.CalleeCtx);
    Rows.push_back(std::move(Row));
  }
  sortRows(Rows);
  return Rows;
}

std::vector<std::vector<uint32_t>>
AnalysisResult::exportFieldPointsTo() const {
  std::vector<std::vector<uint32_t>> Rows;
  const auto &HCtxs = Policy->hctxTable();
  for (const FieldFactsEntry &E : FieldFacts) {
    for (uint32_t Obj : E.Objs) {
      std::vector<uint32_t> Row;
      Row.push_back(objHeap(E.BaseObj).index());
      appendCtx(Row, HCtxs, objHCtx(E.BaseObj));
      Row.push_back(E.Fld.index());
      Row.push_back(objHeap(Obj).index());
      appendCtx(Row, HCtxs, objHCtx(Obj));
      Rows.push_back(std::move(Row));
    }
  }
  sortRows(Rows);
  return Rows;
}

std::vector<std::vector<uint32_t>>
AnalysisResult::exportStaticFieldPointsTo() const {
  std::vector<std::vector<uint32_t>> Rows;
  const auto &HCtxs = Policy->hctxTable();
  for (const StaticFactsEntry &E : StaticFacts) {
    for (uint32_t Obj : E.Objs) {
      std::vector<uint32_t> Row;
      Row.push_back(E.Fld.index());
      Row.push_back(objHeap(Obj).index());
      appendCtx(Row, HCtxs, objHCtx(Obj));
      Rows.push_back(std::move(Row));
    }
  }
  sortRows(Rows);
  return Rows;
}

std::vector<std::vector<uint32_t>>
AnalysisResult::exportThrowPointsTo() const {
  std::vector<std::vector<uint32_t>> Rows;
  const auto &Ctxs = Policy->ctxTable();
  const auto &HCtxs = Policy->hctxTable();
  for (const ThrowFactsEntry &E : ThrowFacts) {
    for (uint32_t Obj : E.Objs) {
      std::vector<uint32_t> Row;
      Row.push_back(E.Meth.index());
      appendCtx(Row, Ctxs, E.Ctx);
      Row.push_back(objHeap(Obj).index());
      appendCtx(Row, HCtxs, objHCtx(Obj));
      Rows.push_back(std::move(Row));
    }
  }
  sortRows(Rows);
  return Rows;
}

std::vector<std::vector<uint32_t>> AnalysisResult::exportReachable() const {
  std::vector<std::vector<uint32_t>> Rows;
  const auto &Ctxs = Policy->ctxTable();
  for (const auto &[M, Ctx] : Reachable) {
    std::vector<uint32_t> Row;
    Row.push_back(M.index());
    appendCtx(Row, Ctxs, Ctx);
    Rows.push_back(std::move(Row));
  }
  sortRows(Rows);
  return Rows;
}
