//===- pta/AnalysisResult.h - Points-to analysis output ---------*- C++ -*-===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The output relations of one analysis run (paper Figure 1):
/// VARPOINTSTO, FLDPOINTSTO, CALLGRAPH, and REACHABLE, together with query
/// helpers and canonical exports used by the differential tests.
///
/// Every result also owns its context-insensitive view (\c CiView): per
/// variable the distinct heap sites, per invocation site the distinct
/// callees, and the reachable methods, as sorted CSR ranges.  The solver
/// builds it once when the solve ends, outside \c SolveMs and
/// \c PeakBytes; the Table 1 metrics, the clients, the checkers and the
/// daemon all read it through \c ci() instead of re-projecting the
/// context-sensitive facts.
///
/// An \c AnalysisResult borrows the \c Program and \c ContextPolicy it was
/// produced against; both must outlive it.
///
//===----------------------------------------------------------------------===//

#ifndef HYBRIDPT_PTA_ANALYSISRESULT_H
#define HYBRIDPT_PTA_ANALYSISRESULT_H

#include "context/Policy.h"
#include "support/Ids.h"
#include "support/Telemetry.h"

#include <cstdint>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

namespace pt {

class AnalysisResult;
class Program;

/// Why a run stopped short of its fixpoint (docs/ROBUSTNESS.md).  The
/// paper's dashes are all \c TimeBudget; the graceful-degradation layer
/// reacts to the resource reasons (time, facts, memory) by descending the
/// fallback ladder and passes \c Cancelled through untouched — a user who
/// pressed ^C wants out, not a cheaper analysis.
enum class AbortReason : uint8_t {
  None,         ///< Ran to fixpoint.
  TimeBudget,   ///< SolverOptions::TimeBudgetMs expired.
  FactBudget,   ///< SolverOptions::MaxFacts reached.
  MemoryBudget, ///< SolverOptions::MemoryBudgetBytes exceeded.
  Cancelled,    ///< CancelToken tripped (SIGINT or deadline).
};

/// Stable lower-case name used in traces, JSON, and CLI output.
const char *abortReasonName(AbortReason Reason);

/// One context-sensitive call-graph edge:
/// CALLGRAPH(invo, callerCtx, callee, calleeCtx).
struct CallGraphEdge {
  InvokeId Invo;
  CtxId CallerCtx;
  MethodId Callee;
  CtxId CalleeCtx;
};

/// The context-insensitive projection of VARPOINTSTO, CALLGRAPH and
/// REACHABLE, on which all four Table 1 precision columns are defined: CSR
/// arrays over dense variable and invocation-site ids plus a
/// reachable-method bitmap.  Every range is sorted and duplicate-free.
class CiView {
public:
  CiView() = default;

  /// Projects the raw relations of \p Result.
  explicit CiView(const AnalysisResult &Result);

  /// Heap sites \p V may point to in any context, ascending.
  std::span<const HeapId> pointsTo(VarId V) const {
    return {VarHeaps.data() + VarStart[V.index()],
            VarHeaps.data() + VarStart[V.index() + 1]};
  }

  /// Methods invocation site \p I may dispatch to in any context,
  /// ascending.
  std::span<const MethodId> callTargets(InvokeId I) const {
    return {Callees.data() + InvokeStart[I.index()],
            Callees.data() + InvokeStart[I.index() + 1]};
  }

  /// True when \p M is reachable in at least one context.
  bool isReachable(MethodId M) const { return Reached[M.index()]; }

  /// Every method reachable in at least one context, ascending.
  const std::vector<MethodId> &reachableMethods() const { return ReachList; }

  /// Variables that point to at least one heap site.
  size_t numPointingVars() const { return PointingVars; }

  /// Distinct (variable, heap site) pairs.
  size_t numVarHeapPairs() const { return VarHeaps.size(); }

  /// Distinct (invocation site, callee) pairs: the CI call-graph edges.
  size_t numCallEdges() const { return Callees.size(); }

private:
  std::vector<uint32_t> VarStart; ///< numVars + 1 offsets into VarHeaps.
  std::vector<HeapId> VarHeaps;
  std::vector<uint32_t> InvokeStart; ///< numInvokes + 1 offsets into Callees.
  std::vector<MethodId> Callees;
  std::vector<bool> Reached;
  std::vector<MethodId> ReachList;
  size_t PointingVars = 0;
};

/// The complete result of a points-to analysis run.
class AnalysisResult {
public:
  /// Points-to facts of one (variable, context) pair.  \c Objs holds dense
  /// object ids resolvable via \c objHeap / \c objHCtx.
  struct VarFactsEntry {
    VarId Var;
    CtxId Ctx;
    std::vector<uint32_t> Objs;
  };

  /// Field facts of one (object, field) slot:
  /// FLDPOINTSTO(baseH, baseHCtx, fld, ...).
  struct FieldFactsEntry {
    uint32_t BaseObj;
    FieldId Fld;
    std::vector<uint32_t> Objs;
  };

  /// Facts of one static (global) field slot.
  struct StaticFactsEntry {
    FieldId Fld;
    std::vector<uint32_t> Objs;
  };

  /// Exception objects escaping one (method, context) frame
  /// (METHODTHROWS).
  struct ThrowFactsEntry {
    MethodId Meth;
    CtxId Ctx;
    std::vector<uint32_t> Objs;
  };

  AnalysisResult(const Program &Prog, const ContextPolicy &Policy)
      : Prog(&Prog), Policy(&Policy) {}

  // --- Raw relations (filled by the solver) ---

  std::vector<VarFactsEntry> VarFacts;
  std::vector<FieldFactsEntry> FieldFacts;
  std::vector<StaticFactsEntry> StaticFacts;
  std::vector<ThrowFactsEntry> ThrowFacts;
  std::vector<CallGraphEdge> CallEdges;
  std::vector<std::pair<MethodId, CtxId>> Reachable;

  /// Heap site of dense object id \p Obj.
  HeapId objHeap(uint32_t Obj) const { return ObjHeaps[Obj]; }
  /// Heap context of dense object id \p Obj.
  HCtxId objHCtx(uint32_t Obj) const { return ObjHCtxs[Obj]; }
  size_t numObjects() const { return ObjHeaps.size(); }

  std::vector<HeapId> ObjHeaps;
  std::vector<HCtxId> ObjHCtxs;

  /// True when the run hit its time or fact budget; facts are then a sound
  /// under-approximation of the fixpoint and metrics must not be trusted.
  bool Aborted = false;

  /// Why the run aborted; \c None when it converged.
  AbortReason Reason = AbortReason::None;

  /// True when the abort was staged by the fault-injection plan
  /// (support/FaultPlan.h) rather than by real resource pressure; retry
  /// policies treat injected aborts as transient.
  bool FaultInjected = false;

  /// Wall-clock solve time, filled by the solver.
  double SolveMs = 0.0;

  /// Peak solver node count (interned (var, ctx) pairs plus field, static
  /// and throw slots), filled by the solver.
  size_t SolverNodes = 0;

  /// Bytes held by the solver's persistent containers at harvest time
  /// (points-to sets, intern tables, dedup sets, call graph).  The solver
  /// only grows, so this is also the peak.
  size_t PeakBytes = 0;

  /// Rule-fire and infrastructure counters for the run; all-zero when the
  /// build disables HYBRIDPT_TELEMETRY or the engine does not count.
  telemetry::SolverCounters Counters;

  /// Projects the raw relations into the context-insensitive view; the
  /// solver calls this once the relations are final.
  void buildCiView() { Ci = CiView(*this); }

  // --- Queries ---

  const Program &program() const { return *Prog; }
  const ContextPolicy &policy() const { return *Policy; }

  /// The context-insensitive view of this result.
  const CiView &ci() const { return Ci; }

  /// All heap sites \p V may point to, sorted and deduplicated.
  std::vector<HeapId> pointsTo(VarId V) const {
    auto Heaps = Ci.pointsTo(V);
    return {Heaps.begin(), Heaps.end()};
  }

  /// All methods invocation site \p I may dispatch to, sorted and
  /// deduplicated over all contexts.
  std::vector<MethodId> callTargets(InvokeId I) const {
    auto Targets = Ci.callTargets(I);
    return {Targets.begin(), Targets.end()};
  }

  /// All methods reachable in at least one context, sorted and dedup'd.
  const std::vector<MethodId> &reachableMethods() const {
    return Ci.reachableMethods();
  }

  /// True when cast site \p Site may observe an object that is not a
  /// subtype of the cast target (the may-fail-casts client).
  bool mayFailCast(uint32_t Site) const;

  /// Total number of context-sensitive var-points-to facts — the paper's
  /// platform-independent complexity metric ("sensitive var-points-to").
  size_t numCsVarPointsTo() const;

  /// Total number of field-points-to facts.
  size_t numFieldPointsTo() const;

  /// Total number of static-field-points-to facts.
  size_t numStaticFieldPointsTo() const;

  /// Total number of method-throws facts.
  size_t numThrowFacts() const;

  /// Heap sites of exception objects escaping the program's entry points
  /// uncaught, sorted and deduplicated (the uncaught-exceptions client).
  std::vector<HeapId> uncaughtExceptions() const;

  // --- Context-insensitive field relations (checker clients) ---

  /// CI field edges (base heap, field, heap), sorted and deduplicated —
  /// the store-reachability input of the method-escape checker.
  std::vector<std::tuple<uint32_t, uint32_t, uint32_t>> ciFieldEdges() const;

  /// CI static-field edges (field, heap), sorted and deduplicated.
  std::vector<std::pair<uint32_t, uint32_t>> ciStaticEdges() const;

  // --- Canonical export for differential testing ---
  //
  // Context ids are interning-order dependent, so cross-solver comparison
  // re-encodes each context as its element tuple.  Each exported row is a
  // flat word vector; the full export is sorted.

  /// VARPOINTSTO rows: var, ctx-elems..., heap, hctx-elems....
  std::vector<std::vector<uint32_t>> exportVarPointsTo() const;

  /// CALLGRAPH rows: invo, callerCtx-elems..., callee, calleeCtx-elems....
  std::vector<std::vector<uint32_t>> exportCallGraph() const;

  /// FLDPOINTSTO rows: baseHeap, baseHCtx-elems..., fld, heap, hctx-elems.
  std::vector<std::vector<uint32_t>> exportFieldPointsTo() const;

  /// REACHABLE rows: method, ctx-elems....
  std::vector<std::vector<uint32_t>> exportReachable() const;

  /// STATICFLDPOINTSTO rows: fld, heap, hctx-elems....
  std::vector<std::vector<uint32_t>> exportStaticFieldPointsTo() const;

  /// METHODTHROWS rows: method, ctx-elems..., heap, hctx-elems....
  std::vector<std::vector<uint32_t>> exportThrowPointsTo() const;

private:
  const Program *Prog;
  const ContextPolicy *Policy;
  CiView Ci;
};

} // namespace pt

#endif // HYBRIDPT_PTA_ANALYSISRESULT_H
