//===- pta/Metrics.cpp ---------------------------------------------------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//

#include "pta/Metrics.h"

#include "ir/Program.h"
#include "pta/AnalysisResult.h"
#include "support/Hashing.h"
#include "support/TableWriter.h"

#include <algorithm>
#include <vector>

using namespace pt;

std::string pt::metricsCsvHeader(bool Taint, bool WithTime) {
  std::string Out = "policy,avg_objs_per_var,cg_edges,poly_vcalls,"
                    "may_fail_casts,reachable_methods";
  if (WithTime)
    Out += ",time_s";
  Out += ",cs_vpt";
  if (Taint)
    Out += ",tainted_sinks";
  return Out;
}

std::string pt::metricsCsvRow(const PrecisionMetrics &M,
                              const std::string &Label, bool Taint,
                              bool WithTime) {
  std::string Out = Label;
  Out += ',' + formatFixed(M.AvgPointsTo, 2);
  Out += ',' + std::to_string(M.CallGraphEdges);
  Out += ',' + std::to_string(M.PolyVCalls);
  Out += ',' + std::to_string(M.MayFailCasts);
  Out += ',' + std::to_string(M.ReachableMethods);
  if (WithTime)
    Out += ',' + formatFixed(M.SolveMs / 1000.0, 3);
  Out += ',' + std::to_string(M.CsVarPointsTo);
  if (Taint)
    Out += ',' + std::to_string(M.TaintedSinks);
  return Out;
}

PrecisionMetrics pt::computeMetrics(const AnalysisResult &Result) {
  const Program &Prog = Result.program();
  PrecisionMetrics M;
  M.Aborted = Result.Aborted;
  M.Reason = Result.Reason;
  M.FaultInjected = Result.FaultInjected;
  M.SolveMs = Result.SolveMs;
  M.PeakNodes = Result.SolverNodes;
  M.PeakBytes = Result.PeakBytes;
  M.Counters = Result.Counters;
  M.CsVarPointsTo = Result.numCsVarPointsTo();
  M.FieldPointsTo = Result.numFieldPointsTo();
  M.StaticFieldPointsTo = Result.numStaticFieldPointsTo();
  M.ThrowFacts = Result.numThrowFacts();
  M.UncaughtExceptionSites = Result.uncaughtExceptions().size();
  M.NumContexts = Result.policy().ctxTable().size();
  M.NumHContexts = Result.policy().hctxTable().size();
  M.NumObjects = Result.numObjects();

  // Context-insensitive var-points-to projection: per variable, its
  // distinct heap sites, as one CSR array.  A counting sort groups the
  // context-sensitive facts by variable; a per-heap stamp (the variable
  // index, so it never wraps) drops repeats across contexts.
  const size_t NumVars = Prog.numVars();
  std::vector<uint32_t> FactStart(NumVars + 1, 0);
  for (const auto &E : Result.VarFacts)
    ++FactStart[E.Var.index() + 1];
  for (size_t V = 0; V < NumVars; ++V)
    FactStart[V + 1] += FactStart[V];
  std::vector<uint32_t> FactOrder(Result.VarFacts.size());
  {
    std::vector<uint32_t> Cursor(FactStart.begin(), FactStart.end() - 1);
    for (uint32_t I = 0; I < Result.VarFacts.size(); ++I)
      FactOrder[Cursor[Result.VarFacts[I].Var.index()]++] = I;
  }
  std::vector<uint32_t> HeapStart(NumVars + 1, 0);
  std::vector<uint32_t> Heaps;
  std::vector<uint32_t> Stamp(Prog.numHeaps(), UINT32_MAX);
  size_t PointingVars = 0;
  for (uint32_t V = 0; V < NumVars; ++V) {
    HeapStart[V] = static_cast<uint32_t>(Heaps.size());
    if (FactStart[V] != FactStart[V + 1])
      ++PointingVars;
    for (uint32_t F = FactStart[V]; F < FactStart[V + 1]; ++F) {
      for (uint32_t Obj : Result.VarFacts[FactOrder[F]].Objs) {
        uint32_t Heap = Result.objHeap(Obj).index();
        if (Stamp[Heap] != V) {
          Stamp[Heap] = V;
          Heaps.push_back(Heap);
        }
      }
    }
  }
  HeapStart[NumVars] = static_cast<uint32_t>(Heaps.size());
  auto heapsOf = [&](VarId V) {
    return std::make_pair(Heaps.data() + HeapStart[V.index()],
                          Heaps.data() + HeapStart[V.index() + 1]);
  };

  // AvgPointsTo averages over variables with at least one fact.
  M.AvgPointsTo = PointingVars == 0
                      ? 0.0
                      : static_cast<double>(Heaps.size()) /
                            static_cast<double>(PointingVars);

  // Context-insensitive call graph: distinct (invo, callee) pairs, and the
  // per-site target counts for the devirtualization client.
  std::vector<uint64_t> CiEdges;
  CiEdges.reserve(Result.CallEdges.size());
  for (const CallGraphEdge &E : Result.CallEdges)
    CiEdges.push_back(packPair(E.Invo.index(), E.Callee.index()));
  std::sort(CiEdges.begin(), CiEdges.end());
  CiEdges.erase(std::unique(CiEdges.begin(), CiEdges.end()), CiEdges.end());
  M.CallGraphEdges = CiEdges.size();
  std::vector<uint32_t> TargetsPerSite(Prog.numInvokes(), 0);
  for (uint64_t Edge : CiEdges)
    if (!Prog.invoke(InvokeId(unpackHi(Edge))).IsStatic)
      ++TargetsPerSite[unpackHi(Edge)];

  // Reachable methods (context-insensitive projection).
  std::vector<bool> Reached(Prog.numMethods(), false);
  for (const auto &[Method, Ctx] : Result.Reachable) {
    if (!Reached[Method.index()]) {
      Reached[Method.index()] = true;
      ++M.ReachableMethods;
    }
  }

  for (uint32_t MethodIdx = 0; MethodIdx < Reached.size(); ++MethodIdx) {
    if (!Reached[MethodIdx])
      continue;
    const MethodInfo &Body = Prog.method(MethodId(MethodIdx));
    // Poly v-calls: reachable virtual sites whose target set has >= 2
    // methods.  Sites in reachable methods with zero targets are dead
    // code to the analysis and counted as reachable sites only.
    for (InvokeId Inv : Body.Invokes) {
      if (Prog.invoke(Inv).IsStatic)
        continue;
      ++M.ReachableVCalls;
      if (TargetsPerSite[Inv.index()] >= 2)
        ++M.PolyVCalls;
    }
    // May-fail casts over casts in reachable methods.  A cast may fail
    // when the *source* variable may point to an object whose type is not
    // a subtype of the cast target (Doop's PotentiallyFailingCast client).
    for (const CastInstr &C : Body.Casts) {
      ++M.ReachableCasts;
      auto [Begin, End] = heapsOf(C.From);
      if (std::any_of(Begin, End, [&](uint32_t HeapIdx) {
            return !Prog.isSubtype(Prog.heap(HeapId(HeapIdx)).Type,
                                   C.Target);
          }))
        ++M.MayFailCasts;
    }
  }

  // Tainted sinks: distinct (sink site, argument, tag) triples where a
  // reachable sink argument may point to a taint-tagged object.  This is
  // the count behind taint::findTaintedSinks / checker HPT007; programs
  // without taint instrumentation carry no sinks and report 0.
  std::vector<uint32_t> Tags;
  for (const Program::TaintSink &S : Prog.taintSinks()) {
    const InvokeInfo &Inv = Prog.invoke(S.Site);
    if (!Reached[Inv.InMethod.index()] || S.ArgIdx >= Inv.Actuals.size())
      continue;
    Tags.clear();
    auto [Begin, End] = heapsOf(Inv.Actuals[S.ArgIdx]);
    for (const uint32_t *H = Begin; H != End; ++H)
      if (uint32_t Tag = Prog.heap(HeapId(*H)).TaintTag)
        Tags.push_back(Tag);
    std::sort(Tags.begin(), Tags.end());
    M.TaintedSinks += std::unique(Tags.begin(), Tags.end()) - Tags.begin();
  }

  return M;
}
