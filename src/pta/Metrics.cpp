//===- pta/Metrics.cpp ---------------------------------------------------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//

#include "pta/Metrics.h"

#include "pta/AnalysisResult.h"
#include "pta/Clients.h"
#include "support/TableWriter.h"

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

  // Every precision column reads the context-insensitive view.
  const CiView &Ci = Result.ci();
  // AvgPointsTo averages over variables with at least one fact.
  M.AvgPointsTo = Ci.numPointingVars() == 0
                      ? 0.0
                      : static_cast<double>(Ci.numVarHeapPairs()) /
                            static_cast<double>(Ci.numPointingVars());
  M.CallGraphEdges = Ci.numCallEdges();
  M.ReachableMethods = Ci.reachableMethods().size();

  // Poly v-calls and may-fail casts are the two clients' verdicts over
  // the reachable sites (Clients.h); a reachable virtual site with no
  // target is dead code to the analysis and counts as reachable only.
  for (const DevirtSite &S : devirtualizeCalls(Result)) {
    ++M.ReachableVCalls;
    M.PolyVCalls += S.Verdict == DevirtVerdict::Polymorphic;
  }
  for (const CastCheck &C : checkCasts(Result)) {
    ++M.ReachableCasts;
    M.MayFailCasts += C.Verdict == CastVerdict::MayFail;
  }

  // Distinct (sink site, argument, tag) triples where a reachable sink
  // argument may point to a taint-tagged object; programs without taint
  // instrumentation carry no sinks and report 0.
  M.TaintedSinks = findTaintedSinks(Result).size();

  return M;
}
