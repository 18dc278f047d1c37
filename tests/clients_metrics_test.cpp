//===- tests/clients_metrics_test.cpp - Clients, metrics, explain ---------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//

#include "context/Policies.h"
#include "context/PolicyRegistry.h"
#include "ir/Program.h"
#include "ir/ProgramBuilder.h"
#include "irtext/TextFormat.h"
#include "pta/AnalysisResult.h"
#include "pta/Clients.h"
#include "pta/DotExport.h"
#include "pta/Explain.h"
#include "pta/FactWriter.h"
#include "pta/Metrics.h"
#include "pta/Solver.h"
#include "pta/Stats.h"
#include "taint/Taint.h"
#include "taint/TaintSpec.h"
#include "workloads/Profiles.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

namespace {

using namespace pt;

AnalysisResult analyze(const Program &P, ContextPolicy &Policy) {
  Solver S(P, Policy);
  return S.run();
}

// --- Static fields ---

TEST(StaticFields, GlobalSlotRoundTrip) {
  ProgramBuilder B;
  TypeId Object = B.addType("Object");
  TypeId A = B.addType("A", Object);
  FieldId G = B.addStaticField(Object, "global");
  MethodId Main = B.addMethod(Object, "main", 0, true);
  VarId X = B.addLocal(Main, "x");
  VarId Y = B.addLocal(Main, "y");
  HeapId H = B.addAlloc(Main, X, A);
  B.addSStore(Main, G, X);
  B.addSLoad(Main, Y, G);
  B.addEntryPoint(Main);
  auto P = B.build();

  InsensPolicy Policy(*P);
  AnalysisResult R = analyze(*P, Policy);
  EXPECT_EQ(R.pointsTo(Y), std::vector<HeapId>{H});
  EXPECT_EQ(R.numStaticFieldPointsTo(), 1u);
}

TEST(StaticFields, SlotsAreContextFree) {
  // Two methods in different contexts write different objects: readers in
  // *any* context observe both (static state is global under every
  // policy — the paper's reason to exclude them from the context story).
  ProgramBuilder B;
  TypeId Object = B.addType("Object");
  TypeId A = B.addType("A", Object);
  TypeId C = B.addType("C", Object);
  FieldId G = B.addStaticField(Object, "global");
  SigId SigPut = B.getSig("put", 0);

  MethodId Put = B.addMethod(C, "put", 0, false);
  VarId PV = B.addLocal(Put, "pv");
  B.addAlloc(Put, PV, A);
  B.addSStore(Put, G, PV);

  MethodId Main = B.addMethod(Object, "main", 0, true);
  VarId R1 = B.addLocal(Main, "r1");
  VarId R2 = B.addLocal(Main, "r2");
  VarId Out = B.addLocal(Main, "out");
  B.addAlloc(Main, R1, C);
  B.addAlloc(Main, R2, C);
  B.addVCall(Main, R1, SigPut, {});
  B.addVCall(Main, R2, SigPut, {});
  B.addSLoad(Main, Out, G);
  B.addEntryPoint(Main);
  auto P = B.build();

  // Even 2obj+H sees one merged slot (single alloc site in put, but the
  // two receiver contexts produce two heap contexts — both land in the
  // global slot).
  TwoObjHPolicy Policy(*P);
  AnalysisResult R = analyze(*P, Policy);
  auto Pts = R.pointsTo(Out);
  EXPECT_EQ(Pts.size(), 1u); // one alloc site...
  size_t Objs = 0;
  for (const auto &E : R.StaticFacts)
    Objs += E.Objs.size();
  EXPECT_EQ(Objs, 2u); // ...but two (heap, hctx) objects in the slot
}

TEST(StaticFields, UnwrittenSlotReadsEmpty) {
  ProgramBuilder B;
  TypeId Object = B.addType("Object");
  FieldId G = B.addStaticField(Object, "never");
  MethodId Main = B.addMethod(Object, "main", 0, true);
  VarId Y = B.addLocal(Main, "y");
  B.addSLoad(Main, Y, G);
  B.addEntryPoint(Main);
  auto P = B.build();
  InsensPolicy Policy(*P);
  AnalysisResult R = analyze(*P, Policy);
  EXPECT_TRUE(R.pointsTo(Y).empty());
}

// --- Metrics edge cases ---

TEST(Metrics, EmptyProgram) {
  ProgramBuilder B;
  TypeId Object = B.addType("Object");
  MethodId Main = B.addMethod(Object, "main", 0, true);
  B.addEntryPoint(Main);
  auto P = B.build();
  InsensPolicy Policy(*P);
  PrecisionMetrics M = computeMetrics(analyze(*P, Policy));
  EXPECT_EQ(M.AvgPointsTo, 0.0);
  EXPECT_EQ(M.CallGraphEdges, 0u);
  EXPECT_EQ(M.ReachableMethods, 1u);
  EXPECT_EQ(M.MayFailCasts, 0u);
  EXPECT_EQ(M.CsVarPointsTo, 0u);
}

TEST(Metrics, CountsOnlyReachableCastsAndCalls) {
  ProgramBuilder B;
  TypeId Object = B.addType("Object");
  TypeId A = B.addType("A", Object);
  // Dead method full of casts and calls.
  MethodId Dead = B.addMethod(Object, "dead", 0, true);
  VarId DX = B.addLocal(Dead, "dx");
  B.addCast(Dead, DX, DX, A);
  B.addVCall(Dead, DX, B.getSig("m", 0), {});
  MethodId Main = B.addMethod(Object, "main", 0, true);
  B.addEntryPoint(Main);
  auto P = B.build();
  InsensPolicy Policy(*P);
  PrecisionMetrics M = computeMetrics(analyze(*P, Policy));
  EXPECT_EQ(M.ReachableCasts, 0u);
  EXPECT_EQ(M.ReachableVCalls, 0u);
}

TEST(Metrics, AvgPointsToCountsDistinctHeapSites) {
  ProgramBuilder B;
  TypeId Object = B.addType("Object");
  TypeId A = B.addType("A", Object);
  MethodId Main = B.addMethod(Object, "main", 0, true);
  VarId X = B.addLocal(Main, "x");
  VarId Y = B.addLocal(Main, "y");
  B.addAlloc(Main, X, A);
  B.addAlloc(Main, X, A);
  B.addAlloc(Main, Y, A);
  B.addEntryPoint(Main);
  auto P = B.build();
  InsensPolicy Policy(*P);
  PrecisionMetrics M = computeMetrics(analyze(*P, Policy));
  // x -> 2 sites, y -> 1 site; average over pointing vars = 1.5.
  EXPECT_DOUBLE_EQ(M.AvgPointsTo, 1.5);
}

// --- Explain ---

TEST(Explain, DeltaOnIdenticalRunsIsEmpty) {
  Benchmark Bench = buildBenchmark("luindex");
  auto P1 = createPolicy("1obj", *Bench.Prog);
  auto P2 = createPolicy("1obj", *Bench.Prog);
  AnalysisResult A = analyze(*Bench.Prog, *P1);
  AnalysisResult B2 = analyze(*Bench.Prog, *P2);
  AnalysisDelta D = diffResults(A, B2);
  EXPECT_TRUE(D.CastsFixed.empty());
  EXPECT_TRUE(D.CallsRefined.empty());
  EXPECT_EQ(D.VarPointsToPairsRemoved, 0u);
  EXPECT_EQ(D.CallEdgesRemoved, 0u);
  EXPECT_EQ(D.MethodsRemoved, 0u);
}

TEST(Explain, RefinementProducesConsistentDelta) {
  Benchmark Bench = buildBenchmark("luindex");
  auto Coarse = createPolicy("1obj", *Bench.Prog);
  auto Refined = createPolicy("SB-1obj", *Bench.Prog);
  AnalysisResult CR = analyze(*Bench.Prog, *Coarse);
  AnalysisResult RR = analyze(*Bench.Prog, *Refined);
  AnalysisDelta D = diffResults(CR, RR);

  PrecisionMetrics MC = computeMetrics(CR);
  PrecisionMetrics MR = computeMetrics(RR);
  // Fixed + still-failing = coarse may-fail count (SB refines 1obj, so no
  // cast can get *worse*).
  EXPECT_EQ(D.CastsFixed.size() + D.CastsStillFailing.size(),
            MC.MayFailCasts);
  EXPECT_EQ(D.CastsStillFailing.size(), MR.MayFailCasts);
  // Every fixed cast carries evidence.
  for (const CastFix &F : D.CastsFixed)
    EXPECT_FALSE(F.RemovedOffenders.empty());
  // Spurious pair count matches the metric direction.
  EXPECT_GT(D.VarPointsToPairsRemoved, 0u);

  std::string Report = formatDelta(D, *Bench.Prog, 3);
  EXPECT_NE(Report.find("precision delta"), std::string::npos);
  EXPECT_NE(Report.find("fixed:"), std::string::npos);
}

// --- Clients on aborted runs (graceful behaviour) ---

TEST(Clients, WorkOnAbortedResults) {
  Benchmark Bench = buildBenchmark("luindex");
  auto Policy = createPolicy("2obj+H", *Bench.Prog);
  SolverOptions Opts;
  Opts.MaxFacts = 500;
  Solver S(*Bench.Prog, *Policy, Opts);
  AnalysisResult R = S.run();
  ASSERT_TRUE(R.Aborted);
  // Reports still compute (on the partial under-approximation).
  auto Sites = devirtualizeCalls(R);
  auto Checks = checkCasts(R);
  EXPECT_FALSE(Sites.empty() && Checks.empty());
}

// --- Deeper-context policies end to end ---

TEST(DeeperContexts, ThreeObjRefinesTwoObj) {
  Benchmark Bench = buildBenchmark("luindex");
  auto P2 = createPolicy("2obj+H", *Bench.Prog);
  auto P3 = createPolicy("3obj+2H", *Bench.Prog);
  PrecisionMetrics M2 = computeMetrics(analyze(*Bench.Prog, *P2));
  PrecisionMetrics M3 = computeMetrics(analyze(*Bench.Prog, *P3));
  EXPECT_LE(M3.MayFailCasts, M2.MayFailCasts);
  EXPECT_LE(M3.PolyVCalls, M2.PolyVCalls);
  EXPECT_LE(M3.CallGraphEdges, M2.CallGraphEdges);
}

TEST(DeeperContexts, TwoCallRefinesOneCall) {
  Benchmark Bench = buildBenchmark("luindex");
  auto P1 = createPolicy("1call+H", *Bench.Prog);
  auto P2 = createPolicy("2call+H", *Bench.Prog);
  PrecisionMetrics M1 = computeMetrics(analyze(*Bench.Prog, *P1));
  PrecisionMetrics M2 = computeMetrics(analyze(*Bench.Prog, *P2));
  EXPECT_LE(M2.MayFailCasts, M1.MayFailCasts);
  EXPECT_LE(M2.CallGraphEdges, M1.CallGraphEdges);
}

// --- DOT export ---

TEST(DotExport, CallGraphIsWellFormedDot) {
  Benchmark Bench = buildBenchmark("luindex");
  auto Policy = createPolicy("insens", *Bench.Prog);
  Solver S(*Bench.Prog, *Policy);
  AnalysisResult R = S.run();
  std::string Dot = callGraphDot(R);
  EXPECT_EQ(Dot.find("digraph callgraph {"), 0u);
  EXPECT_EQ(Dot.rfind("}\n"), Dot.size() - 2);
  // Contains the entry point and at least one edge.
  EXPECT_NE(Dot.find("App.main"), std::string::npos);
  EXPECT_NE(Dot.find(" -> "), std::string::npos);
  // Clustered by class.
  EXPECT_NE(Dot.find("subgraph cluster_"), std::string::npos);
}

TEST(DotExport, HubLimitDropsHighDegreeNodes) {
  Benchmark Bench = buildBenchmark("luindex");
  auto Policy = createPolicy("insens", *Bench.Prog);
  Solver S(*Bench.Prog, *Policy);
  AnalysisResult R = S.run();
  CallGraphDotOptions Opts;
  Opts.HubLimit = 3;
  std::string Filtered = callGraphDot(R, Opts);
  std::string Full = callGraphDot(R);
  EXPECT_LT(Filtered.size(), Full.size());
}

TEST(DotExport, PointsToNeighbourhoodShowsFocusVars) {
  ProgramBuilder B;
  TypeId Object = B.addType("Object");
  TypeId A = B.addType("A", Object);
  FieldId F = B.addField(A, "link");
  MethodId Main = B.addMethod(Object, "main", 0, true);
  VarId X = B.addLocal(Main, "xvar");
  VarId Y = B.addLocal(Main, "yvar");
  B.addAlloc(Main, X, A);
  B.addAlloc(Main, Y, A);
  B.addStore(Main, X, F, Y);
  B.addEntryPoint(Main);
  auto P = B.build();
  InsensPolicy Policy(*P);
  Solver S(*P, Policy);
  AnalysisResult R = S.run();
  std::string Dot = pointsToDot(R, Main);
  EXPECT_NE(Dot.find("xvar"), std::string::npos);
  EXPECT_NE(Dot.find("yvar"), std::string::npos);
  EXPECT_NE(Dot.find("style=dashed"), std::string::npos); // field edge
  EXPECT_NE(Dot.find("label=\"link\""), std::string::npos);
}

// --- Fact writer ---

TEST(FactWriter, StreamsMatchFactCounts) {
  Benchmark Bench = buildBenchmark("luindex");
  auto Policy = createPolicy("1obj", *Bench.Prog);
  Solver S(*Bench.Prog, *Policy);
  AnalysisResult R = S.run();

  auto CountLines = [](const std::string &Text) {
    size_t N = 0;
    for (char C : Text)
      N += C == '\n';
    return N;
  };
  std::ostringstream OS;
  writeVarPointsTo(R, OS);
  EXPECT_EQ(CountLines(OS.str()), R.numCsVarPointsTo());
  OS.str("");
  writeCallGraph(R, OS);
  EXPECT_EQ(CountLines(OS.str()), R.CallEdges.size());
  OS.str("");
  writeFieldPointsTo(R, OS);
  EXPECT_EQ(CountLines(OS.str()), R.numFieldPointsTo());
  OS.str("");
  writeMethodThrows(R, OS);
  EXPECT_EQ(CountLines(OS.str()), R.numThrowFacts());
  OS.str("");
  writeReachable(R, OS);
  EXPECT_EQ(CountLines(OS.str()), R.Reachable.size());
}

TEST(FactWriter, WritesAllFilesToDirectory) {
  Benchmark Bench = buildBenchmark("luindex");
  auto Policy = createPolicy("insens", *Bench.Prog);
  Solver S(*Bench.Prog, *Policy);
  AnalysisResult R = S.run();

  auto Dir = std::filesystem::temp_directory_path() / "hybridpt_facts_test";
  std::filesystem::remove_all(Dir);
  std::string Error;
  auto Files = writeFacts(R, Dir.string(), Error);
  EXPECT_EQ(Files.size(), 6u) << Error;
  for (const std::string &F : Files) {
    EXPECT_TRUE(std::filesystem::exists(F)) << F;
  }
  std::filesystem::remove_all(Dir);
}

// --- Stats ---

TEST(Stats, HistogramCoversEveryPointingVariable) {
  Benchmark Bench = buildBenchmark("luindex");
  auto Policy = createPolicy("1obj", *Bench.Prog);
  Solver S(*Bench.Prog, *Policy);
  AnalysisResult R = S.run();
  ContextStats St = computeStats(R);

  size_t HistTotal = 0;
  for (size_t N : St.PointsToSizeHistogram)
    HistTotal += N;
  // Count pointing variables directly.
  std::set<uint32_t> Pointing;
  for (const auto &E : R.VarFacts)
    if (!E.Objs.empty())
      Pointing.insert(E.Var.index());
  EXPECT_EQ(HistTotal, Pointing.size());
  // The paper's observation: median points-to size is 1.
  EXPECT_EQ(St.MedianPointsToSize, 1u);
}

TEST(Stats, TopListsAreOrderedAndCapped) {
  Benchmark Bench = buildBenchmark("luindex");
  auto Policy = createPolicy("2obj+H", *Bench.Prog);
  Solver S(*Bench.Prog, *Policy);
  AnalysisResult R = S.run();
  ContextStats St = computeStats(R, 5);
  EXPECT_LE(St.TopMethodsByContexts.size(), 5u);
  EXPECT_LE(St.FattestVars.size(), 5u);
  for (size_t I = 1; I < St.TopMethodsByContexts.size(); ++I)
    EXPECT_GE(St.TopMethodsByContexts[I - 1].second,
              St.TopMethodsByContexts[I].second);
  EXPECT_EQ(St.MaxContextsPerMethod,
            St.TopMethodsByContexts.empty()
                ? 0u
                : St.TopMethodsByContexts.front().second);
  std::string Report = formatStats(St, *Bench.Prog);
  EXPECT_NE(Report.find("contexts per method"), std::string::npos);
  EXPECT_NE(Report.find("fattest variables"), std::string::npos);
}

// --- Metrics parity ---

/// The hash-set computeMetrics that the one-pass CSR version replaced,
/// kept as the reference: per-variable heap sets, CI call-graph pairs and
/// per-site targets in node-based containers, straight from the
/// definitions in pta/Metrics.h.
PrecisionMetrics referenceMetrics(const AnalysisResult &Result) {
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

  std::unordered_map<uint32_t, std::unordered_set<uint32_t>> HeapsPerVar;
  for (const auto &E : Result.VarFacts) {
    auto &Set = HeapsPerVar[E.Var.index()];
    for (uint32_t Obj : E.Objs)
      Set.insert(Result.objHeap(Obj).index());
  }
  size_t TotalFacts = 0;
  for (const auto &[Var, Set] : HeapsPerVar)
    TotalFacts += Set.size();
  M.AvgPointsTo = HeapsPerVar.empty()
                      ? 0.0
                      : static_cast<double>(TotalFacts) /
                            static_cast<double>(HeapsPerVar.size());

  std::unordered_set<uint64_t> CiEdges;
  std::unordered_map<uint32_t, std::unordered_set<uint32_t>> TargetsPerSite;
  for (const CallGraphEdge &E : Result.CallEdges) {
    CiEdges.insert((uint64_t(E.Invo.index()) << 32) | E.Callee.index());
    if (!Prog.invoke(E.Invo).IsStatic)
      TargetsPerSite[E.Invo.index()].insert(E.Callee.index());
  }
  M.CallGraphEdges = CiEdges.size();

  std::unordered_set<uint32_t> ReachableMethods;
  for (const auto &[Method, Ctx] : Result.Reachable)
    ReachableMethods.insert(Method.index());
  M.ReachableMethods = ReachableMethods.size();

  for (uint32_t MethodIdx : ReachableMethods) {
    const MethodInfo &Body = Prog.method(MethodId(MethodIdx));
    for (InvokeId Inv : Body.Invokes) {
      if (Prog.invoke(Inv).IsStatic)
        continue;
      ++M.ReachableVCalls;
      auto It = TargetsPerSite.find(Inv.index());
      if (It != TargetsPerSite.end() && It->second.size() >= 2)
        ++M.PolyVCalls;
    }
    for (const CastInstr &C : Body.Casts) {
      ++M.ReachableCasts;
      auto It = HeapsPerVar.find(C.From.index());
      if (It == HeapsPerVar.end())
        continue;
      for (uint32_t HeapIdx : It->second) {
        if (!Prog.isSubtype(Prog.heap(HeapId(HeapIdx)).Type, C.Target)) {
          ++M.MayFailCasts;
          break;
        }
      }
    }
  }

  for (const Program::TaintSink &S : Prog.taintSinks()) {
    const InvokeInfo &Inv = Prog.invoke(S.Site);
    if (!ReachableMethods.count(Inv.InMethod.index()) ||
        S.ArgIdx >= Inv.Actuals.size())
      continue;
    auto It = HeapsPerVar.find(Inv.Actuals[S.ArgIdx].index());
    if (It == HeapsPerVar.end())
      continue;
    std::unordered_set<uint32_t> Tags;
    for (uint32_t HeapIdx : It->second)
      if (uint32_t Tag = Prog.heap(HeapId(HeapIdx)).TaintTag)
        Tags.insert(Tag);
    M.TaintedSinks += Tags.size();
  }
  return M;
}

/// Every field computeMetrics fills, compared with the reference.
void expectSameMetrics(const PrecisionMetrics &Got,
                       const PrecisionMetrics &Want, const std::string &Cell) {
  EXPECT_EQ(Got.AvgPointsTo, Want.AvgPointsTo) << Cell;
  EXPECT_EQ(Got.CallGraphEdges, Want.CallGraphEdges) << Cell;
  EXPECT_EQ(Got.ReachableMethods, Want.ReachableMethods) << Cell;
  EXPECT_EQ(Got.PolyVCalls, Want.PolyVCalls) << Cell;
  EXPECT_EQ(Got.ReachableVCalls, Want.ReachableVCalls) << Cell;
  EXPECT_EQ(Got.MayFailCasts, Want.MayFailCasts) << Cell;
  EXPECT_EQ(Got.ReachableCasts, Want.ReachableCasts) << Cell;
  EXPECT_EQ(Got.CsVarPointsTo, Want.CsVarPointsTo) << Cell;
  EXPECT_EQ(Got.FieldPointsTo, Want.FieldPointsTo) << Cell;
  EXPECT_EQ(Got.StaticFieldPointsTo, Want.StaticFieldPointsTo) << Cell;
  EXPECT_EQ(Got.ThrowFacts, Want.ThrowFacts) << Cell;
  EXPECT_EQ(Got.TaintedSinks, Want.TaintedSinks) << Cell;
  EXPECT_EQ(Got.UncaughtExceptionSites, Want.UncaughtExceptionSites) << Cell;
  EXPECT_EQ(Got.NumContexts, Want.NumContexts) << Cell;
  EXPECT_EQ(Got.NumHContexts, Want.NumHContexts) << Cell;
  EXPECT_EQ(Got.NumObjects, Want.NumObjects) << Cell;
  EXPECT_EQ(Got.SolveMs, Want.SolveMs) << Cell;
  EXPECT_EQ(Got.PeakNodes, Want.PeakNodes) << Cell;
  EXPECT_EQ(Got.PeakBytes, Want.PeakBytes) << Cell;
  EXPECT_TRUE(Got.Counters == Want.Counters) << Cell;
  EXPECT_EQ(Got.Aborted, Want.Aborted) << Cell;
  EXPECT_EQ(Got.Reason, Want.Reason) << Cell;
  EXPECT_EQ(Got.FaultInjected, Want.FaultInjected) << Cell;
}

// computeMetrics against the reference on four benchmarks under every
// Table 1 policy.  xalan/U-1obj reaches one method under more than 255
// contexts, where a byte-wide per-method "seen" mark would wrap and count
// the method again.
TEST(MetricsParity, MatchesTheHashSetReferenceOnFourBenchmarks) {
  bool SawManyContexts = false;
  for (const char *Bench : {"luindex", "antlr", "pmd", "xalan"}) {
    Benchmark B = buildBenchmark(Bench);
    for (const std::string &Name : table1PolicyNames()) {
      auto Policy = createPolicy(Name, *B.Prog);
      ASSERT_NE(Policy, nullptr) << Name;
      AnalysisResult R = solveProgram(*B.Prog, *Policy);
      ASSERT_FALSE(R.Aborted) << Bench << '/' << Name;
      expectSameMetrics(computeMetrics(R), referenceMetrics(R),
                        std::string(Bench) + '/' + Name);
      if (std::string(Bench) == "xalan" && Name == "U-1obj")
        SawManyContexts = computeStats(R).MaxContextsPerMethod > 255;
    }
  }
  EXPECT_TRUE(SawManyContexts)
      << "xalan/U-1obj no longer reaches a method under >255 contexts";
}

// The tainted-sink count (distinct tags per reachable sink argument) on
// taint-instrumented programs where it is nonzero: taintflow.ptir under
// its default spec, and hsqldb under the synthetic spec with seed 3.
TEST(MetricsParity, MatchesTheReferenceOnTaintedSinks) {
  std::filesystem::path Dir(HYBRIDPT_EXAMPLES_DIR);
  std::ifstream In(Dir / "taintflow.ptir");
  std::stringstream Text;
  Text << In.rdbuf();
  ParseResult Parsed = parseProgram(Text.str());
  ASSERT_TRUE(Parsed.ok());
  taint::SpecParseResult Spec =
      taint::parseSpecFile((Dir / "default.taintspec").string());
  ASSERT_TRUE(Spec.ok());
  auto Taintflow = taint::instrument(
      *Parsed.Prog, taint::resolve(Spec.Spec, *Parsed.Prog));
  Benchmark Hsqldb = buildBenchmark("hsqldb");
  auto TaintedHsqldb = taint::instrument(
      *Hsqldb.Prog,
      taint::resolve(taint::syntheticSpec(*Hsqldb.Prog, 3), *Hsqldb.Prog));

  size_t TaintflowSinks = 0;
  for (const std::string &Name : table1PolicyNames()) {
    auto Policy = createPolicy(Name, *Taintflow);
    AnalysisResult R = solveProgram(*Taintflow, *Policy);
    PrecisionMetrics Want = referenceMetrics(R);
    expectSameMetrics(computeMetrics(R), Want, "taintflow/" + Name);
    TaintflowSinks += Want.TaintedSinks;
  }
  EXPECT_GT(TaintflowSinks, 0u);
  size_t HsqldbSinks = 0;
  for (const char *Name : {"insens", "2obj+H", "S-2obj+H", "cs"}) {
    auto Policy = createPolicy(Name, *TaintedHsqldb);
    AnalysisResult R = solveProgram(*TaintedHsqldb, *Policy);
    PrecisionMetrics Want = referenceMetrics(R);
    expectSameMetrics(computeMetrics(R), Want,
                      std::string("tainted hsqldb/") + Name);
    HsqldbSinks += Want.TaintedSinks;
  }
  EXPECT_GT(HsqldbSinks, 0u);
}

// An aborted cell reports metrics over its partial fixpoint.
TEST(MetricsParity, MatchesTheReferenceOnAnAbortedResult) {
  Benchmark B = buildBenchmark("antlr");
  auto Policy = createPolicy("2obj+H", *B.Prog);
  SolverOptions Opts;
  Opts.MaxFacts = 5000;
  AnalysisResult R = solveProgram(*B.Prog, *Policy, Opts);
  ASSERT_TRUE(R.Aborted);
  PrecisionMetrics Want = referenceMetrics(R);
  EXPECT_GT(Want.ReachableMethods, 0u);
  expectSameMetrics(computeMetrics(R), Want, "antlr/2obj+H aborted");
}

} // namespace
