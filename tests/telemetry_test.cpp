//===- tests/telemetry_test.cpp - Solver telemetry counters ---------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
// Checks the accounting invariants of the telemetry subsystem: the fact
// counter ties out against the harvested relations, rule counters are
// nonzero exactly for the rules the program's instructions reach, the
// rule list is the one set of slow-rule names,
// identical runs produce identical counters, and the TraceRecorder
// emits heartbeats/spans and valid output files.
//
//===----------------------------------------------------------------------===//

#include "context/CutShortcut.h"
#include "context/Policy.h"
#include "context/PolicyRegistry.h"
#include "ir/Program.h"
#include "ir/ProgramBuilder.h"
#include "irtext/TextFormat.h"
#include "pta/AnalysisResult.h"
#include "pta/Metrics.h"
#include "pta/Solver.h"
#include "pta/Trace.h"
#include "support/FaultPlan.h"
#include "support/Telemetry.h"
#include "taint/Taint.h"
#include "taint/TaintSpec.h"
#include "workloads/Profiles.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <string_view>

namespace {

using namespace pt;

AnalysisResult analyze(const Program &Prog, ContextPolicy &Policy,
                       SolverOptions Opts = {}) {
  Solver S(Prog, Policy, Opts);
  return S.run();
}

/// FactsInserted must equal the total size of the four harvested fact
/// relations: every fact flows through the same insert point.
void expectFactIdentity(const AnalysisResult &R) {
  size_t Harvested = R.numCsVarPointsTo() + R.numFieldPointsTo() +
                     R.numStaticFieldPointsTo() + R.numThrowFacts();
  EXPECT_EQ(R.Counters.FactsInserted, Harvested);
}

/// The wire names of the rule counters that fired.
std::set<std::string> firedRules(const telemetry::SolverCounters &C) {
  std::set<std::string> Fired;
  telemetry::forEachCounter(C, [&Fired](const char *Name, uint64_t V) {
    if (V != 0 && std::string_view(Name).starts_with("rule_"))
      Fired.insert(Name);
  });
  return Fired;
}

/// A program exercising the nine Figure 2 rules plus an uncaught throw:
/// ALLOC, MOVE, CAST, LOAD, STORE, SLOAD, SSTORE, VCALL, SCALL, THROW.
std::unique_ptr<Program> buildKitchenSink() {
  ProgramBuilder B;
  TypeId Object = B.addType("Object");
  TypeId A = B.addType("A", Object);
  TypeId Bt = B.addType("B", A);
  TypeId Exc = B.addType("Exc", Object);
  FieldId F = B.addField(A, "f");
  FieldId G = B.addStaticField(A, "g");

  MethodId M = B.addMethod(A, "m", 0, false);
  VarId MR = B.addLocal(M, "mr");
  B.addAlloc(M, MR, Bt);
  B.setReturn(M, MR);

  MethodId Helper = B.addMethod(Object, "helper", 1, true);
  B.setReturn(Helper, B.formal(Helper, 0));

  MethodId Main = B.addMethod(Object, "main", 0, true);
  VarId Cv = B.addLocal(Main, "c");
  VarId O1 = B.addLocal(Main, "o1");
  VarId Y = B.addLocal(Main, "y");
  VarId W = B.addLocal(Main, "w");
  VarId Z = B.addLocal(Main, "z");
  VarId S = B.addLocal(Main, "s");
  VarId E = B.addLocal(Main, "e");
  VarId Mv = B.addLocal(Main, "mv");
  B.addAlloc(Main, Cv, A);
  B.addAlloc(Main, O1, Bt);
  B.addMove(Main, Mv, O1);
  B.addCast(Main, Y, O1, A);
  B.addStore(Main, Cv, F, O1);
  B.addLoad(Main, W, Cv, F);
  B.addSStore(Main, G, O1);
  B.addSLoad(Main, Z, G);
  B.addVCall(Main, Cv, B.getSig("m", 0), {});
  B.addSCall(Main, Helper, {O1}, S);
  B.addAlloc(Main, E, Exc);
  B.addThrow(Main, E);
  B.addEntryPoint(Main);
  return B.build();
}

TEST(Telemetry, FactCounterIdentityKitchenSink) {
  if (!telemetry::SolverCounters::enabled())
    GTEST_SKIP() << "built with HYBRIDPT_TELEMETRY=0";
  auto P = buildKitchenSink();
  for (const std::string &Name : allPolicyNames()) {
    auto Policy = createPolicy(Name, *P);
    AnalysisResult R = analyze(*P, *Policy);
    ASSERT_FALSE(R.Aborted) << Name;
    expectFactIdentity(R);
  }
}

TEST(Telemetry, FactCounterIdentityOnBenchmark) {
  if (!telemetry::SolverCounters::enabled())
    GTEST_SKIP() << "built with HYBRIDPT_TELEMETRY=0";
  Benchmark Bench = buildBenchmark("luindex");
  auto Policy = createPolicy("1obj", *Bench.Prog);
  Solver S(*Bench.Prog, *Policy);
  AnalysisResult R = S.run();
  ASSERT_FALSE(R.Aborted);
  expectFactIdentity(R);
  // Node accounting must tie out the same way: every interned node is
  // counted exactly once.
  EXPECT_EQ(R.Counters.NodesCreated, R.SolverNodes);
}

TEST(Telemetry, RuleCountersMatchInstructionKinds) {
  if (!telemetry::SolverCounters::enabled())
    GTEST_SKIP() << "built with HYBRIDPT_TELEMETRY=0";

  // Alloc + move only: exactly those two rules fire.
  {
    ProgramBuilder B;
    TypeId Object = B.addType("Object");
    TypeId A = B.addType("A", Object);
    MethodId Main = B.addMethod(Object, "main", 0, true);
    VarId X = B.addLocal(Main, "x");
    VarId Y = B.addLocal(Main, "y");
    B.addAlloc(Main, X, A);
    B.addMove(Main, Y, X);
    B.addEntryPoint(Main);
    auto P = B.build();

    auto Policy = createPolicy("insens", *P);
    AnalysisResult R = analyze(*P, *Policy);
    EXPECT_EQ(firedRules(R.Counters),
              (std::set<std::string>{"rule_entry", "rule_alloc",
                                     "rule_move"}));
  }

  // The kitchen-sink program: every rule its instructions reach fires.
  {
    auto P = buildKitchenSink();
    auto Policy = createPolicy("insens", *P);
    AnalysisResult R = analyze(*P, *Policy);
    const telemetry::SolverCounters &C = R.Counters;
    EXPECT_EQ(firedRules(C),
              (std::set<std::string>{
                  "rule_entry", "rule_reach_call", "rule_alloc", "rule_move",
                  "rule_cast", "rule_load", "rule_store", "rule_static_load",
                  "rule_static_store", "rule_vcall", "rule_scall",
                  "rule_this_bind", "rule_param_bind", "rule_return_bind",
                  "rule_throw_raise"}));
    EXPECT_GT(C.WorklistSteps, 0u);
    EXPECT_GT(C.EdgesAdded, 0u);
    EXPECT_GT(C.NodesCreated, 0u);
    EXPECT_GT(C.ObjectsInterned, 0u);
    EXPECT_GT(C.CallEdgesInserted, 0u);
    EXPECT_GT(C.MethodsInstantiated, 0u);
  }
}

TEST(Telemetry, IdenticalRunsProduceIdenticalCounters) {
  if (!telemetry::SolverCounters::enabled())
    GTEST_SKIP() << "built with HYBRIDPT_TELEMETRY=0";
  auto P = buildKitchenSink();
  for (const std::string &Name : {std::string("insens"), std::string("2obj+H"),
                                  std::string("S-2obj+H")}) {
    auto P1 = createPolicy(Name, *P);
    auto P2 = createPolicy(Name, *P);
    AnalysisResult R1 = analyze(*P, *P1);
    AnalysisResult R2 = analyze(*P, *P2);
    EXPECT_TRUE(R1.Counters == R2.Counters) << Name;
    EXPECT_EQ(R1.PeakBytes, R2.PeakBytes) << Name;
  }
}

TEST(Telemetry, CountersSinceComputesDeltas) {
  telemetry::SolverCounters Base;
  Base.RuleAlloc = 3;
  Base.FactsInserted = 10;
  telemetry::SolverCounters Now = Base;
  Now.RuleAlloc = 5;
  Now.FactsInserted = 17;
  Now.RuleMove = 2;
  telemetry::SolverCounters D = Now.since(Base);
  EXPECT_EQ(D.RuleAlloc, 2u);
  EXPECT_EQ(D.FactsInserted, 7u);
  EXPECT_EQ(D.RuleMove, 2u);
  EXPECT_EQ(D.RuleCast, 0u);
}

TEST(Telemetry, TopRuleCountersRanks) {
  telemetry::SolverCounters C;
  C.RuleVCall = 100;
  C.RuleLoad = 50;
  C.RuleAlloc = 7;
  auto Top = telemetry::topRuleCounters(C, 2);
  ASSERT_EQ(Top.size(), 2u);
  EXPECT_EQ(Top[0].second, 100u);
  EXPECT_EQ(Top[1].second, 50u);
}

// Every cut kind the cs plan of luindex has fires its shortcut rule.
TEST(Telemetry, ShortcutRulesFireWhereThePlanCuts) {
  if (!telemetry::SolverCounters::enabled())
    GTEST_SKIP() << "built with HYBRIDPT_TELEMETRY=0";
  Benchmark Bench = buildBenchmark("luindex");
  auto Policy = createPolicy("cs", *Bench.Prog);
  const CutShortcutPlan *Plan = Policy->cutPlan();
  ASSERT_TRUE(Plan);
  bool Store = false, RetArg = false, RetAlloc = false, RetLoad = false;
  for (const CutShortcutPlan::MethodPlan &MP : Plan->Methods) {
    Store |= !MP.StoreCuts.empty();
    RetArg |= !MP.RetArgs.empty();
    RetAlloc |= !MP.RetAllocs.empty();
    RetLoad |= !MP.RetLoads.empty();
  }
  ASSERT_TRUE(Store || RetArg || RetAlloc || RetLoad) << "no cuts at all";
  AnalysisResult R = analyze(*Bench.Prog, *Policy);
  ASSERT_FALSE(R.Aborted);
  const telemetry::SolverCounters &C = R.Counters;
  EXPECT_EQ(C.RuleShortcutStore != 0, Store);
  EXPECT_EQ(C.RuleShortcutRetArg != 0, RetArg);
  EXPECT_EQ(C.RuleShortcutRetAlloc != 0, RetAlloc);
  EXPECT_EQ(C.RuleShortcutRetLoad != 0, RetLoad);

  // A tuple policy has no plan, so no shortcut rule fires.
  auto Tuple = createPolicy("2obj+H", *Bench.Prog);
  AnalysisResult TR = analyze(*Bench.Prog, *Tuple);
  for (const std::string &Name : firedRules(TR.Counters))
    EXPECT_FALSE(Name.starts_with("rule_shortcut")) << Name;
}

// Sanitize edges count apart from casts.  Before the rule list, the cast
// counter also counted sanitize edges: 11 on taintflow.ptir under its
// spec, which has no cast instruction.
TEST(Telemetry, SanitizeCountsApartFromCast) {
  if (!telemetry::SolverCounters::enabled())
    GTEST_SKIP() << "built with HYBRIDPT_TELEMETRY=0";
  std::filesystem::path Dir(HYBRIDPT_EXAMPLES_DIR);
  std::ifstream In(Dir / "taintflow.ptir");
  std::stringstream Text;
  Text << In.rdbuf();
  ParseResult Parsed = parseProgram(Text.str());
  ASSERT_TRUE(Parsed.ok());
  taint::SpecParseResult Spec =
      taint::parseSpecFile((Dir / "default.taintspec").string());
  ASSERT_TRUE(Spec.ok());
  std::unique_ptr<Program> P =
      taint::instrument(*Parsed.Prog, taint::resolve(Spec.Spec, *Parsed.Prog));
  for (const char *Name : {"insens", "2obj+H"}) {
    auto Policy = createPolicy(Name, *P);
    AnalysisResult R = analyze(*P, *Policy);
    ASSERT_FALSE(R.Aborted) << Name;
    EXPECT_GT(R.Counters.RuleSanitize, 0u) << Name;
    EXPECT_EQ(R.Counters.RuleCast + R.Counters.RuleSanitize, 11u) << Name;
  }
}

// Every rule of the list is a slow-rule target under its display name,
// and nothing else is.
TEST(Telemetry, SlowRuleAcceptsExactlyTheListNames) {
  for (size_t I = 0; I != NumRules; ++I) {
    FaultPlan Plan;
    std::string Error;
    std::string Spec = std::string("slow-rule=") + RuleNames[I];
    ASSERT_TRUE(FaultPlan::parse(Spec, Plan, Error)) << Error;
    EXPECT_EQ(Plan.SlowRule, static_cast<Rule>(I));
    EXPECT_EQ(Plan.spec(), Spec);
  }
  for (const char *Bad : {"frobnicate", "sload"}) {
    FaultPlan Plan;
    std::string Error;
    EXPECT_FALSE(
        FaultPlan::parse(std::string("slow-rule=") + Bad, Plan, Error));
    EXPECT_NE(Error.find("static-load, static-store"), std::string::npos)
        << Error;
  }
}

TEST(Telemetry, MetricsCarryPeakBytesAndCounters) {
  auto P = buildKitchenSink();
  auto Policy = createPolicy("insens", *P);
  AnalysisResult R = analyze(*P, *Policy);
  EXPECT_GT(R.PeakBytes, 0u); // byte accounting works with telemetry off too
  PrecisionMetrics M = computeMetrics(R);
  EXPECT_EQ(M.PeakBytes, R.PeakBytes);
  EXPECT_TRUE(M.Counters == R.Counters);
}

TEST(Trace, SolverEmitsHeartbeatsAndFinalSnapshot) {
  auto P = buildKitchenSink();
  auto Policy = createPolicy("insens", *P);
  trace::TraceRecorder Rec;
  SolverOptions Opts;
  Opts.Trace = &Rec;
  Opts.TraceLabel = "test/insens";
  Opts.HeartbeatSteps = 1; // beat on every worklist pop
  AnalysisResult R = analyze(*P, *Policy, Opts);
  ASSERT_FALSE(R.Aborted);
  EXPECT_GT(Rec.numHeartbeats(), 1u);

  trace::Heartbeat HB;
  ASSERT_TRUE(Rec.lastHeartbeat("test/insens", HB));
  EXPECT_TRUE(HB.Final);
  EXPECT_EQ(HB.Facts, R.numCsVarPointsTo() + R.numFieldPointsTo() +
                          R.numStaticFieldPointsTo() + R.numThrowFacts());
  EXPECT_EQ(HB.Nodes, R.SolverNodes);
  EXPECT_EQ(HB.MemoryBytes, R.PeakBytes);
  if (telemetry::SolverCounters::enabled()) {
    EXPECT_TRUE(HB.Totals == R.Counters);
    EXPECT_EQ(HB.Step, R.Counters.WorklistSteps);
  }
}

TEST(Trace, JsonlAndChromeTraceFilesAreWritten) {
  std::string Dir = ::testing::TempDir();
  std::string JsonlPath = Dir + "/hybridpt_trace_test.jsonl";
  std::string ChromePath = Dir + "/hybridpt_trace_test.json";
  {
    trace::TraceRecorder Rec;
    std::string Error;
    ASSERT_TRUE(Rec.openJsonl(JsonlPath, Error)) << Error;
    {
      trace::TraceRecorder::Span Outer(&Rec, "outer", "phase");
      trace::TraceRecorder::Span Inner(&Rec, "inner", "phase");
    }
    EXPECT_EQ(Rec.numSpans(), 2u);

    auto P = buildKitchenSink();
    auto Policy = createPolicy("insens", *P);
    SolverOptions Opts;
    Opts.Trace = &Rec;
    Opts.TraceLabel = "file/insens";
    analyze(*P, *Policy, Opts);
    Rec.counters("file/insens", telemetry::SolverCounters{});
    ASSERT_TRUE(Rec.writeChromeTrace(ChromePath, Error)) << Error;
  }
  // Both files exist and are non-trivial; JSON validity is checked by
  // tests/trace_schema_test.py against real binary output.
  std::ifstream Jsonl(JsonlPath);
  ASSERT_TRUE(Jsonl.good());
  std::string Line;
  size_t Lines = 0;
  bool SawMeta = false, SawSpan = false, SawHeartbeat = false;
  while (std::getline(Jsonl, Line)) {
    ++Lines;
    SawMeta |= Line.find("\"type\":\"meta\"") != std::string::npos;
    SawSpan |= Line.find("\"type\":\"span\"") != std::string::npos;
    SawHeartbeat |= Line.find("\"type\":\"heartbeat\"") != std::string::npos;
    EXPECT_EQ(Line.front(), '{');
    EXPECT_EQ(Line.back(), '}');
  }
  EXPECT_GE(Lines, 4u);
  EXPECT_TRUE(SawMeta);
  EXPECT_TRUE(SawSpan);
  EXPECT_TRUE(SawHeartbeat);

  std::ifstream Chrome(ChromePath);
  ASSERT_TRUE(Chrome.good());
  std::string All((std::istreambuf_iterator<char>(Chrome)),
                  std::istreambuf_iterator<char>());
  EXPECT_NE(All.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(All.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(All.find("\"ph\":\"E\""), std::string::npos);

  std::remove(JsonlPath.c_str());
  std::remove(ChromePath.c_str());
}

} // namespace
