//===- tests/differential_test.cpp - Solver vs Datalog reference ----------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
// The strongest correctness evidence in this repo: the hand-specialized
// worklist solver and the rule-for-rule Datalog transcription of the
// paper's Figure 2 must compute *identical* VARPOINTSTO, CALLGRAPH,
// FLDPOINTSTO, and REACHABLE relations, for every context policy, on both
// hand-written and fuzzed programs.
//
//===----------------------------------------------------------------------===//

#include "context/PolicyRegistry.h"
#include "ir/Program.h"
#include "ir/ProgramBuilder.h"
#include "pta/AnalysisResult.h"
#include "pta/Solver.h"
#include "pta/VariantRunner.h"
#include "ptaref/ReferenceAnalysis.h"
#include "workloads/AppGenerator.h"
#include "workloads/Fuzzer.h"
#include "workloads/MiniLib.h"
#include "workloads/Profiles.h"

#include <gtest/gtest.h>

#include <set>

namespace {

using namespace pt;

/// Runs both engines under \p PolicyName and compares all exported
/// relations.
void expectAgreement(const Program &Prog, const std::string &PolicyName) {
  auto SolverPolicy = createPolicy(PolicyName, Prog);
  ASSERT_NE(SolverPolicy, nullptr) << PolicyName;
  Solver S(Prog, *SolverPolicy);
  AnalysisResult SR = S.run();
  ASSERT_FALSE(SR.Aborted) << PolicyName;

  auto RefPolicy = createPolicy(PolicyName, Prog);
  ReferenceAnalysis Ref(Prog, *RefPolicy);
  ASSERT_TRUE(Ref.run()) << PolicyName;

  EXPECT_EQ(SR.exportReachable(), Ref.exportReachable())
      << PolicyName << ": REACHABLE differs";
  EXPECT_EQ(SR.exportCallGraph(), Ref.exportCallGraph())
      << PolicyName << ": CALLGRAPH differs";
  EXPECT_EQ(SR.exportVarPointsTo(), Ref.exportVarPointsTo())
      << PolicyName << ": VARPOINTSTO differs";
  EXPECT_EQ(SR.exportFieldPointsTo(), Ref.exportFieldPointsTo())
      << PolicyName << ": FLDPOINTSTO differs";
  EXPECT_EQ(SR.exportStaticFieldPointsTo(),
            Ref.exportStaticFieldPointsTo())
      << PolicyName << ": STATICFLDPOINTSTO differs";
  EXPECT_EQ(SR.exportThrowPointsTo(), Ref.exportThrowPointsTo())
      << PolicyName << ": METHODTHROWS differs";
}

/// A compact program touching every instruction kind.
std::unique_ptr<Program> buildMixedProgram() {
  ProgramBuilder B;
  TypeId Object = B.addType("Object");
  TypeId A = B.addType("A", Object);
  TypeId Bt = B.addType("B", A);
  TypeId D = B.addType("D", Object);
  FieldId F = B.addField(A, "f");

  MethodId GetA = B.addMethod(A, "get", 0, false);
  VarId GV = B.addLocal(GetA, "gv");
  B.addLoad(GetA, GV, B.thisVar(GetA), F);
  B.setReturn(GetA, GV);

  MethodId GetB = B.addMethod(Bt, "get", 0, false);
  VarId GBV = B.addLocal(GetB, "gv");
  B.addLoad(GetB, GBV, B.thisVar(GetB), F);
  B.setReturn(GetB, GBV);

  MethodId Ident = B.addMethod(Object, "ident", 1, true);
  B.setReturn(Ident, B.formal(Ident, 0));

  MethodId Wrap = B.addMethod(Object, "wrap", 1, true);
  VarId WB = B.addLocal(Wrap, "wb");
  B.addAlloc(Wrap, WB, A);
  B.addStore(Wrap, WB, F, B.formal(Wrap, 0));
  B.setReturn(Wrap, WB);

  MethodId Main = B.addMethod(Object, "main", 0, true);
  VarId R1 = B.addLocal(Main, "r1");
  VarId R2 = B.addLocal(Main, "r2");
  VarId X = B.addLocal(Main, "x");
  VarId Y = B.addLocal(Main, "y");
  VarId Z = B.addLocal(Main, "z");
  VarId W = B.addLocal(Main, "w");
  VarId Cst = B.addLocal(Main, "c");
  B.addAlloc(Main, R1, A);
  B.addAlloc(Main, R2, Bt);
  B.addAlloc(Main, X, D);
  B.addAlloc(Main, X, Bt);
  B.addMove(Main, Y, X);
  B.addCast(Main, Cst, X, A);
  B.addSCall(Main, Ident, {X}, Z);
  B.addSCall(Main, Wrap, {Z}, W);
  SigId SigGet = B.getSig("get", 0);
  B.addVCall(Main, R1, SigGet, {}, Y);
  B.addVCall(Main, R2, SigGet, {}, Y);
  B.addVCall(Main, W, SigGet, {}, Z);
  B.addStore(Main, R1, F, X);
  B.addEntryPoint(Main);
  return B.build();
}

TEST(Differential, MixedProgramAllPolicies) {
  auto P = buildMixedProgram();
  for (const std::string &Name : allPolicyNames())
    expectAgreement(*P, Name);
}

// Every rule of the list, bar the premise-free entry and seed axioms,
// has a Datalog rule mirroring it, under a tuple policy and under the
// cut-shortcut policy alike.
TEST(Differential, EveryListRuleHasADatalogMirror) {
  auto Prog = buildMixedProgram();
  for (const char *Name : {"2obj+H", "cs"}) {
    auto Policy = createPolicy(Name, *Prog);
    ReferenceAnalysis Ref(*Prog, *Policy);
    std::set<Rule> Mirrored;
    for (const ReferenceAnalysis::RuleMirror &M : Ref.ruleMirrors())
      if (M.Of)
        Mirrored.insert(*M.Of);
    for (size_t I = 0; I != NumRules; ++I) {
      Rule R = static_cast<Rule>(I);
      if (R != Rule::Entry && R != Rule::Seed) {
        EXPECT_TRUE(Mirrored.count(R)) << Name << ": " << ruleName(R);
      }
    }
  }
}

TEST(Differential, RecursiveProgram) {
  ProgramBuilder B;
  TypeId Object = B.addType("Object");
  TypeId A = B.addType("A", Object);
  MethodId Rec = B.addMethod(Object, "rec", 1, true);
  VarId RV = B.addLocal(Rec, "rv");
  B.addSCall(Rec, Rec, {B.formal(Rec, 0)}, RV);
  B.setReturn(Rec, RV);
  MethodId Ping = B.addMethod(A, "ping", 0, false);
  B.addVCall(Ping, B.thisVar(Ping), B.getSig("ping", 0), {});
  MethodId Main = B.addMethod(Object, "main", 0, true);
  VarId X = B.addLocal(Main, "x");
  VarId Y = B.addLocal(Main, "y");
  B.addAlloc(Main, X, A);
  B.addSCall(Main, Rec, {X}, Y);
  B.addVCall(Main, X, B.getSig("ping", 0), {});
  B.addEntryPoint(Main);
  auto P = B.build();

  for (const std::string &Name : allPolicyNames())
    expectAgreement(*P, Name);
}

TEST(Differential, MiniLibApp) {
  WorkloadProfile Tiny;
  Tiny.Name = "diff-tiny";
  Tiny.Seed = 99;
  Tiny.TypeFamilies = 3;
  Tiny.SubtypesPerFamily = 2;
  Tiny.WorkerClasses = 3;
  Tiny.MethodsPerWorker = 2;
  Tiny.HelperMethods = 4;
  Tiny.Phases = 3;
  Tiny.CallsPerPhase = 3;
  Tiny.BlocksPerMethod = 2;
  Benchmark Bench = buildBenchmark(Tiny);
  // The full policy matrix on a small but feature-complete application.
  for (const std::string &Name : allPolicyNames())
    expectAgreement(*Bench.Prog, Name);
}

// A Table 1 benchmark, not just fuzz and hand-built programs: luindex,
// the smallest, under every policy (about 0.1-0.2 s of reference solving
// per policy).
TEST(Differential, LuindexAllPolicies) {
  Benchmark Bench = buildBenchmark("luindex");
  for (const std::string &Name : allPolicyNames())
    expectAgreement(*Bench.Prog, Name);
}

/// The cross-product fuzz sweep: policies x seeds.  This is the heavy
/// hammer; keep sizes small so the Datalog side stays quick.
struct FuzzCase {
  uint64_t Seed;
  std::string Policy;
};

class DifferentialFuzz
    : public ::testing::TestWithParam<std::tuple<uint64_t, std::string>> {};

TEST_P(DifferentialFuzz, SolverMatchesReference) {
  auto [Seed, PolicyName] = GetParam();
  FuzzOptions Opts;
  Opts.Types = 6;
  Opts.Fields = 4;
  Opts.Methods = 10;
  Opts.MaxInstrPerMethod = 8;
  auto P = fuzzProgram(Seed, Opts);
  expectAgreement(*P, PolicyName);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DifferentialFuzz,
    ::testing::Combine(::testing::Range<uint64_t>(1, 13),
                       ::testing::ValuesIn(allPolicyNames())),
    [](const ::testing::TestParamInfo<DifferentialFuzz::ParamType> &Info) {
      std::string Name = "seed" + std::to_string(std::get<0>(Info.param)) +
                         "_" + std::get<1>(Info.param);
      for (char &C : Name)
        if (C == '-' || C == '+')
          C = '_';
      return Name;
    });

/// Asserts every deterministic metric matches between two runs of the same
/// cell (SolveMs is wall-clock and legitimately varies).
void expectSameMetrics(const PrecisionMetrics &A, const PrecisionMetrics &B,
                       const std::string &Label) {
  EXPECT_EQ(A.Aborted, B.Aborted) << Label;
  EXPECT_DOUBLE_EQ(A.AvgPointsTo, B.AvgPointsTo) << Label;
  EXPECT_EQ(A.CallGraphEdges, B.CallGraphEdges) << Label;
  EXPECT_EQ(A.ReachableMethods, B.ReachableMethods) << Label;
  EXPECT_EQ(A.PolyVCalls, B.PolyVCalls) << Label;
  EXPECT_EQ(A.ReachableVCalls, B.ReachableVCalls) << Label;
  EXPECT_EQ(A.MayFailCasts, B.MayFailCasts) << Label;
  EXPECT_EQ(A.ReachableCasts, B.ReachableCasts) << Label;
  EXPECT_EQ(A.CsVarPointsTo, B.CsVarPointsTo) << Label;
  EXPECT_EQ(A.FieldPointsTo, B.FieldPointsTo) << Label;
  EXPECT_EQ(A.StaticFieldPointsTo, B.StaticFieldPointsTo) << Label;
  EXPECT_EQ(A.ThrowFacts, B.ThrowFacts) << Label;
  EXPECT_EQ(A.UncaughtExceptionSites, B.UncaughtExceptionSites) << Label;
  EXPECT_EQ(A.NumContexts, B.NumContexts) << Label;
  EXPECT_EQ(A.NumHContexts, B.NumHContexts) << Label;
  EXPECT_EQ(A.NumObjects, B.NumObjects) << Label;
  EXPECT_EQ(A.PeakNodes, B.PeakNodes) << Label;
  EXPECT_EQ(A.PeakBytes, B.PeakBytes) << Label;
  // Telemetry counters are per-solver state: bit-identical across thread
  // counts and repeats (all-zero == all-zero when telemetry is off).
  EXPECT_TRUE(A.Counters == B.Counters) << Label;
}

TEST(Differential, VariantRunnerDeterministicAcrossThreadCounts) {
  // The parallel variant runner shares one immutable Program across
  // worker threads; every cell is an independent Solver, so the metrics
  // must be bit-identical whether the matrix runs on one thread or four,
  // and identical again on a repeat run.
  WorkloadProfile Tiny;
  Tiny.Name = "determinism";
  Tiny.Seed = 7;
  Tiny.TypeFamilies = 3;
  Tiny.SubtypesPerFamily = 2;
  Tiny.WorkerClasses = 3;
  Tiny.MethodsPerWorker = 2;
  Tiny.HelperMethods = 4;
  Tiny.Phases = 3;
  Tiny.CallsPerPhase = 3;
  Tiny.BlocksPerMethod = 2;
  Benchmark Bench = buildBenchmark(Tiny);

  const std::vector<std::string> Policies = {"1obj", "U-2obj+H"};

  MatrixOptions Seq;
  Seq.Threads = 1;
  MatrixOptions Par;
  Par.Threads = 4;

  auto Seq1 = runVariantMatrix(*Bench.Prog, Policies, Seq);
  auto Seq2 = runVariantMatrix(*Bench.Prog, Policies, Seq);
  auto Par1 = runVariantMatrix(*Bench.Prog, Policies, Par);
  auto Par2 = runVariantMatrix(*Bench.Prog, Policies, Par);
  ASSERT_EQ(Seq1.size(), Policies.size());
  ASSERT_EQ(Par1.size(), Policies.size());

  for (size_t I = 0; I < Policies.size(); ++I) {
    ASSERT_FALSE(Seq1[I].Aborted) << Policies[I];
    EXPECT_GT(Seq1[I].CsVarPointsTo, 0u) << Policies[I];
    expectSameMetrics(Seq1[I], Seq2[I], Policies[I] + ": 1T vs 1T repeat");
    expectSameMetrics(Seq1[I], Par1[I], Policies[I] + ": 1T vs 4T");
    expectSameMetrics(Par1[I], Par2[I], Policies[I] + ": 4T vs 4T repeat");
  }
}

} // namespace
