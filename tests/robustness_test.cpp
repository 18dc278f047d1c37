//===- tests/robustness_test.cpp - Degradation & fault injection ----------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
// The graceful-degradation engine (docs/ROBUSTNESS.md): fault-plan parsing,
// the derived policy fallback ladder, abort soundness (every budget- or
// fault-aborted partial result is contained in the converged fixpoint, for
// every fault kind on every ladder rung), bit-for-bit equality of a
// ladder-landed rung with a native run of that rung, cancellation cutting
// the ladder short, final-heartbeat flushing on every abort path, and the
// variant runner's retry semantics.
//
//===----------------------------------------------------------------------===//

#include "context/PolicyRegistry.h"
#include "ir/Program.h"
#include "pta/Degrade.h"
#include "pta/Metrics.h"
#include "pta/Projection.h"
#include "pta/Solver.h"
#include "pta/Trace.h"
#include "pta/VariantRunner.h"
#include "support/Cancel.h"
#include "support/FaultPlan.h"
#include "workloads/Profiles.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace {

using namespace pt;

// One benchmark shared by every test: big enough that any budget's
// amortized guard polls fire long before convergence, small enough that a
// native run takes milliseconds.
const Program &luindex() {
  static Benchmark Bench = buildBenchmark("luindex");
  return *Bench.Prog;
}

AnalysisResult solve(const Program &Prog, ContextPolicy &Policy,
                     SolverOptions Opts = {}) {
  Solver S(Prog, Policy, Opts);
  return S.run();
}

/// Exact total fact count of a run — var, field, static, and throw facts
/// are precisely what the solver's fact budget counts.
size_t totalFacts(const AnalysisResult &R) {
  return R.numCsVarPointsTo() + R.numFieldPointsTo() +
         R.numStaticFieldPointsTo() + R.numThrowFacts();
}

/// Converged native result of \p PolicyName over luindex, cached.
struct NativeRun {
  std::unique_ptr<ContextPolicy> Policy;
  AnalysisResult Result;
};
const NativeRun &nativeRun(const std::string &PolicyName) {
  static std::map<std::string, std::unique_ptr<NativeRun>> Cache;
  std::unique_ptr<NativeRun> &Slot = Cache[PolicyName];
  if (!Slot) {
    std::unique_ptr<ContextPolicy> Policy = createPolicy(PolicyName, luindex());
    AnalysisResult R = solve(luindex(), *Policy);
    EXPECT_FALSE(R.Aborted) << PolicyName;
    Slot = std::make_unique<NativeRun>(
        NativeRun{std::move(Policy), std::move(R)});
  }
  return *Slot;
}

/// Asserts every fact of \p Partial is contained in \p Converged.
void expectContained(const AnalysisResult &Partial,
                     const AnalysisResult &Converged,
                     const std::string &What) {
  std::vector<CiViolation> Violations;
  size_t Missing =
      diffContainment(ciProject(Partial), ciProject(Converged), luindex(),
                      What, "converged", Violations);
  EXPECT_EQ(Missing, 0u) << What << ": "
                         << (Violations.empty() ? std::string("?")
                                                : Violations.front().Detail);
}

// --- FaultPlan parsing -------------------------------------------------

TEST(FaultPlan, ParsesEveryDirective) {
  FaultPlan Plan;
  std::string Error;
  ASSERT_TRUE(FaultPlan::parse(
      "oom-at-step=100,cancel-at-step=7,slow-rule=vcall,drop-scall", Plan,
      Error))
      << Error;
  EXPECT_EQ(Plan.OomAtStep, 100u);
  EXPECT_EQ(Plan.CancelAtStep, 7u);
  EXPECT_EQ(Plan.SlowRule, Rule::VCall);
  EXPECT_TRUE(Plan.DropSCall);
  EXPECT_TRUE(Plan.any());
}

TEST(FaultPlan, EmptySpecIsEmptyPlan) {
  FaultPlan Plan;
  std::string Error;
  ASSERT_TRUE(FaultPlan::parse("", Plan, Error));
  EXPECT_FALSE(Plan.any());
  EXPECT_EQ(Plan.spec(), "");
}

TEST(FaultPlan, RejectsMalformedDirectives) {
  FaultPlan Plan;
  std::string Error;
  EXPECT_FALSE(FaultPlan::parse("oom-at-step=", Plan, Error));
  EXPECT_FALSE(Error.empty());
  EXPECT_FALSE(FaultPlan::parse("explode-now", Plan, Error));
  EXPECT_FALSE(FaultPlan::parse("slow-rule=frobnicate", Plan, Error));
  EXPECT_FALSE(FaultPlan::parse("oom-at-step=12x", Plan, Error));
}

TEST(FaultPlan, SpecRoundTrips) {
  FaultPlan Plan;
  std::string Error;
  const std::string Spec = "oom-at-step=42,slow-rule=load";
  ASSERT_TRUE(FaultPlan::parse(Spec, Plan, Error));
  FaultPlan Again;
  ASSERT_TRUE(FaultPlan::parse(Plan.spec(), Again, Error));
  EXPECT_EQ(Again.OomAtStep, 42u);
  EXPECT_EQ(Again.SlowRule, Rule::Load);
  EXPECT_EQ(Plan.spec(), Again.spec());
}

TEST(FaultPlan, FromEnvReadsPlanAndLegacySpelling) {
  ASSERT_EQ(setenv("HYBRIDPT_FAULT_PLAN", "cancel-at-step=9", 1), 0);
  FaultPlan Plan = FaultPlan::fromEnv();
  EXPECT_EQ(Plan.CancelAtStep, 9u);
  ASSERT_EQ(unsetenv("HYBRIDPT_FAULT_PLAN"), 0);

  ASSERT_EQ(setenv("HYBRIDPT_TEST_BREAK", "drop-scall", 1), 0);
  FaultPlan Legacy = FaultPlan::fromEnv();
  EXPECT_TRUE(Legacy.DropSCall);
  ASSERT_EQ(unsetenv("HYBRIDPT_TEST_BREAK"), 0);

  EXPECT_FALSE(FaultPlan::fromEnv().any());
}

// --- Ladder derivation and validation ----------------------------------

TEST(Ladder, DerivedLadderDescendsToInsens) {
  std::vector<std::string> Rungs = fallbackLadder("2obj+H");
  ASSERT_GE(Rungs.size(), 2u);
  EXPECT_EQ(Rungs.front(), "2obj+H");
  EXPECT_EQ(Rungs.back(), "insens");
  // The preferred fallback of 2obj+H is 2type+H (first listed pair).
  EXPECT_EQ(Rungs[1], "2type+H");
  for (size_t I = 1; I < Rungs.size(); ++I)
    EXPECT_TRUE(isProvablyCoarser(Rungs[I - 1], Rungs[I]))
        << Rungs[I - 1] << " -> " << Rungs[I];
}

TEST(Ladder, EveryPolicyLaddersToInsens) {
  // "U-2obj+H-swapped" is the deliberate ledger gap: it has no
  // precision-order pairs, so its derived ladder stops at itself instead
  // of silently pretending insens is a proven fallback.
  for (const std::string &Name : allPolicyNames()) {
    std::vector<std::string> Rungs = fallbackLadder(Name);
    ASSERT_FALSE(Rungs.empty());
    EXPECT_EQ(Rungs.front(), Name);
    if (Name == "U-2obj+H-swapped") {
      EXPECT_EQ(Rungs, std::vector<std::string>{Name});
      continue;
    }
    EXPECT_EQ(Rungs.back(), "insens") << Name;
    std::string Error;
    EXPECT_TRUE(validateLadder(Rungs, Error)) << Name << ": " << Error;
  }
}

TEST(Ladder, CallSiteChainRoutesThroughCutShortcut) {
  // The cut-shortcut analyses slot between the call-site family and
  // insens: 1call ⊑ cs ⊑ S-cs ⊑ insens.
  EXPECT_EQ(fallbackLadder("1call"),
            (std::vector<std::string>{"1call", "cs", "S-cs", "insens"}));
  EXPECT_TRUE(isProvablyCoarser("1call", "cs"));
  EXPECT_TRUE(isProvablyCoarser("cs", "S-cs"));
  EXPECT_TRUE(isProvablyCoarser("S-cs", "insens"));
  // Object/type-sensitive analyses are incomparable with cs (an identity
  // method splits under 1obj but not under cs, and vice versa for
  // cut-covered stores), so their chains must not route through it.
  EXPECT_FALSE(isProvablyCoarser("1obj", "cs"));
  EXPECT_FALSE(isProvablyCoarser("2type+H", "cs"));
  EXPECT_FALSE(isProvablyCoarser("cs", "1obj"));
}

TEST(Ladder, ValidationRejectsBadLadders) {
  std::string Error;
  EXPECT_TRUE(validateLadder({"2obj+H", "2type+H", "insens"}, Error));
  // Ascending in precision.
  EXPECT_FALSE(validateLadder({"insens", "2obj+H"}, Error));
  EXPECT_FALSE(Error.empty());
  // Incomparable neighbours (2type+H is not provably coarser than 1obj).
  EXPECT_FALSE(validateLadder({"1obj", "2type+H"}, Error));
  // Unknown policy: the diagnostic names the offender.
  EXPECT_FALSE(validateLadder({"2obj+H", "frobnicate"}, Error));
  EXPECT_NE(Error.find("frobnicate"), std::string::npos) << Error;
  // A policy with no ledger pairs at all gets the sharper diagnostic —
  // naming the policy and the missing-pairs cause — instead of a generic
  // not-coarser message.
  EXPECT_FALSE(validateLadder({"U-2obj+H-swapped", "insens"}, Error));
  EXPECT_NE(Error.find("U-2obj+H-swapped"), std::string::npos) << Error;
  EXPECT_NE(Error.find("no precision-order pairs"), std::string::npos)
      << Error;
}

TEST(Ladder, PairlessPolicyFailsFastInsteadOfSilentInsens) {
  // Regression: fallbackLadder used to jump straight to insens for a
  // policy with no proven coarser neighbour, so --ladder silently ran an
  // unvalidated descent.  Now the derived ladder stops at the policy and
  // solveWithLadder refuses up front, naming it.
  LadderResult LR = solveWithLadder(luindex(), "U-2obj+H-swapped", {});
  EXPECT_FALSE(LR.Result.has_value());
  ASSERT_FALSE(LR.Error.empty());
  EXPECT_NE(LR.Error.find("U-2obj+H-swapped"), std::string::npos)
      << LR.Error;
  EXPECT_NE(LR.Error.find("no precision-order pairs"), std::string::npos)
      << LR.Error;
}

TEST(Ladder, PrecisionPairsAreProvable) {
  // Every canonical pair must itself satisfy the coarseness oracle the
  // ladder validation relies on.
  for (const auto &[Fine, Coarse] : precisionOrderPairs()) {
    EXPECT_TRUE(isProvablyCoarser(Fine, Coarse)) << Fine << " -> " << Coarse;
    EXPECT_FALSE(isProvablyCoarser(Coarse, Fine)) << Coarse << " -> " << Fine;
  }
}

// --- Abort soundness: every fault x every rung --------------------------

// A budget- or fault-aborted run stops mid-fixpoint; whatever it computed
// so far must be a subset of the converged result (a partial least
// fixpoint is always an under-approximation).  Exercised for every fault
// kind on every rung of the default 2obj+H ladder.
TEST(AbortSoundness, PartialFactsContainedForEveryFaultAndRung) {
  struct Fault {
    const char *Name;
    FaultPlan Plan;
    uint64_t MaxFacts = 0;
    AbortReason Want;
    bool Injected;
  };
  FaultPlan Oom, Cancel;
  Oom.OomAtStep = 300;
  Cancel.CancelAtStep = 300;
  const std::vector<Fault> Faults = {
      {"oom-at-step", Oom, 0, AbortReason::MemoryBudget, true},
      {"cancel-at-step", Cancel, 0, AbortReason::Cancelled, true},
      {"fact-budget", FaultPlan(), 1000, AbortReason::FactBudget, false},
  };

  // Every rung of the default 2obj+H ladder, plus the 1call ladder so the
  // cut-shortcut rungs (cs, S-cs) get the same every-fault treatment.
  std::vector<std::string> Rungs = fallbackLadder("2obj+H");
  for (const std::string &R : fallbackLadder("1call"))
    if (std::find(Rungs.begin(), Rungs.end(), R) == Rungs.end())
      Rungs.push_back(R);
  for (const std::string &Rung : Rungs) {
    const NativeRun &Converged = nativeRun(Rung);
    for (const Fault &F : Faults) {
      SolverOptions Opts;
      Opts.Faults = F.Plan;
      Opts.MaxFacts = F.MaxFacts;
      std::unique_ptr<ContextPolicy> Policy = createPolicy(Rung, luindex());
      AnalysisResult R = solve(luindex(), *Policy, Opts);
      std::string What = Rung + "/" + F.Name;
      ASSERT_TRUE(R.Aborted) << What;
      EXPECT_EQ(R.Reason, F.Want) << What;
      EXPECT_EQ(R.FaultInjected, F.Injected) << What;
      expectContained(R, Converged.Result, What);
      EXPECT_LT(totalFacts(R), totalFacts(Converged.Result)) << What;
    }
  }
}

// Aborts that land while calls are being wired: a fact budget that trips
// inside a body's instantiation leaves the body's remaining calls to be
// wired against an aborted solver, where ensureReachable returns NoIndex
// for every new callee frame.  Step faults land between worklist steps
// (both policies take over 3,000 steps on luindex).  Sweeping both across
// the run must keep every partial result inside the converged one.
TEST(AbortSoundness, AbortsWhileWiringCallsStayContained) {
  for (const std::string Name : {"2obj+H", "cs"}) {
    const NativeRun &Converged = nativeRun(Name);
    uint64_t Facts = totalFacts(Converged.Result);
    for (uint64_t I = 1; I <= 12; ++I) {
      std::vector<std::pair<std::string, SolverOptions>> Runs(3);
      Runs[0].first = "fact-budget";
      Runs[0].second.MaxFacts = Facts * I / 13;
      Runs[1].first = "oom-at-step";
      Runs[1].second.Faults.OomAtStep = 200 * I;
      Runs[2].first = "cancel-at-step";
      Runs[2].second.Faults.CancelAtStep = 200 * I;
      for (const auto &[Fault, Opts] : Runs) {
        std::unique_ptr<ContextPolicy> Policy = createPolicy(Name, luindex());
        AnalysisResult R = solve(luindex(), *Policy, Opts);
        std::string What = Name + "/" + Fault + "/" + std::to_string(I);
        ASSERT_TRUE(R.Aborted) << What;
        expectContained(R, Converged.Result, What);
      }
    }
  }
}

TEST(AbortSoundness, GenuineMemoryBudgetAborts) {
  std::unique_ptr<ContextPolicy> Policy = createPolicy("2obj+H", luindex());
  SolverOptions Opts;
  Opts.MemoryBudgetBytes = 1; // First amortized memory poll trips.
  AnalysisResult R = solve(luindex(), *Policy, Opts);
  ASSERT_TRUE(R.Aborted);
  EXPECT_EQ(R.Reason, AbortReason::MemoryBudget);
  EXPECT_FALSE(R.FaultInjected);
  expectContained(R, nativeRun("2obj+H").Result, "memory-budget");
}

TEST(AbortSoundness, TrippedCancelTokenAborts) {
  CancelToken Token;
  Token.cancel();
  std::unique_ptr<ContextPolicy> Policy = createPolicy("insens", luindex());
  SolverOptions Opts;
  Opts.Cancel = &Token;
  AnalysisResult R = solve(luindex(), *Policy, Opts);
  ASSERT_TRUE(R.Aborted);
  EXPECT_EQ(R.Reason, AbortReason::Cancelled);
  EXPECT_FALSE(R.FaultInjected);
  expectContained(R, nativeRun("insens").Result, "cancel-token");
}

TEST(AbortSoundness, SlowRuleForcesTimeBudgetDeterministically) {
  FaultPlan Plan;
  Plan.SlowRule = Rule::VCall;
  std::unique_ptr<ContextPolicy> Policy = createPolicy("insens", luindex());
  SolverOptions Opts;
  Opts.Faults = Plan;
  Opts.TimeBudgetMs = 1; // ~50us per v-call fire blows this immediately.
  AnalysisResult R = solve(luindex(), *Policy, Opts);
  ASSERT_TRUE(R.Aborted);
  EXPECT_EQ(R.Reason, AbortReason::TimeBudget);
  expectContained(R, nativeRun("insens").Result, "slow-rule");
}

TEST(AbortSoundness, DropSCallUnderApproximatesWithoutAborting) {
  FaultPlan Plan;
  Plan.DropSCall = true;
  std::unique_ptr<ContextPolicy> Policy = createPolicy("insens", luindex());
  SolverOptions Opts;
  Opts.Faults = Plan;
  AnalysisResult R = solve(luindex(), *Policy, Opts);
  // The legacy oracle self-test fault: a silently unsound result, not an
  // abort — but still an under-approximation of the true fixpoint.
  EXPECT_FALSE(R.Aborted);
  expectContained(R, nativeRun("insens").Result, "drop-scall");
  EXPECT_LT(R.reachableMethods().size(),
            nativeRun("insens").Result.reachableMethods().size());
}

// --- Fallback ladder end to end -----------------------------------------

// A fact budget between the insens total and the cheapest finer rung's
// total, computed from native runs so the test self-calibrates against
// workload changes.
uint64_t calibratedBudget(const std::vector<std::string> &Rungs) {
  size_t InsensTotal = totalFacts(nativeRun("insens").Result);
  size_t MinFiner = SIZE_MAX;
  for (const std::string &Rung : Rungs)
    if (Rung != "insens")
      MinFiner = std::min(MinFiner, totalFacts(nativeRun(Rung).Result));
  // The call-site family trades precision for *larger* fact sets on this
  // workload, which is exactly the gradient the ladder needs.
  EXPECT_LT(InsensTotal + 2, MinFiner)
      << "workload no longer separates insens from the finer rungs";
  return InsensTotal + (MinFiner - InsensTotal) / 2;
}

TEST(Ladder, LandsOnInsensAndMatchesNativeBitForBit) {
  // The derived ladder now routes the call-site family through the
  // cut-shortcut rungs before insens.
  ASSERT_EQ(fallbackLadder("2call+H"),
            (std::vector<std::string>{"2call+H", "1call+H", "1call", "cs",
                                      "S-cs", "insens"}));
  // cs/S-cs are contextless and at least as precise as insens, so their
  // fact totals do not carry the insens-vs-finer budget gradient this
  // test calibrates against; pin an explicit descent that skips them.
  // (Ladder.LandsOnCutShortcutRung covers landing on cs.)
  std::vector<std::string> Rungs = {"2call+H", "1call+H", "1call", "insens"};
  SolverOptions Opts;
  Opts.MaxFacts = calibratedBudget(Rungs);

  LadderOptions LOpts;
  LOpts.Rungs = {"1call+H", "1call", "insens"};
  LadderResult LR = solveWithLadder(luindex(), "2call+H", Opts, LOpts);
  ASSERT_TRUE(LR.Error.empty()) << LR.Error;
  ASSERT_TRUE(LR.Result.has_value());
  EXPECT_TRUE(LR.degraded());
  EXPECT_FALSE(LR.Exhausted);
  EXPECT_EQ(LR.RequestedPolicy, "2call+H");
  EXPECT_EQ(LR.FallbackFrom, "2call+H");
  EXPECT_EQ(LR.LandedPolicy, "insens");
  EXPECT_FALSE(LR.Result->Aborted);

  // The full trail: every finer rung aborted on the fact budget, the
  // landed rung converged.
  ASSERT_EQ(LR.Trail.size(), Rungs.size());
  for (size_t I = 0; I + 1 < LR.Trail.size(); ++I) {
    EXPECT_EQ(LR.Trail[I].Policy, Rungs[I]);
    EXPECT_EQ(LR.Trail[I].Reason, AbortReason::FactBudget);
  }
  EXPECT_EQ(LR.Trail.back().Reason, AbortReason::None);

  // Bit-for-bit: the landed result equals a cold native insens run in
  // every fact and every precision metric — warm starting included,
  // since seeding insens with a partial run's reachable set cannot
  // change its least fixpoint.
  const AnalysisResult &Native = nativeRun("insens").Result;
  EXPECT_TRUE(ciProject(*LR.Result) == ciProject(Native));
  PrecisionMetrics Landed = computeMetrics(*LR.Result);
  PrecisionMetrics Ref = computeMetrics(Native);
  EXPECT_EQ(Landed.AvgPointsTo, Ref.AvgPointsTo);
  EXPECT_EQ(Landed.CallGraphEdges, Ref.CallGraphEdges);
  EXPECT_EQ(Landed.ReachableMethods, Ref.ReachableMethods);
  EXPECT_EQ(Landed.PolyVCalls, Ref.PolyVCalls);
  EXPECT_EQ(Landed.MayFailCasts, Ref.MayFailCasts);
  EXPECT_EQ(Landed.CsVarPointsTo, Ref.CsVarPointsTo);
  EXPECT_EQ(Landed.FieldPointsTo, Ref.FieldPointsTo);
  EXPECT_EQ(Landed.ThrowFacts, Ref.ThrowFacts);
  EXPECT_EQ(Landed.NumContexts, Ref.NumContexts);
}

TEST(Ladder, LandsOnCutShortcutRung) {
  // A budget between the cs total and the cheapest call-site rung makes
  // the derived 1call ladder abort 1call and converge on cs — the new
  // rung is a genuine landing spot, not just a pass-through.
  size_t CsTotal = totalFacts(nativeRun("cs").Result);
  size_t FinerTotal = totalFacts(nativeRun("1call").Result);
  ASSERT_LT(CsTotal + 2, FinerTotal)
      << "workload no longer separates cs from 1call";
  SolverOptions Opts;
  Opts.MaxFacts = CsTotal + (FinerTotal - CsTotal) / 2;

  LadderResult LR = solveWithLadder(luindex(), "1call", Opts);
  ASSERT_TRUE(LR.Error.empty()) << LR.Error;
  ASSERT_TRUE(LR.Result.has_value());
  EXPECT_TRUE(LR.degraded());
  EXPECT_FALSE(LR.Exhausted);
  EXPECT_EQ(LR.LandedPolicy, "cs");
  EXPECT_FALSE(LR.Result->Aborted);
  ASSERT_EQ(LR.Trail.size(), 2u);
  EXPECT_EQ(LR.Trail[0].Policy, "1call");
  EXPECT_EQ(LR.Trail[0].Reason, AbortReason::FactBudget);
  EXPECT_EQ(LR.Trail[1].Policy, "cs");
  EXPECT_EQ(LR.Trail[1].Reason, AbortReason::None);
  // The landed result is bit-identical to a cold native cs run.
  const AnalysisResult &Native = nativeRun("cs").Result;
  EXPECT_TRUE(ciProject(*LR.Result) == ciProject(Native));
  PrecisionMetrics Landed = computeMetrics(*LR.Result);
  PrecisionMetrics Ref = computeMetrics(Native);
  EXPECT_EQ(Landed.CallGraphEdges, Ref.CallGraphEdges);
  EXPECT_EQ(Landed.MayFailCasts, Ref.MayFailCasts);
  EXPECT_EQ(Landed.CsVarPointsTo, Ref.CsVarPointsTo);
}

TEST(Ladder, CancellationStopsTheLadder) {
  FaultPlan Plan;
  Plan.CancelAtStep = 300;
  SolverOptions Opts;
  Opts.Faults = Plan;
  LadderResult LR = solveWithLadder(luindex(), "2obj+H", Opts);
  ASSERT_TRUE(LR.Result.has_value());
  // A cancelled run means the user wants out — no descent, the partial
  // result of the requested policy comes back as-is.
  EXPECT_FALSE(LR.degraded());
  EXPECT_EQ(LR.LandedPolicy, "2obj+H");
  EXPECT_TRUE(LR.Result->Aborted);
  EXPECT_EQ(LR.Result->Reason, AbortReason::Cancelled);
  ASSERT_EQ(LR.Trail.size(), 1u);
}

TEST(Ladder, ExhaustionReportsLastRungAborted) {
  SolverOptions Opts;
  Opts.MaxFacts = 500; // Aborts every rung.
  LadderOptions LOpts;
  LOpts.Rungs = {"2type+H", "insens"};
  LadderResult LR = solveWithLadder(luindex(), "2obj+H", Opts, LOpts);
  ASSERT_TRUE(LR.Error.empty()) << LR.Error;
  ASSERT_TRUE(LR.Result.has_value());
  EXPECT_TRUE(LR.Exhausted);
  EXPECT_TRUE(LR.degraded());
  EXPECT_EQ(LR.LandedPolicy, "insens");
  EXPECT_TRUE(LR.Result->Aborted);
  EXPECT_EQ(LR.Result->Reason, AbortReason::FactBudget);
  EXPECT_EQ(LR.Trail.size(), 3u);
}

TEST(Ladder, UnknownPolicyAndBadLadderFailFast) {
  LadderResult LR = solveWithLadder(luindex(), "frobnicate", {});
  EXPECT_FALSE(LR.Result.has_value());
  EXPECT_FALSE(LR.Error.empty());

  LadderOptions Bad;
  Bad.Rungs = {"2obj+H"}; // Not coarser than the requested 2obj+H.
  LadderResult LR2 = solveWithLadder(luindex(), "2obj+H", {}, Bad);
  EXPECT_FALSE(LR2.Result.has_value());
  EXPECT_FALSE(LR2.Error.empty());
}

// --- Final heartbeat on every abort path --------------------------------

TEST(AbortObservability, FinalHeartbeatCarriesAbortReason) {
  struct Case {
    const char *Name;
    FaultPlan Plan;
    uint64_t MaxFacts;
    const char *Want;
    /// Step-targeted faults trip mid-drain, so the final heartbeat must
    /// carry a nonzero step; a fact budget can trip during initial fact
    /// seeding, before the first worklist pop.
    bool WantSteps;
  };
  FaultPlan Oom, Cancel;
  Oom.OomAtStep = 300;
  Cancel.CancelAtStep = 300;
  const std::vector<Case> Cases = {
      {"oom", Oom, 0, "memory_budget", true},
      {"cancel", Cancel, 0, "cancelled", true},
      {"facts", FaultPlan(), 1000, "fact_budget", false},
  };
  for (const Case &C : Cases) {
    trace::TraceRecorder Rec;
    SolverOptions Opts;
    Opts.Faults = C.Plan;
    Opts.MaxFacts = C.MaxFacts;
    Opts.Trace = &Rec;
    Opts.TraceLabel = std::string("t/") + C.Name;
    std::unique_ptr<ContextPolicy> Policy = createPolicy("2obj+H", luindex());
    AnalysisResult R = solve(luindex(), *Policy, Opts);
    ASSERT_TRUE(R.Aborted) << C.Name;

    trace::Heartbeat HB;
    ASSERT_TRUE(Rec.lastHeartbeat(Opts.TraceLabel, HB)) << C.Name;
    EXPECT_TRUE(HB.Final) << C.Name;
    EXPECT_EQ(HB.Abort, C.Want) << C.Name;
    if (C.WantSteps) {
      EXPECT_GT(HB.Step, 0u) << C.Name;
    }
  }
}

TEST(AbortObservability, ConvergedRunHasNoAbortStamp) {
  trace::TraceRecorder Rec;
  SolverOptions Opts;
  Opts.Trace = &Rec;
  Opts.TraceLabel = "t/ok";
  std::unique_ptr<ContextPolicy> Policy = createPolicy("insens", luindex());
  AnalysisResult R = solve(luindex(), *Policy, Opts);
  ASSERT_FALSE(R.Aborted);
  trace::Heartbeat HB;
  ASSERT_TRUE(Rec.lastHeartbeat("t/ok", HB));
  EXPECT_TRUE(HB.Final);
  EXPECT_TRUE(HB.Abort.empty());
}

// --- Variant runner: retry semantics and ladder cells -------------------

TEST(VariantRunner, GenuineResourceAbortShortCircuitsRepetitions) {
  trace::TraceRecorder Rec;
  MatrixOptions M;
  M.Config.Solver.MaxFacts = 500;
  M.Config.Solver.Trace = &Rec;
  M.Runs = 3;
  M.TraceLabelPrefix = "rr/";
  std::vector<PrecisionMetrics> Cells =
      runVariantMatrix(luindex(), {"2obj+H"}, M);
  ASSERT_EQ(Cells.size(), 1u);
  EXPECT_TRUE(Cells[0].Aborted);
  EXPECT_EQ(Cells[0].Reason, AbortReason::FactBudget);
  // The same budget aborts every repetition identically, so the runner
  // stops after the first: exactly one final heartbeat.
  EXPECT_EQ(Rec.numHeartbeats(), 1u);
}

TEST(VariantRunner, InjectedFaultsDoNotShortCircuitRepetitions) {
  trace::TraceRecorder Rec;
  MatrixOptions M;
  M.Config.Solver.Faults.CancelAtStep = 300;
  M.Config.Solver.Trace = &Rec;
  M.Runs = 3;
  M.TraceLabelPrefix = "ri/";
  std::vector<PrecisionMetrics> Cells =
      runVariantMatrix(luindex(), {"2obj+H"}, M);
  ASSERT_EQ(Cells.size(), 1u);
  EXPECT_TRUE(Cells[0].Aborted);
  EXPECT_EQ(Cells[0].Reason, AbortReason::Cancelled);
  EXPECT_TRUE(Cells[0].FaultInjected);
  // Injected aborts are transient by definition: all three repetitions
  // ran (three final heartbeats), none was skipped.
  EXPECT_EQ(Rec.numHeartbeats(), 3u);
}

TEST(VariantRunner, LadderMatrixHasNoDashCells) {
  std::vector<std::string> Policies = {"2call+H", "1call+H", "insens"};
  MatrixOptions M;
  // Calibrate over the call-site rungs only: the derived ladder's cs/S-cs
  // rungs are contextless and as cheap as insens, so they sit below any
  // budget that lets insens converge — the descent lands on cs.
  M.Config.Solver.MaxFacts =
      calibratedBudget({"2call+H", "1call+H", "1call", "insens"});
  M.Config.Ladder = true;
  std::vector<PrecisionMetrics> Cells =
      runVariantMatrix(luindex(), Policies, M);
  ASSERT_EQ(Cells.size(), Policies.size());

  const AnalysisResult &Native = nativeRun("cs").Result;
  PrecisionMetrics Ref = computeMetrics(Native);
  for (size_t I = 0; I < Cells.size(); ++I) {
    const PrecisionMetrics &Cell = Cells[I];
    // The acceptance bar: with the ladder on, no cell is a dash.
    EXPECT_FALSE(Cell.Aborted) << Policies[I];
    if (Policies[I] == "insens") {
      EXPECT_TRUE(Cell.FallbackFrom.empty());
      continue;
    }
    // Finer cells degraded to the first converging rung — cs — and carry
    // its exact metrics.
    EXPECT_EQ(Cell.FallbackFrom, Policies[I]);
    EXPECT_EQ(Cell.LandedPolicy, "cs");
    ASSERT_GE(Cell.LadderTrail.size(), 2u) << Policies[I];
    EXPECT_EQ(Cell.CallGraphEdges, Ref.CallGraphEdges) << Policies[I];
    EXPECT_EQ(Cell.PolyVCalls, Ref.PolyVCalls) << Policies[I];
    EXPECT_EQ(Cell.MayFailCasts, Ref.MayFailCasts) << Policies[I];
    EXPECT_EQ(Cell.CsVarPointsTo, Ref.CsVarPointsTo) << Policies[I];
    EXPECT_EQ(Cell.AvgPointsTo, Ref.AvgPointsTo) << Policies[I];
  }
}

TEST(VariantRunner, LadderMatrixRunsAPairlessPolicyNatively) {
  // Ladder.PairlessPolicyFailsFastInsteadOfSilentInsens pins the single
  // run's refusal; in the matrix such a policy has no rung to descend to,
  // so its cell is the native run, not a reasonless dash.
  MatrixOptions M;
  M.Config.Ladder = true;
  std::vector<PrecisionMetrics> Cells =
      runVariantMatrix(luindex(), {"U-2obj+H-swapped"}, M);
  ASSERT_EQ(Cells.size(), 1u);
  const PrecisionMetrics &Cell = Cells[0];
  EXPECT_FALSE(Cell.Aborted);
  EXPECT_TRUE(Cell.FallbackFrom.empty());
  EXPECT_EQ(Cell.LandedPolicy, "U-2obj+H-swapped");
  PrecisionMetrics Ref = computeMetrics(nativeRun("U-2obj+H-swapped").Result);
  EXPECT_EQ(Cell.CsVarPointsTo, Ref.CsVarPointsTo);
  EXPECT_EQ(Cell.CallGraphEdges, Ref.CallGraphEdges);
  EXPECT_EQ(Cell.MayFailCasts, Ref.MayFailCasts);
}

// --- Ladder trace records -----------------------------------------------

TEST(Ladder, DescentEmitsLadderTraceRecords) {
  trace::TraceRecorder Rec;
  SolverOptions Opts;
  Opts.MaxFacts = calibratedBudget({"2call+H", "1call+H", "1call", "insens"});
  Opts.Trace = &Rec;
  Opts.TraceLabel = "lt/2call+H";
  LadderResult LR = solveWithLadder(luindex(), "2call+H", Opts);
  ASSERT_TRUE(LR.Result.has_value());
  // The derived descent lands on cs, the first rung cheap enough for the
  // budget (cs is contextless, so its fact total sits at or below insens).
  EXPECT_EQ(LR.LandedPolicy, "cs");
  // Each fallback rung ran under a "~rung" sub-label so its heartbeat
  // series stays monotone per label; the landed rung's final heartbeat is
  // queryable under that sub-label.
  trace::Heartbeat HB;
  EXPECT_TRUE(Rec.lastHeartbeat("lt/2call+H", HB));
  EXPECT_TRUE(Rec.lastHeartbeat("lt/2call+H~cs", HB));
  EXPECT_TRUE(HB.Final);
  EXPECT_TRUE(HB.Abort.empty());
}

} // namespace
