//===- tests/fuzz_harness_test.cpp - Differential harness self-test -------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
// Exercises the hybridpt-fuzz subsystem itself: a clean corpus stays
// clean, an injected solver fault is caught by the oracles and
// delta-debugged to a tiny reproducer, the minimizer honors its
// predicate, and the checked-in regression corpus replays without
// violations.
//
//===----------------------------------------------------------------------===//

#include "context/PolicyRegistry.h"
#include "fuzz/Driver.h"
#include "fuzz/Oracle.h"
#include "ir/Program.h"
#include "irtext/TextFormat.h"
#include "workloads/Fuzzer.h"
#include "workloads/Shrink.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace {

using namespace pt;

std::string slurp(const std::filesystem::path &Path) {
  std::ifstream In(Path);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

TEST(FuzzHarness, CorpusIsClean) {
  fuzz::DriverOptions Opts;
  Opts.Seed = 1;
  Opts.MaxPrograms = 40;
  Opts.Minimize = false;
  Opts.FullDiffEvery = 20;
  fuzz::DriverResult R = fuzz::runFuzz(Opts);
  EXPECT_EQ(R.ProgramsRun, 40u);
  EXPECT_TRUE(R.ok()) << (R.FailureSummaries.empty()
                              ? ""
                              : R.FailureSummaries.front());
}

TEST(FuzzHarness, InjectedBugIsCaughtAndMinimized) {
  std::filesystem::path Dir =
      std::filesystem::path(::testing::TempDir()) / "hybridpt-fuzz-regress";
  std::filesystem::create_directories(Dir);

  // The solver reads HYBRIDPT_TEST_BREAK at construction, so setting it
  // here breaks every solver run inside the campaign (but nothing after
  // the unsetenv).
  ASSERT_EQ(setenv("HYBRIDPT_TEST_BREAK", "drop-scall", 1), 0);
  fuzz::DriverOptions Opts;
  Opts.Seed = 1;
  Opts.MaxPrograms = 20;
  Opts.MaxFailures = 1;
  Opts.RegressDir = Dir.string();
  fuzz::DriverResult R = fuzz::runFuzz(Opts);
  unsetenv("HYBRIDPT_TEST_BREAK");

  ASSERT_FALSE(R.ok());
  EXPECT_GT(R.TotalViolations, 0u);
  ASSERT_FALSE(R.ReproducerPaths.empty());

  ParseResult Repro = parseProgram(slurp(R.ReproducerPaths.front()));
  ASSERT_TRUE(Repro.ok()) << (Repro.Errors.empty() ? ""
                                                   : Repro.Errors.front());
  // The acceptance bar for the minimizer: a handful of instructions, not
  // the original program.
  EXPECT_LE(Repro.Prog->numInstructions(), 15u);

  // With the fault gone the reproducer must be clean — that is exactly
  // the contract the checked-in regression corpus relies on.
  fuzz::OracleReport Clean = fuzz::checkProgram(*Repro.Prog);
  EXPECT_TRUE(Clean.ok()) << (Clean.Violations.empty()
                                  ? ""
                                  : Clean.Violations.front().Detail);
}

TEST(FuzzHarness, PrecisionPairsNameKnownPolicies) {
  const auto &Pairs = precisionOrderPairs();
  EXPECT_FALSE(Pairs.empty());
  const auto &All = allPolicyNames();
  for (const auto &[Fine, Coarse] : Pairs) {
    EXPECT_NE(Fine, Coarse);
    EXPECT_NE(std::find(All.begin(), All.end(), Fine), All.end()) << Fine;
    EXPECT_NE(std::find(All.begin(), All.end(), Coarse), All.end())
        << Coarse;
  }
}

TEST(FuzzHarness, ShrinkReducesToPredicateCore) {
  auto Seed = fuzzProgram(7);
  // Heaps exist iff an alloc instruction survived the rebuild, so this
  // predicate pins exactly one alloc as the minimal core.
  auto HasAlloc = [](const Program &P) { return P.numHeaps() >= 1; };
  ASSERT_TRUE(HasAlloc(*Seed));

  ShrinkResult R = shrinkProgram(*Seed, HasAlloc);
  ASSERT_NE(R.Minimized, nullptr);
  EXPECT_TRUE(HasAlloc(*R.Minimized));
  EXPECT_LE(R.InstrAfter, R.InstrBefore);
  EXPECT_LE(R.Minimized->numInstructions(), 2u);
  EXPECT_GT(R.Probes, 0u);
}

TEST(FuzzHarness, RegressCorpusReplaysClean) {
  size_t Count = 0;
  for (const auto &Entry :
       std::filesystem::directory_iterator(HYBRIDPT_REGRESS_DIR)) {
    if (Entry.path().extension() != ".ptir")
      continue;
    ++Count;
    SCOPED_TRACE(Entry.path().filename().string());
    ParseResult P = parseProgram(slurp(Entry.path()));
    ASSERT_TRUE(P.ok()) << (P.Errors.empty() ? "" : P.Errors.front());
    fuzz::OracleReport Report = fuzz::checkProgram(*P.Prog);
    EXPECT_TRUE(Report.ok()) << (Report.Violations.empty()
                                     ? ""
                                     : Report.Violations.front().Detail);
  }
  EXPECT_GE(Count, 1u);
}

} // namespace
