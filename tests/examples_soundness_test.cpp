//===- tests/examples_soundness_test.cpp - examples/ smoke ----------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
// Runs the full differential harness (soundness + reference equivalence
// + precision ordering) over every checked-in program under
// examples/programs/.  The default oracle policy set is the fifteen
// standard analyses, i.e. every Table 1 policy plus insens, so this is
// the "every example, every analysis" smoke promised in
// docs/CORRECTNESS.md.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Oracle.h"
#include "ir/Program.h"
#include "irtext/TextFormat.h"

#include <gtest/gtest.h>

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

TEST(ExamplesSoundness, EveryProgramCleanUnderEveryPaperPolicy) {
  size_t Count = 0;
  for (const auto &Entry :
       std::filesystem::directory_iterator(HYBRIDPT_EXAMPLES_DIR)) {
    if (Entry.path().extension() != ".ptir")
      continue;
    ++Count;
    SCOPED_TRACE(Entry.path().filename().string());

    ParseResult Parsed = parseProgram(slurp(Entry.path()));
    ASSERT_TRUE(Parsed.ok())
        << (Parsed.Errors.empty() ? "" : Parsed.Errors.front());

    fuzz::OracleOptions Opts;
    Opts.InterpRuns = 3;
    Opts.FullReferenceDiff = true;
    fuzz::OracleReport Report = fuzz::checkProgram(*Parsed.Prog, Opts);
    EXPECT_TRUE(Report.AbortedPolicies.empty());
    EXPECT_TRUE(Report.ok()) << (Report.Violations.empty()
                                     ? ""
                                     : Report.Violations.front().Detail);
    // The interpreter must have actually executed something, or the
    // soundness leg is vacuous.
    EXPECT_GT(Report.ConcreteFacts, 0u);
  }
  EXPECT_GE(Count, 5u);
}

// The cut-shortcut chain's new precision pairs (1call ⊑ cs ⊑ S-cs ⊑
// insens), pinned explicitly through the ordering + monotonicity +
// provenance-replay oracles on every example — the
// default smoke above covers them too (cs/S-cs are standard analyses
// now), but this test keeps failing output focused on the cs family.
TEST(ExamplesSoundness, CutShortcutChainOrderedOnEveryExample) {
  for (const auto &Entry :
       std::filesystem::directory_iterator(HYBRIDPT_EXAMPLES_DIR)) {
    if (Entry.path().extension() != ".ptir")
      continue;
    SCOPED_TRACE(Entry.path().filename().string());
    ParseResult Parsed = parseProgram(slurp(Entry.path()));
    ASSERT_TRUE(Parsed.ok());

    fuzz::OracleOptions Opts;
    Opts.Policies = {"1call", "cs", "S-cs", "insens"};
    Opts.FullReferenceDiff = true;
    Opts.CheckProvenance = true;
    Opts.ProvenanceStride = 1; // Replay every shortcut derivation.
    fuzz::OracleReport Report = fuzz::checkProgram(*Parsed.Prog, Opts);
    EXPECT_TRUE(Report.ok()) << (Report.Violations.empty()
                                     ? ""
                                     : Report.Violations.front().Detail);
  }
}

// Every example also round-trips through the printer — they double as
// parser/printer fixtures.
TEST(ExamplesSoundness, EveryProgramRoundTrips) {
  for (const auto &Entry :
       std::filesystem::directory_iterator(HYBRIDPT_EXAMPLES_DIR)) {
    if (Entry.path().extension() != ".ptir")
      continue;
    SCOPED_TRACE(Entry.path().filename().string());
    ParseResult Parsed = parseProgram(slurp(Entry.path()));
    ASSERT_TRUE(Parsed.ok());
    std::string Printed = printProgram(*Parsed.Prog);
    ParseResult Again = parseProgram(Printed);
    ASSERT_TRUE(Again.ok())
        << (Again.Errors.empty() ? "" : Again.Errors.front());
    EXPECT_EQ(printProgram(*Again.Prog), Printed);
    EXPECT_EQ(Again.Prog->numVars(), Parsed.Prog->numVars());
    EXPECT_EQ(Again.Prog->numInstructions(),
              Parsed.Prog->numInstructions());
  }
}

} // namespace
