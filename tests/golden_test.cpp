//===- tests/golden_test.cpp - Pinned end-to-end results ------------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
// Locks the exact metric values of one benchmark under every policy.
// Generation is seeded and the solver is deterministic, so any change to
// these numbers means a semantic change to the generator, a policy, or
// the solver — which must be a conscious decision (regenerate the table
// below by running every policy over `luindex` and updating the rows).
//
// Also pins the bytes of every exported relation (tests/baselines/
// fact_dumps.txt): a solver refactor must reproduce each digest.
//
//===----------------------------------------------------------------------===//

#include "context/PolicyRegistry.h"
#include "ir/Program.h"
#include "irtext/TextFormat.h"
#include "pta/AnalysisResult.h"
#include "pta/FactWriter.h"
#include "pta/Metrics.h"
#include "pta/Solver.h"
#include "workloads/Profiles.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

namespace {

using namespace pt;

struct GoldenRow {
  size_t CsVarPointsTo;
  size_t CallGraphEdges;
  size_t PolyVCalls;
  size_t MayFailCasts;
  size_t ReachableMethods;
  size_t FieldPointsTo;
};

const std::map<std::string, GoldenRow> &goldenLuindex() {
  static const std::map<std::string, GoldenRow> Rows = {
      {"insens", {17006, 2110, 174, 213, 241, 2915}},
      {"1call", {19353, 1767, 128, 152, 241, 779}},
      {"1call+H", {21029, 1614, 117, 145, 241, 1759}},
      {"1obj", {13502, 1534, 148, 182, 241, 1376}},
      {"U-1obj", {16797, 1431, 103, 122, 241, 639}},
      {"SA-1obj", {9015, 1500, 116, 133, 241, 639}},
      {"SB-1obj", {8987, 1454, 116, 133, 241, 639}},
      {"2obj+H", {10621, 1279, 108, 143, 241, 1650}},
      {"U-2obj+H", {10731, 1183, 63, 83, 241, 913}},
      {"S-2obj+H", {7646, 1199, 69, 87, 241, 913}},
      {"2type+H", {10513, 1301, 122, 157, 241, 1624}},
      {"U-2type+H", {10797, 1205, 77, 97, 241, 882}},
      {"S-2type+H", {7573, 1221, 83, 101, 241, 887}},
      {"U-2obj+HI", {17379, 1278, 92, 115, 241, 1204}},
      {"U-2obj+H-swapped", {16797, 1431, 103, 122, 241, 639}},
      {"D-2obj+H", {7646, 1199, 69, 87, 241, 913}},
      {"3obj+2H", {8922, 1201, 100, 135, 241, 1689}},
      {"2call+H", {22877, 1291, 87, 108, 241, 1336}},
      {"cs", {11859, 1813, 139, 187, 241, 1745}},
      {"S-cs", {12622, 2025, 157, 200, 241, 1745}},
  };
  return Rows;
}

class GoldenLuindex : public ::testing::TestWithParam<std::string> {};

TEST_P(GoldenLuindex, MetricsMatchPinnedValues) {
  static Benchmark Bench = buildBenchmark("luindex");
  const std::string &Name = GetParam();
  const GoldenRow &Want = goldenLuindex().at(Name);

  auto Policy = createPolicy(Name, *Bench.Prog);
  ASSERT_NE(Policy, nullptr);
  Solver S(*Bench.Prog, *Policy);
  PrecisionMetrics M = computeMetrics(S.run());

  EXPECT_EQ(M.CsVarPointsTo, Want.CsVarPointsTo);
  EXPECT_EQ(M.CallGraphEdges, Want.CallGraphEdges);
  EXPECT_EQ(M.PolyVCalls, Want.PolyVCalls);
  EXPECT_EQ(M.MayFailCasts, Want.MayFailCasts);
  EXPECT_EQ(M.ReachableMethods, Want.ReachableMethods);
  EXPECT_EQ(M.FieldPointsTo, Want.FieldPointsTo);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, GoldenLuindex, ::testing::ValuesIn(allPolicyNames()),
    [](const ::testing::TestParamInfo<std::string> &Info) {
      std::string Name = Info.param;
      for (char &C : Name)
        if (C == '-' || C == '+')
          C = '_';
      return Name;
    });

TEST(Golden, CoversEveryRegisteredPolicy) {
  for (const std::string &Name : allPolicyNames())
    EXPECT_TRUE(goldenLuindex().count(Name))
        << "no golden row for new policy '" << Name
        << "' — extend tests/golden_test.cpp";
}

// --- Fact dumps ---

std::string slurp(const std::filesystem::path &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// FNV-1a over the bytes of one relation's .facts rendering.
std::string digestHex(const std::string &Bytes) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (unsigned char C : Bytes) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  char Hex[17];
  std::snprintf(Hex, sizeof(Hex), "%016llx",
                static_cast<unsigned long long>(H));
  return Hex;
}

/// One baseline line: the cell, then each relation's digest in the order
/// writeFacts writes them.
std::string factDumpLine(const std::string &Label, const std::string &Policy,
                         const AnalysisResult &R) {
  using Writer = void (*)(const AnalysisResult &, std::ostream &);
  const Writer Writers[] = {writeMethodThrows,  writeVarPointsTo,
                            writeFieldPointsTo, writeStaticFieldPointsTo,
                            writeCallGraph,     writeReachable};
  std::string Line = Label + ' ' + Policy;
  for (Writer W : Writers) {
    std::ostringstream OS;
    W(R, OS);
    Line += ' ' + digestHex(OS.str());
  }
  return Line + '\n';
}

// Every exported relation of every example program, luindex and antlr
// under every registered policy, pinned byte for byte.  Output order
// matters here (MethodThrows rows follow the solver's harvest order), so
// this catches a refactor that keeps the fact sets but reorders them.
TEST(Golden, FactDumpsMatchThePinnedDigests) {
  std::vector<std::filesystem::path> Examples;
  for (const auto &Entry :
       std::filesystem::directory_iterator(HYBRIDPT_EXAMPLES_DIR))
    if (Entry.path().extension() == ".ptir")
      Examples.push_back(Entry.path());
  std::sort(Examples.begin(), Examples.end());
  ASSERT_GE(Examples.size(), 7u);

  std::string Got;
  auto Dump = [&Got](const std::string &Label, const Program &Prog) {
    for (const std::string &Name : allPolicyNames()) {
      auto Policy = createPolicy(Name, Prog);
      ASSERT_NE(Policy, nullptr) << Name;
      AnalysisResult R = solveProgram(Prog, *Policy);
      ASSERT_FALSE(R.Aborted) << Label << ' ' << Name;
      Got += factDumpLine(Label, Name, R);
    }
  };
  for (const std::filesystem::path &Path : Examples) {
    ParseResult Parsed = parseProgram(slurp(Path));
    ASSERT_TRUE(Parsed.ok()) << Path;
    Dump(Path.filename().string(), *Parsed.Prog);
  }
  for (const char *Name : {"luindex", "antlr"})
    Dump(Name, *buildBenchmark(Name).Prog);

  std::istringstream Baseline(slurp(
      std::filesystem::path(HYBRIDPT_BASELINES_DIR) / "fact_dumps.txt"));
  std::string Want, Line;
  while (std::getline(Baseline, Line))
    if (!Line.empty() && Line[0] != '#')
      Want += Line + '\n';
  EXPECT_EQ(Got, Want) << "actual fact-dump digests:\n" << Got;
}

} // namespace
