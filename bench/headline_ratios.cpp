//===- bench/headline_ratios.cpp - The paper's headline claims ------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Computes, over the full benchmark suite, the aggregate numbers the
/// paper quotes in its introduction and Section 4:
///
///  * "keeping one call-site and one allocation site as context [U-1obj]
///    yields a very expensive analysis, on average 3.9x slower than a
///    simple 1-object-sensitive analysis";
///  * "for ... 2-object-sensitive with a context-sensitive heap, we get an
///    average speedup of 1.53x [S-2obj+H vs 2obj+H] and a more precise
///    analysis";
///  * "for the simple and popular 1-object-sensitive analysis, we get an
///    average speedup of 1.12x combined with significant increase in
///    precision" [SA/SB-1obj vs 1obj];
///  * selective hybrids "closely approach the precision of the much more
///    costly uniform hybrids";
///  * uniform hybrids are "often 3x or more slower than their base
///    analyses with twice as large, or more, context-sensitive points-to
///    sets".
///
/// Geometric means over benchmarks; aborted cells are excluded pairwise
/// and reported.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "ir/Program.h"
#include "support/TableWriter.h"
#include "workloads/Profiles.h"

#include <cmath>
#include <iostream>
#include <map>
#include <string>
#include <vector>

using namespace pt;

namespace {

struct Cells {
  // metrics[policy] for one benchmark
  std::map<std::string, PrecisionMetrics> M;
};

/// Geometric mean of per-benchmark ratios Get(A)/Get(B); skips pairs with
/// aborted cells or zero denominators.
template <typename Getter>
double geoRatio(const std::vector<Cells> &All, const std::string &A,
                const std::string &B, Getter Get, size_t &Used) {
  double LogSum = 0;
  Used = 0;
  for (const Cells &C : All) {
    auto ItA = C.M.find(A), ItB = C.M.find(B);
    if (ItA == C.M.end() || ItB == C.M.end())
      continue;
    if (ItA->second.Aborted || ItB->second.Aborted)
      continue;
    double VA = Get(ItA->second), VB = Get(ItB->second);
    if (VA <= 0 || VB <= 0)
      continue;
    LogSum += std::log(VA / VB);
    ++Used;
  }
  return Used ? std::exp(LogSum / static_cast<double>(Used)) : 0.0;
}

double timeOf(const PrecisionMetrics &M) { return M.SolveMs; }
double factsOf(const PrecisionMetrics &M) {
  return static_cast<double>(M.CsVarPointsTo);
}
double castsOf(const PrecisionMetrics &M) {
  return static_cast<double>(M.MayFailCasts);
}

void printRatio(const std::vector<Cells> &All, const char *Claim,
                const std::string &A, const std::string &B) {
  size_t UsedT, UsedF, UsedC;
  double T = geoRatio(All, A, B, timeOf, UsedT);
  double F = geoRatio(All, A, B, factsOf, UsedF);
  double C = geoRatio(All, A, B, castsOf, UsedC);
  std::cout << Claim << "\n    " << A << " / " << B
            << ": time x" << formatFixed(T, 2) << ", cs-facts x"
            << formatFixed(F, 2) << ", may-fail casts x" << formatFixed(C, 2)
            << "   (over " << UsedT << " benchmarks)\n\n";
}

} // namespace

int main(int argc, char **argv) {
  MatrixOptions Opts =
      parseBenchArgs(argc, argv, FlagBudget | FlagRuns | FlagLadder,
                     nullptr, "--budget MS, --runs N, --ladder")
          .matrix();
  const std::vector<std::string> Policies = {
      "1obj", "U-1obj", "SA-1obj", "SB-1obj",
      "2obj+H", "U-2obj+H", "S-2obj+H",
      "2type+H", "U-2type+H", "S-2type+H"};

  std::vector<Cells> All;
  for (const std::string &Name : benchmarkNames()) {
    LoadedProgram Bench = loadProgram(Name);
    std::vector<PrecisionMetrics> Row =
        runVariantMatrix(*Bench.Prog, Policies, Opts);
    Cells C;
    for (size_t I = 0; I < Policies.size(); ++I)
      C.M.emplace(Policies[I], std::move(Row[I]));
    All.push_back(std::move(C));
    std::cout << "measured " << Name << "\n";
  }
  std::cout << "\nHeadline aggregates (geometric means; ratios < 1 mean "
               "the first analysis is cheaper/more precise):\n\n";

  printRatio(All,
             "Paper claim: U-1obj is ~3.9x slower than 1obj "
             "(uniform hybrids are bad time tradeoffs).",
             "U-1obj", "1obj");
  printRatio(All,
             "Paper claim: S-2obj+H is ~1.53x faster than 2obj+H "
             "(time ratio below 1) while more precise (cast ratio "
             "below 1).",
             "S-2obj+H", "2obj+H");
  printRatio(All,
             "Paper claim: the selective 1obj hybrids give a ~1.12x "
             "speedup over 1obj with a precision gain.",
             "SA-1obj", "1obj");
  printRatio(All, "Same, for the guaranteed-refinement variant SB-1obj.",
             "SB-1obj", "1obj");
  printRatio(All,
             "Paper claim: selective approaches uniform precision at a "
             "fraction of the cost (cast ratio near 1, time well below).",
             "S-2obj+H", "U-2obj+H");
  printRatio(All, "Same, in the type-sensitive family.", "S-2type+H",
             "U-2type+H");
  printRatio(All,
             "Paper claim: uniform hybrids cost 2x+ facts over their base.",
             "U-2obj+H", "2obj+H");
  printRatio(All, "S-2type+H vs its base (paper: as fast or faster, "
                  "more precise).",
             "S-2type+H", "2type+H");
  return 0;
}
