//===- bench/deeper_contexts.cpp - Depth vs. hybrid tradeoff --------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures the paper's depth argument (Sections 2.2 and 6): "Deeper
/// contexts or heap contexts (e.g., 2call+H, 2obj+2H, 3obj, etc.) quickly
/// make an analysis intractable", which motivates selective hybrids as the
/// cheaper path to precision.  Compares the depth ladder — 1obj, 2obj+H,
/// 3obj+2H, 1call, 2call+H — against the selective hybrid S-2obj+H on a
/// few benchmarks.
///
/// Expected shape: 3obj+2H buys precision at a steep superlinear cost
/// (often hitting the budget), while S-2obj+H reaches most of that
/// precision at a fraction of the price — the paper's thesis.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "ir/Program.h"
#include "support/TableWriter.h"
#include "workloads/Profiles.h"

#include <iostream>

using namespace pt;

int main(int argc, char **argv) {
  std::vector<std::string> Selected;
  MatrixOptions Opts =
      parseBenchArgs(argc, argv, FlagBudget | FlagRuns | FlagLadder,
                     &Selected, "--budget MS, --runs N, --ladder")
          .matrix();
  if (Selected.empty())
    Selected = {"luindex", "antlr", "xalan", "bloat"};

  const std::vector<std::string> Policies = {
      "1call", "2call+H", "1obj", "2obj+H", "3obj+2H", "S-2obj+H"};

  std::cout << "Context-depth ladder vs. the selective hybrid.\n"
            << "(dash = per-cell budget of " << Opts.Config.Solver.TimeBudgetMs
            << " ms expired)\n\n";

  for (const std::string &Name : Selected) {
    LoadedProgram Bench = loadProgram(Name);
    TableWriter T;
    std::vector<std::string> Header = {"metric"};
    for (const std::string &P : Policies)
      Header.push_back(P);
    T.setHeader(Header);

    std::vector<PrecisionMetrics> Cells =
        runVariantMatrix(*Bench.Prog, Policies, Opts);

    auto Row = [&](const std::string &Label, auto Get, int Dec) {
      std::vector<std::string> Cols = {Label};
      for (const PrecisionMetrics &M : Cells)
        Cols.push_back(M.Aborted ? "-" : formatFixed(Get(M), Dec));
      T.addRow(Cols);
    };
    Row("may-fail casts",
        [](const PrecisionMetrics &M) { return double(M.MayFailCasts); }, 0);
    Row("poly v-calls",
        [](const PrecisionMetrics &M) { return double(M.PolyVCalls); }, 0);
    std::vector<std::string> TimeRow = {"elapsed time (s)"};
    std::vector<std::string> FactRow = {"sensitive var-points-to"};
    std::vector<std::string> CtxRow = {"method contexts"};
    for (const PrecisionMetrics &M : Cells) {
      TimeRow.push_back(M.Aborted ? "-" : formatSeconds(M.SolveMs));
      FactRow.push_back(M.Aborted ? "-" : formatFactCount(M.CsVarPointsTo));
      CtxRow.push_back(std::to_string(M.NumContexts));
    }
    T.addRow(TimeRow);
    T.addRow(FactRow);
    T.addRow(CtxRow);

    std::cout << "=== " << Name << " ===\n";
    T.print(std::cout);
    std::cout << "\n";
  }
  return 0;
}
