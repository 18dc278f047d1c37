//===- bench/ablation_context_choice.cpp - Section 3 design insights ------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures the design-space points the paper *argues against* (and one it
/// proposes as future work), next to the published configurations:
///
///  * U-2obj+HI — call-site heap contexts ("this combination is a bad
///    choice, due to the poor payoff of call-site heap contexts");
///  * U-2obj+H-swapped — inverted significance order ("it is not
///    reasonable to invert the natural significance order of heap vs.
///    hctx");
///  * D-2obj+H — Section 6's depth-adaptive MERGESTATIC.
///
/// Rows are printed per benchmark so the pathologies are visible where
/// they occur.
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
    Selected = {"antlr", "bloat", "hsqldb", "xalan"};

  const std::vector<std::string> Policies = {
      "2obj+H", "S-2obj+H", "U-2obj+H", "U-2obj+HI", "U-2obj+H-swapped",
      "D-2obj+H"};

  std::cout << "Context-choice ablation (paper Section 3 insights + "
               "Section 6 future work):\n\n";

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
    Row("call-graph edges",
        [](const PrecisionMetrics &M) { return double(M.CallGraphEdges); },
        0);
    std::vector<std::string> TimeRow = {"elapsed time (s)"};
    std::vector<std::string> FactRow = {"sensitive var-points-to"};
    std::vector<std::string> HctxRow = {"heap contexts"};
    for (const PrecisionMetrics &M : Cells) {
      TimeRow.push_back(M.Aborted ? "-" : formatSeconds(M.SolveMs));
      FactRow.push_back(M.Aborted ? "-" : formatFactCount(M.CsVarPointsTo));
      HctxRow.push_back(std::to_string(M.NumHContexts));
    }
    T.addRow(TimeRow);
    T.addRow(FactRow);
    T.addRow(HctxRow);

    std::cout << "=== " << Name << " ===\n";
    T.print(std::cout);
    std::cout << "\n";
  }

  std::cout
      << "Expected shapes: U-2obj+HI multiplies heap contexts for little\n"
         "cast precision; the swapped order loses precision outright;\n"
         "D-2obj+H sits between S-2obj+H and U-2obj+H.\n";
  return 0;
}
