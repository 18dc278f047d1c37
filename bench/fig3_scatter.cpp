//===- bench/fig3_scatter.cpp - Reproduce the paper's Figure 3 ------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates the paper's Figure 3: per benchmark, a scatter of execution
/// time (Y) against may-fail casts (X) over all fourteen analyses — "an
/// analysis that is to the left and below another is better in both
/// precision and performance".
///
/// Output per benchmark: a CSV series plus an ASCII scatter with the Y
/// axis clipped like the paper's (out-of-bounds points are drawn at the
/// top with their real time in parentheses).
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "context/PolicyRegistry.h"
#include "ir/Program.h"
#include "support/TableWriter.h"
#include "workloads/Profiles.h"

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

using namespace pt;

namespace {

struct Point {
  std::string Policy;
  double TimeMs;
  size_t Casts;
  bool Aborted;
};

void asciiScatter(const std::vector<Point> &Points) {
  // Layout: 56 columns x 18 rows.  Y clip at 3x the median time.
  const int Width = 56, Height = 16;
  std::vector<double> Times;
  for (const Point &P : Points)
    if (!P.Aborted)
      Times.push_back(P.TimeMs);
  if (Times.empty())
    return;
  std::sort(Times.begin(), Times.end());
  double ClipMs = std::max(Times[Times.size() / 2] * 3.0, Times.front() + 1);
  size_t MinX = SIZE_MAX, MaxX = 0;
  for (const Point &P : Points) {
    if (P.Aborted)
      continue;
    MinX = std::min(MinX, P.Casts);
    MaxX = std::max(MaxX, P.Casts);
  }
  if (MinX >= MaxX)
    MaxX = MinX + 1;

  std::vector<std::string> Canvas(Height + 1, std::string(Width + 1, ' '));
  std::vector<std::string> Clipped;
  char Label = 'a';
  std::cout << "  key:";
  for (const Point &P : Points) {
    std::cout << "  " << Label << "=" << P.Policy;
    if (P.Aborted) {
      ++Label;
      continue;
    }
    int X = static_cast<int>(
        static_cast<double>(P.Casts - MinX) /
        static_cast<double>(MaxX - MinX) * Width);
    double ClampedTime = std::min(P.TimeMs, ClipMs);
    int Y = Height - static_cast<int>(ClampedTime / ClipMs * Height);
    if (P.TimeMs > ClipMs) {
      Y = 0;
      Clipped.push_back(std::string(1, Label) + " (" +
                        formatSeconds(P.TimeMs) + "s)");
    }
    Canvas[Y][X] = Label;
    ++Label;
  }
  std::cout << "\n";
  if (!Clipped.empty()) {
    std::cout << "  clipped at top:";
    for (const std::string &C : Clipped)
      std::cout << ' ' << C;
    std::cout << "\n";
  }
  std::cout << "  time\n";
  for (const std::string &RowText : Canvas)
    std::cout << "  |" << RowText << "\n";
  std::cout << "  +" << std::string(Width + 1, '-')
            << "-> may-fail casts (" << MinX << ".." << MaxX << ")\n";
}

} // namespace

int main(int argc, char **argv) {
  // The paper's figure shows eight of the ten benchmarks.
  std::vector<std::string> Selected = {"antlr",  "bloat",    "chart",
                                       "eclipse", "luindex", "lusearch",
                                       "pmd",     "xalan"};
  bool Csv = false;
  std::vector<std::string> Named;
  MatrixOptions Opts =
      parseBenchArgs(argc, argv, FlagBudget | FlagRuns | FlagLadder, &Named,
                     "--csv, --budget MS, --runs N, --ladder",
                     [&](ArgParser &Args) {
                       if (!Args.is("--csv"))
                         return false;
                       Csv = true;
                       return true;
                     })
          .matrix();
  if (!Named.empty())
    Selected = Named;

  TableWriter CsvOut;
  CsvOut.setHeader({"benchmark", "analysis", "time_s", "may_fail_casts"});

  std::cout << "Figure 3: performance vs. precision over all analyses.\n"
            << "Lower is better on both axes.\n\n";

  for (const std::string &Name : Selected) {
    LoadedProgram Bench = loadProgram(Name);
    const std::vector<std::string> &Policies = table1PolicyNames();
    std::vector<PrecisionMetrics> Cells =
        runVariantMatrix(*Bench.Prog, Policies, Opts);
    std::vector<Point> Points;
    for (size_t I = 0; I < Policies.size(); ++I) {
      const std::string &Policy = Policies[I];
      const PrecisionMetrics &M = Cells[I];
      Points.push_back({Policy, M.SolveMs, M.MayFailCasts, M.Aborted});
      CsvOut.addRow({Name, Policy,
                     M.Aborted ? "-" : formatSeconds(M.SolveMs),
                     M.Aborted ? "-" : std::to_string(M.MayFailCasts)});
    }
    if (Csv)
      continue;
    std::cout << "=== " << Name << " ===\n";
    asciiScatter(Points);
    std::cout << "\n";
  }
  if (Csv)
    CsvOut.printCsv(std::cout);
  return 0;
}
