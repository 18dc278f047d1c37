//===- bench/table1_main.cpp - Reproduce the paper's Table 1 --------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates the paper's Table 1: for each of the ten benchmarks, the
/// four precision metrics (average points-to set size, call-graph edges,
/// poly v-calls, may-fail casts) and the two performance metrics (elapsed
/// time, context-sensitive var-points-to size) across the fourteen
/// analyses, grouped as in the paper: call-site-sensitive, 1obj family,
/// 2obj+H family, 2type+H family, plus the two cut-shortcut columns
/// (cs, S-cs).
///
/// Dash entries mean the per-cell budget expired (paper: 90-minute
/// timeout; here HYBRIDPT_BUDGET_MS, default 120s).  Pass benchmark names
/// as arguments to restrict the run; pass --csv for machine-readable
/// output; pass --threads N to fan the independent cells of each
/// benchmark out over N workers (0 = hardware concurrency).  Every run
/// also records its cells to BENCH_table1.json (override with --json
/// PATH) so tools/check_bench_regression.py can track the perf
/// trajectory across commits.  With --taint-spec FILE every benchmark is
/// taint-instrumented first (docs/CHECKS.md "Taint analysis"): the table
/// gains a "tainted sinks" row and every JSON cell a tainted_sinks count.
///
/// With --ladder (or HYBRIDPT_LADDER=1), budget-expired cells degrade
/// down the policy fallback ladder (docs/ROBUSTNESS.md) instead of
/// showing a dash: the cell reports the first coarser rung that converges
/// within the budget, rendered as `value*` with a per-benchmark footnote
/// and stamped `fallback_from` in the JSON.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "context/PolicyRegistry.h"
#include "ir/Program.h"
#include "pta/Trace.h"
#include "support/TableWriter.h"
#include "support/Parallel.h"
#include "taint/Taint.h"
#include "taint/TaintSpec.h"
#include "workloads/Profiles.h"

#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

using namespace pt;

int main(int argc, char **argv) {
  bool Csv = false;
  bool Progress = false;
  std::string JsonPath = "BENCH_table1.json";
  std::string ProfileOut;
  std::string TraceOut;
  std::string ChromeTraceOut;
  std::vector<std::string> Selected;
  CellOptions Opts = CellOptions::fromEnv();
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--csv") == 0) {
      Csv = true;
    } else if (std::strcmp(argv[I], "--ladder") == 0) {
      Opts.UseLadder = true;
    } else if (std::strcmp(argv[I], "--progress") == 0) {
      Progress = true;
    } else if (std::strcmp(argv[I], "--threads") == 0 && I + 1 < argc) {
      // 0 = hardware concurrency (resolveThreads is the one shared
      // interpretation; docs/PERF.md).
      Opts.Threads = resolveThreads(
          static_cast<unsigned>(std::strtoul(argv[++I], nullptr, 10)));
    } else if (std::strcmp(argv[I], "--taint-spec") == 0 && I + 1 < argc) {
      Opts.TaintSpec = argv[++I];
    } else if (std::strcmp(argv[I], "--json") == 0 && I + 1 < argc) {
      JsonPath = argv[++I];
    } else if (std::strcmp(argv[I], "--profile-out") == 0 && I + 1 < argc) {
      ProfileOut = argv[++I];
      Opts.Profile = true;
    } else if (std::strcmp(argv[I], "--trace-out") == 0 && I + 1 < argc) {
      TraceOut = argv[++I];
    } else if (std::strcmp(argv[I], "--chrome-trace") == 0 && I + 1 < argc) {
      ChromeTraceOut = argv[++I];
    } else if (isBenchmarkName(argv[I])) {
      Selected.push_back(argv[I]);
    } else {
      std::cerr << "unknown benchmark '" << argv[I] << "'; known:";
      for (const std::string &N : benchmarkNames())
        std::cerr << ' ' << N;
      std::cerr << "\n(options: --csv, --ladder, --threads N, "
                   "--taint-spec FILE, --json PATH, --profile-out PATH, "
                   "--trace-out FILE, --chrome-trace FILE, --progress)\n";
      return 1;
    }
  }
  if (Selected.empty())
    Selected = benchmarkNames();

  // --taint-spec: every benchmark runs taint-instrumented, and the JSON
  // grows a tainted_sinks column (stamped with the spec path so
  // check_bench_regression.py never diffs tainted against untainted).
  taint::TaintSpec TaintSpec;
  if (!Opts.TaintSpec.empty()) {
    taint::SpecParseResult Parsed = taint::parseSpecFile(Opts.TaintSpec);
    if (!Parsed.ok()) {
      for (const std::string &E : Parsed.Errors)
        std::cerr << "taint spec error: " << E << "\n";
      return 1;
    }
    TaintSpec = Parsed.Spec;
  }

  // Observability: one recorder across all benchmarks, so the matrix
  // renders as a single flame view of cells over worker threads.
  std::unique_ptr<trace::TraceRecorder> Rec;
  if (!TraceOut.empty() || !ChromeTraceOut.empty() || Progress) {
    Rec = std::make_unique<trace::TraceRecorder>();
    if (!TraceOut.empty()) {
      std::string Error;
      if (!Rec->openJsonl(TraceOut, Error)) {
        std::cerr << Error << "\n";
        return 1;
      }
    }
    if (Progress)
      Rec->enableProgress(std::cerr);
    Opts.Trace = Rec.get();
  }

  const std::vector<std::string> &Policies = table1PolicyNames();

  std::cout << "Table 1: precision and performance metrics for all "
               "benchmarks and analyses.\n"
            << "(dash = budget of " << Opts.BudgetMs
            << " ms expired; lower is better everywhere)\n\n";

  TableWriter CsvOut;
  CsvOut.setHeader({"benchmark", "analysis", "avg_objs_per_var",
                    "cg_edges", "poly_vcalls", "reachable_vcalls",
                    "may_fail_casts", "reachable_casts", "time_s",
                    "cs_vpt_facts", "reachable_methods", "tainted_sinks"});

  std::vector<BenchRecord> Records;
  for (const std::string &Name : Selected) {
    std::unique_ptr<trace::TraceRecorder::Span> FactGenSpan;
    if (Rec)
      FactGenSpan = std::make_unique<trace::TraceRecorder::Span>(
          Rec.get(), Name + "/fact-gen", "phase");
    Benchmark Bench = buildBenchmark(Name);
    if (!Opts.TaintSpec.empty()) {
      taint::TaintPlan Plan = taint::resolve(TaintSpec, *Bench.Prog);
      Bench.Prog = taint::instrument(*Bench.Prog, Plan);
    }
    FactGenSpan.reset();

    // All cells of one benchmark are independent solver runs; fan them
    // out over the worker pool.
    Opts.TraceLabelPrefix = Name + "/";
    std::vector<PrecisionMetrics> Cells = runCells(*Bench.Prog, Policies, Opts);
    for (size_t PI = 0; PI < Policies.size(); ++PI) {
      const PrecisionMetrics &M = Cells[PI];
      Records.push_back(makeBenchRecord(Name, Policies[PI], M));
      CsvOut.addRow(
          {Name, Policies[PI],
           M.Aborted ? "-" : formatFixed(M.AvgPointsTo, 2),
           M.Aborted ? "-" : std::to_string(M.CallGraphEdges),
           M.Aborted ? "-" : std::to_string(M.PolyVCalls),
           std::to_string(M.ReachableVCalls),
           M.Aborted ? "-" : std::to_string(M.MayFailCasts),
           std::to_string(M.ReachableCasts),
           M.Aborted ? "-" : formatSeconds(M.SolveMs),
           M.Aborted ? "-" : std::to_string(M.CsVarPointsTo),
           M.Aborted ? "-" : std::to_string(M.ReachableMethods),
           M.Aborted ? "-" : std::to_string(M.TaintedSinks)});
    }
    if (Csv)
      continue;

    // Reference counts from the most common cell (they vary only slightly
    // per analysis, as in the paper's parenthetical headings).
    const PrecisionMetrics &Ref = Cells.front();
    std::cout << "=== " << Name << "  (~" << Ref.ReachableMethods
              << " reachable methods, ~" << Ref.ReachableVCalls
              << " v-calls, ~" << Ref.ReachableCasts << " casts; program: "
              << Bench.Stats.Methods << " methods, "
              << Bench.Prog->numInstructions() << " instructions) ===\n";

    TableWriter T;
    T.setHeader({"metric"});
    std::vector<std::string> Header = {"metric"};
    for (const std::string &Policy : Policies)
      Header.push_back(Policy);
    T.setHeader(Header);

    // Ladder-degraded cells carry the landed rung's (converged) metrics;
    // mark them with a star and explain in a footnote below the table.
    auto Mark = [](const PrecisionMetrics &M, std::string S) {
      return M.FallbackFrom.empty() ? S : S + "*";
    };
    auto Row = [&](const std::string &Label, auto Get, int Decimals) {
      std::vector<std::string> Cols = {Label};
      for (const PrecisionMetrics &M : Cells) {
        if (M.Aborted)
          Cols.push_back("-");
        else
          Cols.push_back(Mark(M, formatFixed(Get(M), Decimals)));
      }
      T.addRow(Cols);
    };
    Row("avg objs per var",
        [](const PrecisionMetrics &M) { return M.AvgPointsTo; }, 2);
    Row("call-graph edges",
        [](const PrecisionMetrics &M) { return double(M.CallGraphEdges); },
        0);
    Row("poly v-calls",
        [](const PrecisionMetrics &M) { return double(M.PolyVCalls); }, 0);
    Row("may-fail casts",
        [](const PrecisionMetrics &M) { return double(M.MayFailCasts); }, 0);
    if (!Opts.TaintSpec.empty())
      Row("tainted sinks",
          [](const PrecisionMetrics &M) { return double(M.TaintedSinks); },
          0);

    std::vector<std::string> TimeRow = {"elapsed time (s)"};
    std::vector<std::string> FactRow = {"sensitive var-points-to"};
    for (const PrecisionMetrics &M : Cells) {
      TimeRow.push_back(M.Aborted ? "-" : Mark(M, formatSeconds(M.SolveMs)));
      FactRow.push_back(M.Aborted ? "-"
                                  : Mark(M, formatFactCount(M.CsVarPointsTo)));
    }
    T.addRow(TimeRow);
    T.addRow(FactRow);

    T.print(std::cout);
    for (size_t PI = 0; PI < Policies.size(); ++PI)
      if (!Cells[PI].FallbackFrom.empty())
        std::cout << "  * " << Policies[PI] << " exhausted its budget; "
                  << "column shows " << Cells[PI].LandedPolicy
                  << " via the fallback ladder\n";
    std::cout << '\n';
  }

  if (Csv)
    CsvOut.printCsv(std::cout);

  std::string Error;
  if (!JsonPath.empty() && JsonPath != "-") {
    if (!writeBenchJson(JsonPath, "table1_main", Opts, Records, Error)) {
      std::cerr << Error << "\n";
      return 1;
    }
    if (!Csv)
      std::cout << "wrote " << Records.size() << " cells to " << JsonPath
                << "\n";
  }
  // Standalone per-cell cost-attribution profiles (--profile-out): the
  // same "profile" objects folded into the BENCH json, but in one small
  // file tools/trace_summary.py renders directly.
  if (!ProfileOut.empty()) {
    std::ofstream OS(ProfileOut);
    if (!OS) {
      std::cerr << "cannot write '" << ProfileOut << "'\n";
      return 1;
    }
    OS << "{\"harness\": \"table1_profile\", \"cells\": [";
    bool First = true;
    for (const BenchRecord &R : Records) {
      if (R.ProfileJson.empty())
        continue;
      OS << (First ? "" : ",") << "\n  {\"benchmark\": \"" << R.Benchmark
         << "\", \"policy\": \"" << R.Policy
         << "\", \"profile\": " << R.ProfileJson << "}";
      First = false;
    }
    OS << "\n]}\n";
    if (!Csv)
      std::cout << "wrote profiles to " << ProfileOut << "\n";
  }
  if (Rec && !ChromeTraceOut.empty() &&
      !Rec->writeChromeTrace(ChromeTraceOut, Error))
    std::cerr << "chrome trace: " << Error << "\n";
  return 0;
}
