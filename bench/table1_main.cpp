//===- bench/table1_main.cpp - Reproduce the paper's Table 1 --------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The evaluation harness.  For each benchmark it solves every registered
/// analysis (allPolicyNames(): the fourteen Table 1 columns, insens, and
/// the ablation and deeper-context policies) in one variant matrix, and
/// prints the paper's Table 1: the four precision metrics (average
/// points-to set size, call-graph edges, poly v-calls, may-fail casts)
/// and the two performance metrics (elapsed time, context-sensitive
/// var-points-to size) across the fourteen Table 1 analyses.  The CSV and
/// the JSON record carry all twenty policies.
///
/// Dash entries mean the per-cell budget expired (paper: 90-minute
/// timeout; here --budget MS, default 120s).  Pass benchmark names or
/// `.ptir` paths as arguments to restrict the run (a `.ptir` path is
/// solved like a benchmark and recorded under its path); pass --csv for
/// machine-readable output;
/// pass --threads N to fan the independent cells of each benchmark out
/// over N workers (0 = hardware concurrency) and --runs N to report the
/// median of N repetitions per cell.  Every run also records its cells to
/// BENCH_table1.json (override with --json PATH, "-" for none): every
/// Table 1 column plus method/heap context counts and the solver
/// counters, under a header stamped with the harness configuration and
/// the build.  tools/check_bench_regression.py diffs two such records,
/// and tools/paper_report.py renders Figure 3, the headline ratios, the
/// ablations and the depth ladder from one.  With --taint-spec FILE every
/// benchmark is taint-instrumented first (docs/CHECKS.md "Taint
/// analysis"): the table gains a "tainted sinks" row.  With --provenance
/// every cell records its derivations and carries its cost-attribution
/// profile in the JSON record as "profile" (tools/trace_summary.py renders
/// it).
///
/// With --ladder, budget-expired cells degrade
/// down the policy fallback ladder (docs/ROBUSTNESS.md) instead of
/// showing a dash: the cell reports the first coarser rung that converges
/// within the budget, rendered as `value*` with a per-benchmark footnote
/// and stamped `fallback_from` in the JSON.
///
//===----------------------------------------------------------------------===//

#include "context/PolicyRegistry.h"
#include "ir/Program.h"
#include "pta/Flags.h"
#include "pta/Metrics.h"
#include "pta/Trace.h"
#include "pta/VariantRunner.h"
#include "support/Parallel.h"
#include "support/TableWriter.h"
#include "workloads/Profiles.h"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

using namespace pt;

namespace {

/// Default per-cell time budget (--budget overrides it): 120 s, this
/// reproduction's stand-in for the paper's 90-minute timeout.
constexpr uint64_t BenchBudgetMs = 120000;

/// One solved cell of the record.
struct Cell {
  std::string Benchmark;
  /// The requested policy; a ladder-degraded cell is recorded under its
  /// landed rung, with this name as "fallback_from".
  std::string Policy;
  PrecisionMetrics M;
};

/// Formats a fact count the way the paper's Table 1 does ("sensitive
/// var-points-to (M)"): millions with one decimal when large, thousands
/// with the K suffix otherwise.
std::string formatFactCount(size_t Facts) {
  if (Facts >= 1000000)
    return formatFixed(static_cast<double>(Facts) / 1e6, 1) + "M";
  if (Facts >= 1000)
    return formatFixed(static_cast<double>(Facts) / 1e3, 1) + "K";
  return std::to_string(Facts);
}

/// Seconds with adaptive precision (two decimals under 10s, one above).
std::string formatSeconds(double Ms) {
  double Sec = Ms / 1000.0;
  return formatFixed(Sec, Sec < 10 ? 2 : 1);
}

/// Writes \p Cells as pretty-printed JSON to \p Path.  The header carries
/// the harness configuration, the taint-spec path the programs were
/// instrumented with (omitted when none) and the build stamps, so
/// regression diffs can refuse to compare apples to oranges.  Returns
/// false (and sets \p Error) on I/O failure.
bool writeBenchJson(const std::string &Path, const MatrixOptions &Opts,
                    const std::string &TaintSpec,
                    const std::vector<Cell> &Cells, std::string &Error) {
  std::ofstream OS(Path);
  if (!OS) {
    Error = "cannot write '" + Path + "'";
    return false;
  }
  auto Bool = [](bool B) { return B ? "true" : "false"; };
  OS << "{\n"
     << "  \"harness\": \"table1_main\",\n"
     << "  \"budget_ms\": " << Opts.Config.Solver.TimeBudgetMs << ",\n"
     << "  \"runs\": " << Opts.Runs << ",\n"
     << "  \"threads\": " << Opts.Threads << ",\n"
     << "  \"ladder\": " << Bool(Opts.Config.Ladder) << ",\n"
     << "  \"hardware_threads\": " << hardwareThreads() << ",\n"
     << "  \"build_type\": \"" << HYBRIDPT_BUILD_TYPE << "\",\n"
     << "  \"compiler\": \"" << HYBRIDPT_COMPILER << "\",\n"
     << "  \"telemetry\": " << Bool(HYBRIDPT_TELEMETRY) << ",\n"
     << "  \"provenance\": " << Bool(HYBRIDPT_PROVENANCE) << ",\n";
  if (!TaintSpec.empty())
    OS << "  \"taint_spec\": \"" << TaintSpec << "\",\n";
  OS << "  \"cells\": [\n";
  for (size_t I = 0; I < Cells.size(); ++I) {
    const Cell &C = Cells[I];
    const PrecisionMetrics &M = C.M;
    // A ladder-degraded cell reports the landed rung's metrics, so its
    // policy field names the landed rung; fallback_from keeps the
    // requested one (regression diffs key cells by the requested policy).
    OS << "    {\"benchmark\": \"" << C.Benchmark << "\", \"policy\": \""
       << (M.FallbackFrom.empty() ? C.Policy : M.LandedPolicy)
       << "\", \"time_ms\": " << formatFixed(M.SolveMs, 3)
       << ", \"avg_objs_per_var\": " << formatFixed(M.AvgPointsTo, 4)
       << ", \"cg_edges\": " << M.CallGraphEdges
       << ", \"poly_vcalls\": " << M.PolyVCalls
       << ", \"reachable_vcalls\": " << M.ReachableVCalls
       << ", \"may_fail_casts\": " << M.MayFailCasts
       << ", \"reachable_casts\": " << M.ReachableCasts
       << ", \"cs_vpt_facts\": " << M.CsVarPointsTo
       << ", \"num_contexts\": " << M.NumContexts
       << ", \"num_hcontexts\": " << M.NumHContexts
       << ", \"peak_bytes\": " << M.PeakBytes
       << ", \"reachable_methods\": " << M.ReachableMethods
       << ", \"tainted_sinks\": " << M.TaintedSinks
       << ", \"aborted\": " << Bool(M.Aborted);
    if (M.Aborted)
      OS << ", \"abort_reason\": \"" << abortReasonName(M.Reason) << "\"";
    if (!M.FallbackFrom.empty())
      OS << ", \"fallback_from\": \"" << M.FallbackFrom << "\"";
    if (!M.LadderTrail.empty()) {
      OS << ", \"ladder\": [";
      for (size_t J = 0; J < M.LadderTrail.size(); ++J) {
        const RungAttempt &A = M.LadderTrail[J];
        OS << (J ? ", " : "") << "{\"policy\": \"" << A.Policy
           << "\", \"solve_ms\": " << formatFixed(A.SolveMs, 3)
           << ", \"abort_reason\": \"" << abortReasonName(A.Reason)
           << "\"}";
      }
      OS << "]";
    }
    if (telemetry::SolverCounters::enabled()) {
      OS << ", \"counters\": {";
      bool FirstCounter = true;
      telemetry::forEachCounter(M.Counters,
                                [&](const char *Name, uint64_t V) {
                                  if (!FirstCounter)
                                    OS << ", ";
                                  FirstCounter = false;
                                  OS << "\"" << Name << "\": " << V;
                                });
      OS << "}";
    }
    // Already a rendered JSON object (prov::renderBlameJson).
    if (!M.ProfileJson.empty())
      OS << ", \"profile\": " << M.ProfileJson;
    OS << "}" << (I + 1 < Cells.size() ? "," : "") << "\n";
  }
  OS << "  ]\n}\n";
  if (!OS) {
    Error = "short write to '" + Path + "'";
    return false;
  }
  return true;
}

} // namespace

int main(int argc, char **argv) {
  bool Csv = false;
  bool Progress = false;
  std::string JsonPath = "BENCH_table1.json";
  std::string ChromeTraceOut;
  std::vector<std::string> Selected;
  SharedFlags Flags;
  Flags.Config.Solver.TimeBudgetMs = BenchBudgetMs;
  ArgParser Args(argc, argv);
  while (Args.next()) {
    if (Args.shared(FlagBudget | FlagRuns | FlagThreads | FlagLadder |
                        FlagTaintSpec | FlagProvenance | FlagTraceOut,
                    Flags))
      continue;
    if (Args.is("--csv"))
      Csv = true;
    else if (Args.is("--progress"))
      Progress = true;
    else if (Args.is("--json"))
      JsonPath = Args.value();
    else if (Args.is("--chrome-trace"))
      ChromeTraceOut = Args.value();
    else if (Args.arg().substr(0, 2) != "--")
      Selected.emplace_back(Args.arg()); // A benchmark or a .ptir path.
    else {
      std::cerr << "unknown argument '" << Args.arg() << "'; benchmarks:";
      for (const std::string &N : benchmarkNames())
        std::cerr << ' ' << N;
      std::cerr << " or a .ptir path\n(options: --csv, --budget MS, "
                   "--runs N, --ladder, --threads N, --taint-spec FILE, "
                   "--provenance, --json PATH, --trace-out FILE, "
                   "--chrome-trace FILE, --progress)\n";
      return 1;
    }
  }
  if (Selected.empty())
    Selected = benchmarkNames();
#if !HYBRIDPT_PROVENANCE_ENABLED
  if (Flags.Provenance) {
    std::cerr << "this build has provenance compiled out "
                 "(HYBRIDPT_PROVENANCE=0)\n";
    return 1;
  }
#endif
  MatrixOptions Opts = Flags.matrix();
  const std::string &TaintSpec = Flags.TaintSpecPath;

  // Observability: one recorder across all benchmarks, so the matrix
  // renders as a single flame view of cells over worker threads.
  std::unique_ptr<trace::TraceRecorder> Rec;
  if (!Flags.TraceOut.empty() || !ChromeTraceOut.empty() || Progress) {
    Rec = std::make_unique<trace::TraceRecorder>();
    if (!Flags.TraceOut.empty()) {
      std::string Error;
      if (!Rec->openJsonl(Flags.TraceOut, Error)) {
        std::cerr << Error << "\n";
        return 1;
      }
    }
    if (Progress)
      Rec->enableProgress(std::cerr);
    Opts.Config.Solver.Trace = Rec.get();
  }

  // The matrix solves every registered policy; the text table shows the
  // paper's fourteen Table 1 columns of it.
  const std::vector<std::string> &Policies = allPolicyNames();
  std::vector<size_t> Table1Columns;
  for (const std::string &Policy : table1PolicyNames())
    Table1Columns.push_back(
        std::find(Policies.begin(), Policies.end(), Policy) -
        Policies.begin());

  std::cout << "Table 1: precision and performance metrics for all "
               "benchmarks and analyses.\n"
            << "(dash = budget of " << Opts.Config.Solver.TimeBudgetMs
            << " ms expired; lower is better everywhere)\n\n";

  TableWriter CsvOut;
  CsvOut.setHeader({"benchmark", "analysis", "avg_objs_per_var",
                    "cg_edges", "poly_vcalls", "reachable_vcalls",
                    "may_fail_casts", "reachable_casts", "time_s",
                    "cs_vpt_facts", "reachable_methods", "tainted_sinks"});

  std::vector<Cell> Record;
  for (const std::string &Name : Selected) {
    // --taint-spec: every benchmark runs taint-instrumented (the JSON
    // header is stamped with the spec path so check_bench_regression.py
    // never diffs tainted against untainted).
    std::unique_ptr<trace::TraceRecorder::Span> FactGenSpan;
    if (Rec)
      FactGenSpan = std::make_unique<trace::TraceRecorder::Span>(
          Rec.get(), Name + "/fact-gen", "phase");
    LoadedProgram Loaded = loadProgram(Name, TaintSpec);
    FactGenSpan.reset();
    if (!Loaded.ok()) {
      for (const std::string &E : Loaded.Errors)
        std::cerr << E << "\n";
      return 1;
    }

    // All cells of one benchmark are independent solver runs; fan them
    // out over the worker pool.
    Opts.TraceLabelPrefix = Name + "/";
    std::vector<PrecisionMetrics> Cells =
        runVariantMatrix(*Loaded.Prog, Policies, Opts);
    for (size_t PI = 0; PI < Policies.size(); ++PI) {
      const PrecisionMetrics &M = Cells[PI];
      Record.push_back({Name, Policies[PI], M});
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

    // Reference counts from the first Table 1 cell (they vary only
    // slightly per analysis, as in the paper's parenthetical headings).
    const PrecisionMetrics &Ref = Cells[Table1Columns.front()];
    std::cout << "=== " << Name << "  (~" << Ref.ReachableMethods
              << " reachable methods, ~" << Ref.ReachableVCalls
              << " v-calls, ~" << Ref.ReachableCasts << " casts; program: "
              << Loaded.Prog->numMethods() << " methods, "
              << Loaded.Prog->numInstructions() << " instructions) ===\n";

    TableWriter T;
    std::vector<std::string> Header = {"metric"};
    for (size_t PI : Table1Columns)
      Header.push_back(Policies[PI]);
    T.setHeader(Header);

    // Ladder-degraded cells carry the landed rung's (converged) metrics;
    // mark them with a star and explain in a footnote below the table.
    auto Row = [&](const std::string &Label, auto Show) {
      std::vector<std::string> Cols = {Label};
      for (size_t PI : Table1Columns) {
        const PrecisionMetrics &M = Cells[PI];
        Cols.push_back(M.Aborted              ? "-"
                       : M.FallbackFrom.empty() ? Show(M)
                                                : Show(M) + "*");
      }
      T.addRow(Cols);
    };
    auto Count = [](size_t PrecisionMetrics::*Field) {
      return [Field](const PrecisionMetrics &M) {
        return std::to_string(M.*Field);
      };
    };
    Row("avg objs per var", [](const PrecisionMetrics &M) {
      return formatFixed(M.AvgPointsTo, 2);
    });
    Row("call-graph edges", Count(&PrecisionMetrics::CallGraphEdges));
    Row("poly v-calls", Count(&PrecisionMetrics::PolyVCalls));
    Row("may-fail casts", Count(&PrecisionMetrics::MayFailCasts));
    if (!TaintSpec.empty())
      Row("tainted sinks", Count(&PrecisionMetrics::TaintedSinks));
    Row("elapsed time (s)",
        [](const PrecisionMetrics &M) { return formatSeconds(M.SolveMs); });
    Row("sensitive var-points-to", [](const PrecisionMetrics &M) {
      return formatFactCount(M.CsVarPointsTo);
    });

    T.print(std::cout);
    // A landed rung that aborted too leaves dashes: the ladder ran out.
    for (size_t PI : Table1Columns)
      if (Cells[PI].Aborted && !Cells[PI].FallbackFrom.empty())
        std::cout << "  - " << Policies[PI] << " exhausted its budget; "
                  << "the fallback ladder ran out\n";
      else if (!Cells[PI].FallbackFrom.empty())
        std::cout << "  * " << Policies[PI] << " exhausted its budget; "
                  << "column shows " << Cells[PI].LandedPolicy
                  << " via the fallback ladder\n";
    std::cout << '\n';
  }

  if (Csv)
    CsvOut.printCsv(std::cout);

  std::string Error;
  if (!JsonPath.empty() && JsonPath != "-") {
    if (!writeBenchJson(JsonPath, Opts, TaintSpec, Record, Error)) {
      std::cerr << Error << "\n";
      return 1;
    }
    if (!Csv)
      std::cout << "wrote " << Record.size() << " cells to " << JsonPath
                << "\n";
  }
  if (Rec && !ChromeTraceOut.empty() &&
      !Rec->writeChromeTrace(ChromeTraceOut, Error))
    std::cerr << "chrome trace: " << Error << "\n";
  return 0;
}
