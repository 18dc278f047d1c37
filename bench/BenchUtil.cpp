//===- bench/BenchUtil.cpp -------------------------------------------------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "ir/Program.h"
#include "pta/VariantRunner.h"
#include "support/TableWriter.h"

#include <cstdlib>
#include <cstring>
#include <fstream>

using namespace pt;

CellOptions CellOptions::fromEnv() {
  CellOptions Opts;
  if (const char *Budget = std::getenv("HYBRIDPT_BUDGET_MS"))
    Opts.BudgetMs = std::strtoull(Budget, nullptr, 10);
  if (const char *Runs = std::getenv("HYBRIDPT_RUNS")) {
    Opts.Runs = static_cast<uint32_t>(std::strtoul(Runs, nullptr, 10));
    if (Opts.Runs == 0)
      Opts.Runs = 1;
  }
  if (const char *Threads = std::getenv("HYBRIDPT_THREADS"))
    Opts.Threads = static_cast<unsigned>(std::strtoul(Threads, nullptr, 10));
  if (const char *Ladder = std::getenv("HYBRIDPT_LADDER"))
    Opts.UseLadder = *Ladder != '\0' && std::strcmp(Ladder, "0") != 0;
  if (const char *Prof = std::getenv("HYBRIDPT_PROFILE"))
    Opts.Profile = *Prof != '\0' && std::strcmp(Prof, "0") != 0;
  return Opts;
}

static MatrixOptions toMatrixOptions(const CellOptions &Opts,
                                     unsigned Threads) {
  MatrixOptions M;
  M.Solver.TimeBudgetMs = Opts.BudgetMs;
  M.Solver.Trace = Opts.Trace;
  M.Threads = Threads;
  M.Runs = Opts.Runs;
  M.TraceLabelPrefix = Opts.TraceLabelPrefix;
  M.UseLadder = Opts.UseLadder;
  M.Profile = Opts.Profile;
  M.ProfileTopK = Opts.ProfileTopK;
  return M;
}

PrecisionMetrics pt::runCell(const Program &Prog, std::string_view PolicyName,
                             const CellOptions &Opts) {
  std::vector<std::string> One = {std::string(PolicyName)};
  return runVariantMatrix(Prog, One, toMatrixOptions(Opts, 1)).front();
}

std::vector<PrecisionMetrics>
pt::runCells(const Program &Prog, const std::vector<std::string> &Policies,
             const CellOptions &Opts) {
  return runVariantMatrix(Prog, Policies,
                          toMatrixOptions(Opts, Opts.Threads));
}

BenchRecord pt::makeBenchRecord(const std::string &Benchmark,
                                const std::string &Policy,
                                const PrecisionMetrics &M) {
  BenchRecord R;
  R.Benchmark = Benchmark;
  R.Policy = Policy;
  R.TimeMs = M.SolveMs;
  R.CsVarPointsTo = M.CsVarPointsTo;
  R.CallGraphEdges = M.CallGraphEdges;
  R.PeakBytes = M.PeakBytes;
  R.ReachableMethods = M.ReachableMethods;
  R.TaintedSinks = M.TaintedSinks;
  R.Aborted = M.Aborted;
  if (M.Aborted)
    R.AbortReasonName = abortReasonName(M.Reason);
  // A ladder-degraded cell reports the landed rung's metrics, so its
  // policy field names the landed rung; fallback_from keeps the requested
  // one (regression diffs key cells by the requested policy).
  if (!M.FallbackFrom.empty()) {
    R.Policy = M.LandedPolicy;
    R.FallbackFrom = M.FallbackFrom;
  }
  R.LadderTrail = M.LadderTrail;
  R.Counters = M.Counters;
  R.ProfileJson = M.ProfileJson;
  return R;
}

bool pt::writeBenchJson(const std::string &Path, const std::string &Harness,
                        const CellOptions &Opts,
                        const std::vector<BenchRecord> &Records,
                        std::string &Error) {
  std::ofstream OS(Path);
  if (!OS) {
    Error = "cannot write '" + Path + "'";
    return false;
  }
  OS << "{\n"
     << "  \"harness\": \"" << Harness << "\",\n"
     << "  \"budget_ms\": " << Opts.BudgetMs << ",\n"
     << "  \"runs\": " << Opts.Runs << ",\n"
     << "  \"threads\": " << Opts.Threads << ",\n"
     << "  \"ladder\": " << (Opts.UseLadder ? "true" : "false") << ",\n";
  if (!Opts.TaintSpec.empty())
    OS << "  \"taint_spec\": \"" << Opts.TaintSpec << "\",\n";
  OS << "  \"cells\": [\n";
  for (size_t I = 0; I < Records.size(); ++I) {
    const BenchRecord &R = Records[I];
    OS << "    {\"benchmark\": \"" << R.Benchmark << "\", \"policy\": \""
       << R.Policy << "\", \"time_ms\": " << formatFixed(R.TimeMs, 3)
       << ", \"cs_vpt_facts\": " << R.CsVarPointsTo
       << ", \"cg_edges\": " << R.CallGraphEdges
       << ", \"peak_bytes\": " << R.PeakBytes
       << ", \"reachable_methods\": " << R.ReachableMethods
       << ", \"tainted_sinks\": " << R.TaintedSinks
       << ", \"aborted\": " << (R.Aborted ? "true" : "false");
    if (!R.AbortReasonName.empty())
      OS << ", \"abort_reason\": \"" << R.AbortReasonName << "\"";
    if (!R.FallbackFrom.empty())
      OS << ", \"fallback_from\": \"" << R.FallbackFrom << "\"";
    if (!R.LadderTrail.empty()) {
      OS << ", \"ladder\": [";
      for (size_t J = 0; J < R.LadderTrail.size(); ++J) {
        const RungAttempt &A = R.LadderTrail[J];
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
      telemetry::forEachCounter(R.Counters,
                                [&](const char *Name, uint64_t V) {
                                  if (!FirstCounter)
                                    OS << ", ";
                                  FirstCounter = false;
                                  OS << "\"" << Name << "\": " << V;
                                });
      OS << "}";
    }
    // Already a rendered JSON object (prov::renderBlameJson).
    if (!R.ProfileJson.empty())
      OS << ", \"profile\": " << R.ProfileJson;
    OS << "}" << (I + 1 < Records.size() ? "," : "") << "\n";
  }
  OS << "  ]\n}\n";
  if (!OS) {
    Error = "short write to '" + Path + "'";
    return false;
  }
  return true;
}

std::string pt::formatFactCount(size_t Facts) {
  if (Facts >= 1000000)
    return formatFixed(static_cast<double>(Facts) / 1e6, 1) + "M";
  if (Facts >= 1000)
    return formatFixed(static_cast<double>(Facts) / 1e3, 1) + "K";
  return std::to_string(Facts);
}

std::string pt::formatSeconds(double Ms) {
  double Sec = Ms / 1000.0;
  return formatFixed(Sec, Sec < 10 ? 2 : 1);
}
