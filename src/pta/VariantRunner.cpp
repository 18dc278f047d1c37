//===- pta/VariantRunner.cpp ---------------------------------------------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//

#include "pta/VariantRunner.h"

#include "context/PolicyRegistry.h"
#include "ir/Program.h"
#include "pta/AnalysisResult.h"
#include "pta/Degrade.h"
#include "pta/Trace.h"
#include "support/Parallel.h"

#include <algorithm>

using namespace pt;

namespace {

/// One (program, policy) cell: repeated runs, median time.  The reported
/// metrics are the *median-time repetition's* metrics wholesale, so the
/// time, counters, and precision columns all describe one coherent run
/// (an aborted repetition's truncated time never enters the median).
/// When a trace sink is configured, the cell appears as one span on its
/// worker thread's timeline with solve/metrics sub-spans per repetition,
/// and its final counters are recorded under the cell label.
PrecisionMetrics runOneCell(const Program &Prog, const std::string &Policy,
                            const SolverOptions &SOpts,
                            const MatrixOptions &MOpts,
                            const std::string &LabelPrefix) {
  uint32_t Runs = MOpts.Runs == 0 ? 1 : MOpts.Runs;
  SolverOptions CellOpts = SOpts;
  CellOpts.TraceLabel = LabelPrefix + Policy;
  trace::TraceRecorder::Span CellSpan(CellOpts.Trace, CellOpts.TraceLabel,
                                      "cell");
  std::vector<PrecisionMetrics> Reps;
  // Per-repetition provenance: each repetition is its own run with its own
  // dense object ids, so each gets a fresh recorder (never the shared
  // MatrixOptions::Solver.Prov, which concurrent cells would corrupt).
  const bool DoProfile = MOpts.Profile && HYBRIDPT_PROVENANCE_ENABLED != 0;
  for (uint32_t RunIdx = 0; RunIdx < Runs; ++RunIdx) {
    PrecisionMetrics Rep;
    prov::Recorder ProvRec;
    CellOpts.Prov = DoProfile ? &ProvRec : nullptr;
    if (MOpts.UseLadder) {
      LadderOptions LOpts;
      LOpts.Rungs = MOpts.LadderRungs;
      LadderResult LR = [&] {
        trace::TraceRecorder::Span SolveSpan(CellOpts.Trace, "solve",
                                             "phase");
        return solveWithLadder(Prog, Policy, CellOpts, LOpts);
      }();
      if (!LR.Result) {
        Rep.Aborted = true; // Unknown policy or invalid ladder.
        return Rep;
      }
      {
        trace::TraceRecorder::Span MetricsSpan(CellOpts.Trace, "metrics",
                                               "phase");
        Rep = computeMetrics(*LR.Result);
      }
      Rep.LandedPolicy = LR.LandedPolicy;
      Rep.FallbackFrom = LR.FallbackFrom;
      Rep.LadderTrail = std::move(LR.Trail);
      if (DoProfile && !Rep.Aborted)
        Rep.ProfileJson = prov::renderBlameJson(
            prov::blame(ProvRec, *LR.Result, MOpts.ProfileTopK));
    } else {
      auto Pol = createPolicy(Policy, Prog);
      if (!Pol) {
        Rep.Aborted = true;
        return Rep;
      }
      AnalysisResult R = [&] {
        trace::TraceRecorder::Span SolveSpan(CellOpts.Trace, "solve",
                                             "phase");
        return solveProgram(Prog, *Pol, CellOpts);
      }();
      {
        trace::TraceRecorder::Span MetricsSpan(CellOpts.Trace, "metrics",
                                               "phase");
        Rep = computeMetrics(R);
      }
      if (DoProfile && !Rep.Aborted)
        Rep.ProfileJson = prov::renderBlameJson(
            prov::blame(ProvRec, R, MOpts.ProfileTopK));
    }
    Reps.push_back(std::move(Rep));
    // A genuine resource-budget abort will abort again, so stop repeating
    // and report the dash.  Injected faults and cancellations are not
    // resource verdicts about this cell: keep going, so the remaining
    // repetitions (a cancelled token makes them near-instant no-ops) can
    // still yield a completed run to report.
    const PrecisionMetrics &Last = Reps.back();
    if (Last.Aborted && !Last.FaultInjected &&
        Last.Reason != AbortReason::Cancelled)
      break;
  }
  // Pick the repetition whose SolveMs is the median of the completed runs;
  // a cell with no completed repetition reports the last aborted one (its
  // partial counters are still the truest description of what happened).
  std::vector<size_t> Done;
  for (size_t I = 0; I < Reps.size(); ++I)
    if (!Reps[I].Aborted)
      Done.push_back(I);
  PrecisionMetrics Cell;
  if (Done.empty()) {
    Cell = Reps.back();
  } else {
    std::sort(Done.begin(), Done.end(), [&](size_t A, size_t B) {
      return Reps[A].SolveMs < Reps[B].SolveMs;
    });
    Cell = Reps[Done[Done.size() / 2]];
  }
  if (CellOpts.Trace)
    CellOpts.Trace->counters(CellOpts.TraceLabel, Cell.Counters);
  return Cell;
}

} // namespace

std::vector<PrecisionMetrics>
pt::runVariantMatrix(const Program &Prog,
                     const std::vector<std::string> &Policies,
                     const MatrixOptions &Opts) {
  std::vector<PrecisionMetrics> Cells(Policies.size());
  parallelFor(Policies.size(), Opts.Threads, [&](size_t I) {
    Cells[I] = runOneCell(Prog, Policies[I], Opts.Solver, Opts,
                          Opts.TraceLabelPrefix);
  });
  return Cells;
}
