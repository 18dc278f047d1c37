//===- pta/VariantRunner.h - Parallel analysis-variant matrix ---*- C++ -*-===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs a set of context policies over one program concurrently.  The
/// analysis-variant matrix (Table 1 / Fig. 3) is embarrassingly parallel:
/// each cell is an independent \c Solver over an immutable \c Program, so
/// the runner simply fans the cells out with \c parallelFor, with per-run
/// time/fact budgets and collects the metrics in policy order.
///
/// Results are bit-identical regardless of thread count (asserted by the
/// determinism test): solvers share nothing but the read-only program.
///
//===----------------------------------------------------------------------===//

#ifndef HYBRIDPT_PTA_VARIANTRUNNER_H
#define HYBRIDPT_PTA_VARIANTRUNNER_H

#include "pta/Metrics.h"
#include "pta/Solver.h"

#include <string>
#include <vector>

namespace pt {

class Program;

/// Configuration for one matrix run.
struct MatrixOptions {
  /// Per-run budgets (time and fact caps apply to every cell).  Its
  /// \c Trace sink, when set, receives one span per cell plus
  /// solve/metrics phase spans and the cells' heartbeats.
  SolverOptions Solver;
  /// Worker threads; 0 = one per hardware thread.
  unsigned Threads = 1;
  /// Repetitions per cell; the reported cell is the repetition with the
  /// median SolveMs (the paper's "medians of three runs"), so its time and
  /// counters describe one coherent run.  A genuine resource-budget abort
  /// (time/facts/memory, not fault-injected) short-circuits the remaining
  /// repetitions — the same budget will abort again — and reports the
  /// aborted repetition itself; injected-fault and cancellation aborts do
  /// not short-circuit, and the median is taken over whatever repetitions
  /// completed.
  uint32_t Runs = 1;
  /// Prefix for cell trace labels, typically "<benchmark>/"; the policy
  /// name is appended per cell.
  std::string TraceLabelPrefix;
  /// Graceful degradation (pta/Degrade.h): when a cell aborts on a
  /// resource budget, descend its fallback ladder instead of reporting a
  /// dash.  Degraded cells carry FallbackFrom/LandedPolicy/LadderTrail.
  bool UseLadder = false;
  /// Explicit ladder tail applied after each cell's own policy; empty =
  /// the derived default ladder.  Only meaningful with \c UseLadder.
  std::vector<std::string> LadderRungs;
  /// Record derivation provenance per cell and attach the rendered blame
  /// profile (prov::renderBlameJson) to \c PrecisionMetrics::ProfileJson.
  /// Each repetition gets its own recorder — cells run concurrently and
  /// fact payloads embed per-run object ids — so \c Solver.Prov is ignored
  /// by the matrix.  No-op when the build compiles provenance out.
  bool Profile = false;
  /// Rows per attribution bucket in the per-cell profile.
  size_t ProfileTopK = 10;
};

/// Runs every policy in \p Policies over \p Prog (concurrently when
/// \c Threads > 1) and returns the metrics in the same order.  Unknown
/// policy names yield a default-constructed, aborted cell.
std::vector<PrecisionMetrics>
runVariantMatrix(const Program &Prog, const std::vector<std::string> &Policies,
                 const MatrixOptions &Opts);

} // namespace pt

#endif // HYBRIDPT_PTA_VARIANTRUNNER_H
