//===- pta/Pipeline.h - One path from a program spec to an answer -*- C++ -*-===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single pipeline every tool runs (docs/DESIGN.md, "One pipeline"):
/// \c loadProgram turns a built-in benchmark name or a `.ptir` path into a
/// program, taint-instrumented when a spec is given, and \c analyze solves
/// it under one \c AnalysisConfig.  The CLI, the linter, the daemon, the
/// variant matrix and the bench harnesses all call these two functions, so
/// a change to loading, instrumentation or the ladder is made once.
///
//===----------------------------------------------------------------------===//

#ifndef HYBRIDPT_PTA_PIPELINE_H
#define HYBRIDPT_PTA_PIPELINE_H

#include "pta/Degrade.h"
#include "pta/Solver.h"
#include "workloads/Profiles.h"

#include <memory>
#include <string>
#include <vector>

namespace pt {

class Program;

/// A loaded program plus whatever owns it.
struct LoadedProgram {
  /// A built-in benchmark keeps its generator stats here; its program
  /// stays in \c Bench.Prog unless instrumentation replaced it.
  Benchmark Bench;
  /// A parsed or taint-instrumented program.
  std::unique_ptr<Program> Owned;
  /// The program to analyze, whoever owns it; null when loading failed.
  const Program *Prog = nullptr;
  /// Why loading failed, one complete message per entry ("cannot open
  /// 'F'", "parse error in 'F': ...", "taint spec error: ...").
  std::vector<std::string> Errors;

  bool ok() const { return Prog != nullptr; }
};

/// Loads \p Spec — a built-in benchmark name, else a PTIR file path — and,
/// when \p TaintSpecPath is non-empty, instruments it with that taint spec
/// (docs/CHECKS.md "Taint analysis") so every later consumer sees the
/// taint objects.
LoadedProgram loadProgram(const std::string &Spec,
                          const std::string &TaintSpecPath = "");

/// Everything one solve depends on besides the program.
struct AnalysisConfig {
  /// Requested context policy (context/PolicyRegistry.h).
  std::string Policy;
  /// Budgets, cancellation, trace and provenance sinks.
  SolverOptions Solver;
  /// Descend the fallback ladder (pta/Degrade.h) on a resource-budget
  /// abort instead of reporting the aborted run.
  bool Ladder = false;
  /// Explicit rungs tried after \c Policy; empty = the derived ladder.
  /// Only meaningful with \c Ladder.
  std::vector<std::string> Rungs;
};

/// Solves \p Prog under \p Config.  Without the ladder this is the
/// one-rung case of \c solveWithLadder: a native run that records no
/// trail and no "ladder" trace record, failing with "unknown policy 'X'"
/// on an unknown name.  \c LadderResult::Result is empty exactly when
/// \c LadderResult::Error is set.
LadderResult analyze(const Program &Prog, const AnalysisConfig &Config);

} // namespace pt

#endif // HYBRIDPT_PTA_PIPELINE_H
