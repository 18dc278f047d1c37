//===- fuzz/Driver.cpp ---------------------------------------------------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//

#include "fuzz/Driver.h"

#include "ir/Program.h"
#include "irtext/TextFormat.h"
#include "support/Timer.h"
#include "workloads/Fuzzer.h"
#include "workloads/Shrink.h"

#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>

using namespace pt;
using namespace pt::fuzz;

namespace {

/// The seed-corpus shape schedule: cycling through distinct program
/// profiles exercises different rule mixes (tiny programs converge the
/// minimizer fast, call-heavy ones stress MERGE/MERGESTATIC, field-heavy
/// ones stress loads/stores).
FuzzOptions shapeFor(uint32_t Index) {
  FuzzOptions Shape;
  switch (Index % 4) {
  case 0: // Default mix.
    break;
  case 1: // Tiny: a handful of methods, few instructions.
    Shape.Types = 3;
    Shape.Fields = 2;
    Shape.Methods = 5;
    Shape.MaxInstrPerMethod = 4;
    Shape.MaxLocals = 3;
    break;
  case 2: // Call-heavy: many small methods.
    Shape.Methods = 20;
    Shape.MaxInstrPerMethod = 6;
    break;
  case 3: // Field-heavy: deep heap shapes.
    Shape.Fields = 10;
    Shape.MaxInstrPerMethod = 12;
    break;
  }
  return Shape;
}

/// Renders the reproducer file: a commented header plus the program.
std::string renderReproducer(const Program &Prog, uint64_t Seed,
                             const OracleReport &Report,
                             const ShrinkResult &Shrink) {
  std::ostringstream OS;
  OS << "# hybridpt-fuzz reproducer (seed " << Seed << ")\n";
  OS << "# minimized " << Shrink.InstrBefore << " -> " << Shrink.InstrAfter
     << " instructions in " << Shrink.Probes << " probes\n";
  for (size_t I = 0; I < Report.Violations.size() && I < 3; ++I)
    OS << "# violation: " << Report.Violations[I].Detail << "\n";
  OS << "\n" << printProgram(Prog);
  return OS.str();
}

} // namespace

DriverResult pt::fuzz::runFuzz(const DriverOptions &Opts) {
  DriverResult Result;
  Stopwatch Campaign;

  auto BudgetLeft = [&] {
    if (Opts.Cancel && Opts.Cancel->cancelled())
      return false; // ^C / deadline: stop cleanly, keep findings so far.
    return Opts.BudgetMs == 0 ||
           Campaign.elapsedMs() < static_cast<double>(Opts.BudgetMs);
  };

  for (uint32_t Index = 0; Opts.MaxPrograms == 0 || Index < Opts.MaxPrograms;
       ++Index) {
    if (!BudgetLeft())
      break;
    if (Opts.MaxFailures != 0 && Result.Failures >= Opts.MaxFailures)
      break;

    uint64_t Seed = Opts.Seed + Index;
    std::unique_ptr<Program> Prog = fuzzProgram(Seed, shapeFor(Index));

    OracleOptions OOpts;
    OOpts.Policies = Opts.Policies;
    OOpts.InterpSeed = Seed;
    OOpts.SolverTimeBudgetMs = Opts.SolverTimeBudgetMs;
    OOpts.Cancel = Opts.Cancel;
    OOpts.FullReferenceDiff =
        Opts.FullDiffEvery != 0 && Index % Opts.FullDiffEvery == 0;
    OOpts.CheckProvenance = Opts.CheckProvenance;
    OOpts.CheckTaint = Opts.CheckTaint;

    OracleReport Report = checkProgram(*Prog, OOpts);
    ++Result.ProgramsRun;
    Result.TotalViolations += Report.Violations.size();

    if (Opts.Log && (Index % 50 == 0 || !Report.ok()))
      *Opts.Log << "[fuzz] #" << Index << " seed=" << Seed
                << " concrete=" << Report.ConcreteFacts
                << " violations=" << Report.Violations.size() << "\n";

    if (Report.ok())
      continue;

    ++Result.Failures;
    std::ostringstream Summary;
    Summary << "seed " << Seed << ": " << Report.Violations.size()
            << " violation(s); first: " << Report.Violations.front().Detail;
    Result.FailureSummaries.push_back(Summary.str());
    if (Opts.Log) {
      for (const CiViolation &V : Report.Violations)
        *Opts.Log << "  violation: " << V.Detail << "\n";
    }

    if (!Opts.Minimize)
      continue;

    // Shrink probes re-check only the implicated policies (plus whatever
    // the reference leg needs), without the expensive full differential.
    OracleOptions ProbeOpts = OOpts;
    ProbeOpts.FullReferenceDiff = OOpts.FullReferenceDiff;
    if (!Report.InvolvedPolicies.empty())
      ProbeOpts.Policies = Report.InvolvedPolicies;
    ShrinkResult Shrunk = shrinkProgram(
        *Prog,
        [&](const Program &Cand) { return !checkProgram(Cand, ProbeOpts).ok(); },
        {});
    OracleReport MinReport = checkProgram(*Shrunk.Minimized, ProbeOpts);
    if (Opts.Log)
      *Opts.Log << "  minimized " << Shrunk.InstrBefore << " -> "
                << Shrunk.InstrAfter << " instructions (" << Shrunk.Probes
                << " probes)\n";

    if (!Opts.RegressDir.empty()) {
      std::error_code DirEc;
      std::filesystem::create_directories(Opts.RegressDir, DirEc);
      std::string Path =
          Opts.RegressDir + "/fuzz-seed" + std::to_string(Seed) + ".ptir";
      std::ofstream Out(Path);
      if (Out) {
        Out << renderReproducer(*Shrunk.Minimized, Seed, MinReport, Shrunk);
        Result.ReproducerPaths.push_back(Path);
        if (Opts.Log)
          *Opts.Log << "  reproducer: " << Path << "\n";
      } else if (Opts.Log) {
        *Opts.Log << "  error: cannot write " << Path << "\n";
      }
    }
  }

  return Result;
}
