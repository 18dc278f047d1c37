//===- tools/hybridpt_lint.cpp - Checker-suite CLI --------------------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs the points-to-backed checker suite over a PTIR file (or built-in
/// benchmark) and reports diagnostics as text, JSONL, or SARIF 2.1.0.
///
///   hybridpt-lint [options] <file.ptir | benchmark-name>
///   hybridpt-lint --list-checks
///
/// Options:
///   --policy NAME      context policy to analyze under (default 2obj+H)
///   --checks A,B,...   checker ids to run (default: all)
///   --format FMT       text | jsonl | sarif (default text)
///   --output FILE      write the report to FILE instead of stdout
///   --compare B,R      lint under policies B and R, diff the reports, and
///                      fail when R introduces a may-report B lacks
///                      (checker monotonicity; R must refine B)
///   --budget MS        solver time budget per run (0 = unlimited)
///   --max-facts N      solver fact budget per run (0 = unlimited)
///   --max-memory-mb N  solver memory budget per run (0 = unlimited)
///   --deadline-ms MS   whole-process deadline; expiry cancels cleanly
///   --provenance       record derivation provenance; SARIF results with
///                      "why" anchors gain codeFlows derivation paths
///   --why var=Q,heap=N ask why the lint run derived VarPointsTo(Q, *, N)
///                      and print its derivation tree (implies
///                      --provenance; repeatable; exit 1 when unproven)
///   --taint-spec FILE  taint-instrument the program under spec FILE
///                      before linting (docs/CHECKS.md "Taint analysis");
///                      the tainted-sink checker (HPT007) reports nothing
///                      without it
///   --fail-on SEV      exit 4 when any diagnostic of severity SEV or
///                      higher (note < warning < error) was reported —
///                      the CI gating mode
///
/// ^C cancels cooperatively: the solver stops at its next guard poll and
/// the report (text/JSONL/SARIF) is still rendered and flushed, marked as
/// computed from an under-approximate fixpoint (second ^C kills).
///
/// Exit codes: 0 success, 1 usage/input/analysis error, 2 monotonicity
/// violation in --compare mode, 3 unknown policy name in --compare (a
/// typo'd gate invocation must not read as a precision bug, and CI greps
/// tell the two apart by code), 4 a diagnostic at or above --fail-on.
/// Without --fail-on, diagnostics alone never fail the run;
/// baseline-diffing is the CI gate (see .github/workflows/ci.yml).
///
//===----------------------------------------------------------------------===//

#include "checks/Driver.h"
#include "checks/Render.h"
#include "checks/Sarif.h"
#include "context/PolicyRegistry.h"
#include "ir/Program.h"
#include "irtext/TextFormat.h"
#include "pta/Flags.h"
#include "support/Cancel.h"

#include <fstream>
#include <iostream>

using namespace pt;

namespace {

struct CliOptions {
  /// --policy, the budgets, --deadline-ms, --provenance, --why and
  /// --taint-spec.
  SharedFlags Flags;
  std::string Format = "text";
  std::string Output;
  std::string Input;
  std::string ComparePair;
  std::vector<std::string> Checks;
  std::string FailOn;
};

int usage(const char *Argv0) {
  std::cerr << "usage: " << Argv0
            << " [--policy NAME] [--checks A,B,...]\n"
               "       [--format text|jsonl|sarif] [--output FILE]\n"
               "       [--compare BASE,REFINED] [--budget MS] "
               "[--max-facts N]\n"
               "       [--max-memory-mb N] [--deadline-ms MS]\n"
               "       [--provenance] [--why var=Q,heap=N]\n"
               "       [--taint-spec FILE] [--fail-on note|warning|error]\n"
               "       <file.ptir | benchmark-name>\n"
               "       "
            << Argv0 << " --list-checks | --list-policies\n";
  return 1;
}

int listChecks() {
  checks::CheckerRegistry &Reg = checks::CheckerRegistry::instance();
  for (const std::string &Id : Reg.ids()) {
    const checks::CheckerInfo *Info = Reg.info(Id);
    std::cout << Info->RuleId << "  " << Id << " ("
              << (Info->Dir == checks::Direction::May ? "may" : "definite")
              << ", " << checks::severityName(Info->Sev) << ")\n        "
              << Info->Summary << "\n";
  }
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  CliOptions Opts;
  Opts.Flags.Config.Policy = "2obj+H";
  const unsigned Shared = FlagPolicy | FlagBudgets | FlagDeadline |
                          FlagProvenance | FlagWhy | FlagTaintSpec;
  ArgParser Args(argc, argv);
  while (Args.next()) {
    if (Args.shared(Shared, Opts.Flags))
      continue;
    if (Args.is("--list-checks")) {
      return listChecks();
    } else if (Args.is("--list-policies")) {
      for (const std::string &Name : allPolicyNames())
        std::cout << Name << "\n";
      return 0;
    } else if (Args.is("--checks")) {
      Opts.Checks = splitCommaList(Args.value());
    } else if (Args.is("--format")) {
      Opts.Format = Args.value();
      if (Opts.Format != "text" && Opts.Format != "jsonl" &&
          Opts.Format != "sarif")
        return usage(argv[0]);
    } else if (Args.is("--output")) {
      Opts.Output = Args.value();
    } else if (Args.is("--compare")) {
      Opts.ComparePair = Args.value();
    } else if (Args.is("--fail-on")) {
      Opts.FailOn = Args.value();
      if (Opts.FailOn != "note" && Opts.FailOn != "warning" &&
          Opts.FailOn != "error")
        return usage(argv[0]);
    } else if (Args.arg()[0] == '-') {
      return usage(argv[0]);
    } else if (Opts.Input.empty()) {
      Opts.Input = Args.arg();
    } else {
      return usage(argv[0]);
    }
  }
  if (Opts.Input.empty())
    return usage(argv[0]);

  // Taint instrumentation rewrites the program before any analysis, so
  // both the single-run and --compare paths see the instrumented IR.
  LoadedProgram Loaded = loadProgram(Opts.Input, Opts.Flags.TaintSpecPath);
  if (!Loaded.ok()) {
    for (const std::string &E : Loaded.Errors)
      std::cerr << E << "\n";
    return 1;
  }
  const Program *P = Loaded.Prog;

  std::ofstream OutFile;
  std::ostream *OS = &std::cout;
  if (!Opts.Output.empty()) {
    OutFile.open(Opts.Output);
    if (!OutFile) {
      std::cerr << "cannot write '" << Opts.Output << "'\n";
      return 1;
    }
    OS = &OutFile;
  }

  // ^C / --deadline-ms cancel cooperatively so a partial report still
  // renders and flushes (SA_RESETHAND: a second ^C kills).
  static CancelToken Cancel;
  installSigintCancel(Cancel);
  if (Opts.Flags.DeadlineMs != 0)
    Cancel.setDeadlineMs(Opts.Flags.DeadlineMs);

  checks::LintOptions LOpts;
  LOpts.Config = Opts.Flags.Config;
  LOpts.Config.Solver.Cancel = &Cancel;
  LOpts.Checks = Opts.Checks;

  prov::Recorder ProvRec;
  if (Opts.Flags.Provenance || !Opts.Flags.Why.empty()) {
#if !HYBRIDPT_PROVENANCE_ENABLED
    std::cerr << "this build has provenance compiled out "
                 "(HYBRIDPT_PROVENANCE=0)\n";
    return 1;
#endif
    if (!Opts.ComparePair.empty()) {
      std::cerr << "--provenance/--why do not combine with --compare "
                   "(two runs cannot share one derivation arena)\n";
      return 1;
    }
    LOpts.Config.Solver.Prov = &ProvRec;
    LOpts.KeepResult = !Opts.Flags.Why.empty();
  }

  if (!Opts.ComparePair.empty()) {
    if (!Opts.FailOn.empty()) {
      std::cerr << "--fail-on does not combine with --compare (the "
                   "monotonicity diff already gates via exit 2)\n";
      return 1;
    }
    std::vector<std::string> Pair = splitCommaList(Opts.ComparePair);
    if (Pair.size() != 2) {
      std::cerr << "--compare wants BASE,REFINED\n";
      return 1;
    }
    // Reject unknown policy names up front with a distinct exit code:
    // burying the name error inside the comparison made a typo'd gate
    // invocation indistinguishable from an analysis failure.
    for (const std::string &Name : Pair) {
      if (!createPolicy(Name, *P)) {
        std::cerr << "error: --compare: unknown policy '" << Name
                  << "' (not a registered analysis; see docs/ANALYSES.md)\n";
        return 3;
      }
    }
    checks::CompareResult CR =
        checks::comparePolicies(*P, Pair[0], Pair[1], LOpts);
    if (!CR.ok()) {
      std::cerr << "error: " << CR.Error << "\n";
      return 1;
    }
    checks::renderCompare(*OS, CR);
    return CR.monotonicityViolations().empty() ? 0 : 2;
  }

  const std::string &Policy = Opts.Flags.Config.Policy;
  checks::LintRun Run = checks::lintProgram(*P, LOpts);
  if (!Run.ok()) {
    std::cerr << "error: " << Run.Error << "\n";
    return 1;
  }
  if (Run.Aborted)
    std::cerr << "warning: solver aborted (" << abortReasonName(Run.Reason)
              << "); report is computed from an under-approximate "
                 "fixpoint\n";

  if (Opts.Format == "text") {
    checks::renderText(*OS, *P, Run.Diags);
    *OS << Run.Diags.size() << " diagnostic(s) under policy " << Policy
        << "\n";
  } else if (Opts.Format == "jsonl") {
    checks::renderJsonl(*OS, *P, Run.Diags, Policy);
  } else {
    checks::SarifOptions SOpts;
    SOpts.PolicyName = Policy;
    checks::writeSarif(*OS, *P, Run.Diags, Run.Rules, SOpts);
  }

  // --why queries run against the kept result: derivation trees go to
  // stdout (never the --output report file).
  int Exit = 0;
  for (const WhyQuery &Q : Opts.Flags.Why) {
    VarId V = findVarByPath(*P, Q.VarPath);
    if (!V.isValid()) {
      std::cerr << "no variable '" << Q.VarPath << "'\n";
      return 1;
    }
    HeapId H = findHeapByName(*P, Q.HeapName);
    if (!H.isValid()) {
      std::cerr << "no heap site '" << Q.HeapName << "'\n";
      return 1;
    }
    prov::DerivationTree Tree =
        prov::whyPointsTo(ProvRec, *Run.Result, V, CtxId(), H);
    std::cout << prov::renderTreeText(ProvRec, *Run.Result, Tree);
    if (!Tree.Found)
      Exit = 1;
  }

  // --fail-on gating: exit 4 when any diagnostic reaches the threshold.
  if (Exit == 0 && !Opts.FailOn.empty()) {
    checks::Severity Min = Opts.FailOn == "error" ? checks::Severity::Error
                           : Opts.FailOn == "warning"
                               ? checks::Severity::Warning
                               : checks::Severity::Note;
    size_t Gating = 0;
    for (const checks::Diagnostic &D : Run.Diags)
      if (D.Sev >= Min)
        ++Gating;
    if (Gating != 0) {
      std::cerr << "hybridpt-lint: " << Gating << " diagnostic(s) at or "
                << "above --fail-on " << Opts.FailOn << "\n";
      Exit = 4;
    }
  }
  return Exit;
}
