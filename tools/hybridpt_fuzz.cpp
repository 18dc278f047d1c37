//===- tools/hybridpt_fuzz.cpp - Differential fuzzing driver ---------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs the differential correctness harness (docs/CORRECTNESS.md): fuzzed
/// programs are executed concretely (soundness oracle), cross-checked
/// against the Datalog reference model (equivalence oracle), and checked
/// against the paper's precision-ordering invariants; failures are
/// delta-debugged to minimal irtext reproducers.
///
///   hybridpt-fuzz [options]
///
/// Options:
///   --seed N             base seed; program i uses seed N+i (default 1)
///   --max-programs N     stop after N programs (default 500; 0 = until
///                        the time budget expires)
///   --budget-ms MS       campaign wall-clock budget (default 0 = none)
///   --minimize / --no-minimize
///                        delta-debug failing programs (default on)
///   --regress-dir DIR    write minimized reproducers to DIR as .ptir
///   --policy NAME        check only NAME (repeatable; default: the
///                        fifteen standard analyses)
///   --full-diff-every N  exact reference differential every Nth program
///                        (default 25; 0 = never)
///   --max-failures N     stop after N failing programs (default 5)
///   --solver-budget MS   per-solver-run budget (default 0 = unlimited)
///   --check-provenance   record derivation provenance during every solver
///                        run and replay sampled steps through the
///                        rule-checking validator (fourth oracle axis)
///   --check-taint        derive a synthetic taint spec per program, run
///                        the interpreter with shadow taint tags, and
///                        require every dynamically tainted sink to be
///                        statically reported by the tainted-sink client
///                        under every policy, monotonically across the
///                        precision order (fifth oracle axis)
///   --deadline-ms MS     whole-campaign deadline; expiry cancels cleanly
///   --quiet              suppress progress output
///
/// ^C cancels cooperatively: the campaign stops at the next guard poll and
/// still reports every failure found so far (second ^C kills).
///
/// Exit status: 0 when every program passed, 1 on any violation, 2 on
/// usage errors.
///
//===----------------------------------------------------------------------===//

#include "context/PolicyRegistry.h"
#include "fuzz/Driver.h"
#include "support/Cancel.h"

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

using namespace pt;

namespace {

int usage(const char *Argv0) {
  std::cerr << "usage: " << Argv0
            << " [--seed N] [--max-programs N] [--budget-ms MS]\n"
               "       [--minimize | --no-minimize] [--regress-dir DIR]\n"
               "       [--policy NAME]... [--full-diff-every N]\n"
               "       [--max-failures N] [--solver-budget MS]\n"
               "       [--check-provenance] [--check-taint]\n"
               "       [--deadline-ms MS] [--quiet]\n";
  return 2;
}

bool parseU64(const char *Text, uint64_t &Out) {
  char *End = nullptr;
  unsigned long long V = std::strtoull(Text, &End, 10);
  if (End == Text || *End != '\0')
    return false;
  Out = V;
  return true;
}

} // namespace

int main(int argc, char **argv) {
  fuzz::DriverOptions Opts;
  Opts.FullDiffEvery = 25;
  bool Quiet = false;
  uint64_t DeadlineMs = 0;

  for (int I = 1; I < argc; ++I) {
    const char *Arg = argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < argc ? argv[++I] : nullptr;
    };
    uint64_t N = 0;
    if (std::strcmp(Arg, "--seed") == 0) {
      const char *V = Next();
      if (!V || !parseU64(V, Opts.Seed))
        return usage(argv[0]);
    } else if (std::strcmp(Arg, "--max-programs") == 0) {
      const char *V = Next();
      if (!V || !parseU64(V, N))
        return usage(argv[0]);
      Opts.MaxPrograms = static_cast<uint32_t>(N);
    } else if (std::strcmp(Arg, "--budget-ms") == 0) {
      const char *V = Next();
      if (!V || !parseU64(V, Opts.BudgetMs))
        return usage(argv[0]);
    } else if (std::strcmp(Arg, "--minimize") == 0) {
      Opts.Minimize = true;
    } else if (std::strcmp(Arg, "--no-minimize") == 0) {
      Opts.Minimize = false;
    } else if (std::strcmp(Arg, "--regress-dir") == 0) {
      const char *V = Next();
      if (!V)
        return usage(argv[0]);
      Opts.RegressDir = V;
    } else if (std::strcmp(Arg, "--policy") == 0) {
      const char *V = Next();
      if (!V)
        return usage(argv[0]);
      Opts.Policies.push_back(V);
    } else if (std::strcmp(Arg, "--full-diff-every") == 0) {
      const char *V = Next();
      if (!V || !parseU64(V, N))
        return usage(argv[0]);
      Opts.FullDiffEvery = static_cast<uint32_t>(N);
    } else if (std::strcmp(Arg, "--max-failures") == 0) {
      const char *V = Next();
      if (!V || !parseU64(V, N))
        return usage(argv[0]);
      Opts.MaxFailures = static_cast<uint32_t>(N);
    } else if (std::strcmp(Arg, "--solver-budget") == 0) {
      const char *V = Next();
      if (!V || !parseU64(V, Opts.SolverTimeBudgetMs))
        return usage(argv[0]);
    } else if (std::strcmp(Arg, "--check-provenance") == 0) {
      Opts.CheckProvenance = true;
    } else if (std::strcmp(Arg, "--check-taint") == 0) {
      Opts.CheckTaint = true;
    } else if (std::strcmp(Arg, "--deadline-ms") == 0) {
      const char *V = Next();
      if (!V || !parseU64(V, DeadlineMs))
        return usage(argv[0]);
    } else if (std::strcmp(Arg, "--quiet") == 0) {
      Quiet = true;
    } else {
      std::cerr << "unknown option: " << Arg << "\n";
      return usage(argv[0]);
    }
  }

  for (const std::string &Name : Opts.Policies) {
    bool Known = false;
    for (const std::string &Have : allPolicyNames())
      Known |= Have == Name;
    if (!Known) {
      std::cerr << "unknown policy: " << Name << "\n";
      return 2;
    }
  }

  if (!Quiet)
    Opts.Log = &std::cerr;

  // ^C / --deadline-ms stop the campaign cooperatively; every failure
  // found so far is still reported (SA_RESETHAND: a second ^C kills).
  static CancelToken Cancel;
  installSigintCancel(Cancel);
  if (DeadlineMs != 0)
    Cancel.setDeadlineMs(DeadlineMs);
  Opts.Cancel = &Cancel;

  fuzz::DriverResult Result = fuzz::runFuzz(Opts);

  if (Cancel.cancelled())
    std::cerr << "hybridpt-fuzz: campaign cancelled; partial results "
                 "follow\n";

  std::cout << "hybridpt-fuzz: " << Result.ProgramsRun << " programs, "
            << Result.Failures << " failing, " << Result.TotalViolations
            << " total violations\n";
  for (const std::string &S : Result.FailureSummaries)
    std::cout << "FAIL " << S << "\n";
  for (const std::string &P : Result.ReproducerPaths)
    std::cout << "reproducer " << P << "\n";
  if (Result.ok())
    std::cout << "OK: no soundness/equivalence violations\n";
  return Result.ok() ? 0 : 1;
}
