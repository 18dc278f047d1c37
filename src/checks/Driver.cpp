//===- checks/Driver.cpp ----------------------------------------------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//

#include "checks/Driver.h"

#include "checks/Flow.h"
#include "ir/Program.h"
#include "pta/AnalysisResult.h"

#include <algorithm>
#include <set>
#include <utility>

using namespace pt;
using namespace pt::checks;

LintRun pt::checks::runCheckers(const AnalysisResult &Result,
                                const std::vector<std::string> &Checks) {
  LintRun Run;
  Run.Aborted = Result.Aborted;
  Run.Reason = Result.Reason;
  Run.SolveMs = Result.SolveMs;

  CheckerRegistry &Reg = CheckerRegistry::instance();
  std::vector<std::string> Ids = Checks.empty() ? Reg.ids() : Checks;
  for (const std::string &Id : Ids) {
    std::unique_ptr<Checker> C = Reg.create(Id);
    if (!C) {
      Run.Error = "unknown checker '" + Id + "'";
      return Run;
    }
    Run.Rules.push_back(C->info());
    C->run(Result, Run.Diags);
  }
  sortDiagnostics(Run.Diags);
  return Run;
}

LintRun pt::checks::lintProgram(const Program &Prog, const LintOptions &Opts) {
  LadderResult Solved = analyze(Prog, Opts.Config);
  if (!Solved.Result) {
    LintRun Run;
    Run.Error = Solved.Error;
    return Run;
  }
  const AnalysisResult &Result = *Solved.Result;
  LintRun Run = runCheckers(Result, Opts.Checks);
  if (PT_PROV_ACTIVE(Opts.Config.Solver.Prov))
    attachDerivationFlows(Result, *Opts.Config.Solver.Prov, Run.Diags);
  if (Opts.KeepResult) {
    Run.Policy = std::move(Solved.Policy);
    Run.Result = std::move(Solved.Result);
  }
  return Run;
}

namespace {

/// Per-checker report keys of one run, ordered.
std::set<std::string> keysOf(const LintRun &Run, const std::string &CheckId) {
  std::set<std::string> Out;
  for (const Diagnostic &D : Run.Diags)
    if (D.CheckId == CheckId)
      Out.insert(D.SiteKey);
  return Out;
}

} // namespace

std::vector<std::string> CompareResult::monotonicityViolations() const {
  std::vector<std::string> Out;
  for (const CheckDelta &D : Deltas)
    if (D.Dir == Direction::May)
      for (const std::string &K : D.Introduced)
        Out.push_back(D.CheckId + "|" + K);
  return Out;
}

int64_t CompareResult::reduction() const {
  int64_t Sum = 0;
  for (const CheckDelta &D : Deltas)
    if (D.Dir == Direction::May)
      Sum += static_cast<int64_t>(D.Resolved.size()) -
             static_cast<int64_t>(D.Introduced.size());
  return Sum;
}

CompareResult pt::checks::compareRuns(std::string Base, std::string Refined,
                                      LintRun B, LintRun R) {
  CompareResult CR;
  CR.BasePolicy = std::move(Base);
  CR.RefinedPolicy = std::move(Refined);
  CR.Base = std::move(B);
  CR.Refined = std::move(R);
  if (!CR.Base.ok() || !CR.Refined.ok()) {
    CR.Error = CR.Base.ok() ? CR.Refined.Error : CR.Base.Error;
    return CR;
  }
  if (CR.Base.Aborted || CR.Refined.Aborted) {
    CR.Error = "a run hit its budget; the comparison would be meaningless";
    return CR;
  }

  for (const CheckerInfo &Info : CR.Base.Rules) {
    CheckDelta Delta;
    Delta.CheckId = Info.Id;
    Delta.Dir = Info.Dir;
    std::set<std::string> BaseKeys = keysOf(CR.Base, Info.Id);
    std::set<std::string> RefKeys = keysOf(CR.Refined, Info.Id);
    Delta.BaseCount = BaseKeys.size();
    Delta.RefinedCount = RefKeys.size();
    std::set_difference(BaseKeys.begin(), BaseKeys.end(), RefKeys.begin(),
                        RefKeys.end(), std::back_inserter(Delta.Resolved));
    std::set_difference(RefKeys.begin(), RefKeys.end(), BaseKeys.begin(),
                        BaseKeys.end(), std::back_inserter(Delta.Introduced));
    CR.Deltas.push_back(std::move(Delta));
  }
  return CR;
}

CompareResult pt::checks::comparePolicies(const Program &Prog,
                                          const std::string &Base,
                                          const std::string &Refined,
                                          const LintOptions &Opts) {
  // Two runs cannot share one arena: fact payloads embed per-run dense
  // object ids.  The comparison never reads provenance anyway.
  LintOptions RunOpts = Opts;
  RunOpts.Config.Solver.Prov = nullptr;
  RunOpts.KeepResult = false;
  RunOpts.Config.Policy = Base;
  LintRun B = lintProgram(Prog, RunOpts);
  LintRun R;
  if (B.ok()) {
    RunOpts.Config.Policy = Refined;
    R = lintProgram(Prog, RunOpts);
  }
  return compareRuns(Base, Refined, std::move(B), std::move(R));
}

void pt::checks::renderCompare(std::ostream &OS, const CompareResult &CR) {
  OS << "comparing " << CR.BasePolicy << " (base) vs " << CR.RefinedPolicy
     << " (refined)\n";
  OS << "  checker               base  refined  resolved  introduced\n";
  for (const CheckDelta &D : CR.Deltas) {
    OS << "  " << D.CheckId;
    for (size_t I = D.CheckId.size(); I < 20; ++I)
      OS << ' ';
    OS << ' ';
    auto Cell = [&](size_t N, int Width) {
      std::string S = std::to_string(N);
      for (int I = static_cast<int>(S.size()); I < Width; ++I)
        OS << ' ';
      OS << S;
    };
    Cell(D.BaseCount, 5);
    Cell(D.RefinedCount, 9);
    Cell(D.Resolved.size(), 10);
    Cell(D.Introduced.size(), 12);
    if (D.Dir == Direction::Definite)
      OS << "  (definite; excluded from reduction)";
    OS << "\n";
  }
  OS << "may-report reduction: " << CR.reduction() << "\n";
  std::vector<std::string> Bad = CR.monotonicityViolations();
  if (Bad.empty()) {
    OS << "monotonicity: ok (refined may-reports are a subset of base)\n";
  } else {
    OS << "monotonicity: VIOLATED — refined policy introduced "
       << Bad.size() << " may-report(s):\n";
    for (const std::string &K : Bad)
      OS << "  " << K << "\n";
  }
}
