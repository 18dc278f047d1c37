//===- pta/Degrade.cpp ---------------------------------------------------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//

#include "pta/Degrade.h"

#include "context/PolicyRegistry.h"
#include "ir/Program.h"
#include "pta/Trace.h"

#include <algorithm>

using namespace pt;

std::vector<std::string> pt::fallbackLadder(std::string_view Policy) {
  std::vector<std::string> Rungs;
  Rungs.emplace_back(Policy);
  // Chain walk: follow the first listed coarser pair per policy.  A policy
  // with no listed pair ends the walk right there — the old behavior of
  // silently jumping to insens manufactured a "provable" degradation the
  // ledger never proved, which validateLadder then waved through because
  // it shared the same axiom.  Callers that need a complete ladder check
  // that the walk reached insens and fail fast otherwise.  The pair list
  // is a DAG, but cap the walk anyway so a bad edit cannot loop forever.
  size_t Cap = allPolicyNames().size() + 1;
  while (Rungs.back() != "insens" && Rungs.size() <= Cap) {
    const std::string &Cur = Rungs.back();
    std::string Next;
    for (const auto &[Fine, Coarse] : precisionOrderPairs()) {
      if (Fine == Cur) {
        Next = Coarse;
        break;
      }
    }
    if (Next.empty())
      break; // No proven coarser policy: the ladder stops here.
    Rungs.push_back(Next);
  }
  return Rungs;
}

bool pt::validateLadder(const std::vector<std::string> &Rungs,
                        std::string &Error) {
  const std::vector<std::string> &Known = allPolicyNames();
  for (const std::string &R : Rungs) {
    if (std::find(Known.begin(), Known.end(), R) == Known.end()) {
      Error = "unknown policy '" + R + "' in ladder";
      return false;
    }
  }
  for (size_t I = 1; I < Rungs.size(); ++I) {
    if (!isProvablyCoarser(Rungs[I - 1], Rungs[I])) {
      // Distinguish "this step is unproven" from "the finer policy has no
      // precision-order entries at all" — the latter names the policy that
      // needs a ledger entry instead of blaming an arbitrary step.
      bool HasAnyPair = false;
      for (const auto &[Fine, Coarse] : precisionOrderPairs())
        if (Fine == Rungs[I - 1]) {
          HasAnyPair = true;
          break;
        }
      if (!HasAnyPair)
        Error = "policy '" + Rungs[I - 1] +
                "' has no precision-order pairs; no degradation from it is "
                "provable";
      else
        Error = "ladder rung '" + Rungs[I] +
                "' is not provably coarser than '" + Rungs[I - 1] + "'";
      return false;
    }
  }
  return true;
}

LadderResult pt::solveWithLadder(const Program &Prog,
                                 std::string_view PolicyName,
                                 const SolverOptions &Opts,
                                 const LadderOptions &LOpts) {
  LadderResult Out;
  Out.RequestedPolicy = std::string(PolicyName);

  std::vector<std::string> Rungs;
  if (LOpts.Rungs.empty()) {
    Rungs = fallbackLadder(PolicyName);
    if (Rungs.back() != "insens") {
      // Fail fast instead of silently degrading through an unproven jump:
      // the chain walk stopped at a policy with no precision-order pairs.
      Out.Error = "no complete fallback ladder for '" +
                  std::string(PolicyName) + "': policy '" + Rungs.back() +
                  "' has no precision-order pairs, so the derived ladder "
                  "stops before insens";
      return Out;
    }
  } else {
    Rungs.emplace_back(PolicyName);
    Rungs.insert(Rungs.end(), LOpts.Rungs.begin(), LOpts.Rungs.end());
  }
  if (!validateLadder(Rungs, Out.Error))
    return Out;
  return solveRungs(Prog, Rungs, Opts, &LOpts);
}

LadderResult pt::solveRungs(const Program &Prog,
                            const std::vector<std::string> &Rungs,
                            const SolverOptions &Opts,
                            const LadderOptions *Ladder) {
  LadderResult Out;
  Out.RequestedPolicy = Rungs.front();
  // Warm start (see pta/Degrade.h): the insens rung is seeded with the
  // last aborted finer rung's reachable set.
  std::vector<MethodId> Seeds;
  for (size_t RI = 0; RI < Rungs.size(); ++RI) {
    const std::string &Rung = Rungs[RI];
    auto Pol = createPolicy(Rung, Prog);
    if (!Pol) {
      Out.Error = "unknown policy '" + Rung + "'";
      return Out;
    }
    SolverOptions SOpts = Opts;
    // Fallback rungs run under fresh trace labels: heartbeat step/fact
    // series are monotone per label, and a re-run restarts from zero.
    if (RI > 0 && !Opts.TraceLabel.empty())
      SOpts.TraceLabel = Opts.TraceLabel + "~" + Rung;
    if (RI > 0 && Rung == "insens")
      SOpts.SeedReachable = Seeds;
    // Each rung is a fresh run with fresh dense object ids; derivations of
    // the landed rung must not cite facts from an aborted finer attempt.
    if (Ladder && PT_PROV_ACTIVE(SOpts.Prov))
      SOpts.Prov->clear();
    AnalysisResult R = solveProgram(Prog, *Pol, SOpts);
    if (Ladder)
      Out.Trail.push_back({Rung, R.SolveMs, R.Reason});

    bool ResourceAbort =
        R.Aborted && (R.Reason == AbortReason::TimeBudget ||
                      R.Reason == AbortReason::FactBudget ||
                      R.Reason == AbortReason::MemoryBudget);
    bool LastRung = RI + 1 == Rungs.size();
    if (!ResourceAbort || LastRung) {
      // Land here: converged, cancelled (the user wants out, not a
      // coarser answer), or ladder exhausted.
      if (Ladder && Opts.Trace && ResourceAbort)
        Opts.Trace->ladder(Opts.TraceLabel, Rung, /*To=*/"",
                           abortReasonName(R.Reason), R.SolveMs);
      Out.LandedPolicy = Rung;
      if (RI > 0)
        Out.FallbackFrom = Out.RequestedPolicy;
      Out.Exhausted = ResourceAbort;
      Out.Policy = std::move(Pol);
      Out.Result.emplace(std::move(R));
      return Out;
    }

    if (Opts.Trace)
      Opts.Trace->ladder(Opts.TraceLabel, Rung, Rungs[RI + 1],
                         abortReasonName(R.Reason), R.SolveMs);
    Seeds = R.reachableMethods();
  }
  // Unreachable: the loop always lands on its last rung.
  Out.Error = "empty ladder";
  return Out;
}
