//===- pta/Explain.cpp --------------------------------------------------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//

#include "pta/Explain.h"

#include "ir/Program.h"
#include "pta/AnalysisResult.h"
#include "pta/Clients.h"

#include <algorithm>
#include <iterator>
#include <span>
#include <sstream>

using namespace pt;

namespace {

/// Number of elements of sorted \p Coarse missing from sorted \p Refined.
template <typename T>
size_t countMissing(std::span<const T> Coarse, std::span<const T> Refined) {
  size_t N = 0;
  auto It = Refined.begin();
  for (const T &X : Coarse) {
    It = std::lower_bound(It, Refined.end(), X);
    N += It == Refined.end() || *It != X;
  }
  return N;
}

} // namespace

AnalysisDelta pt::diffResults(const AnalysisResult &Coarse,
                              const AnalysisResult &Refined) {
  AnalysisDelta Delta;

  // A cast may-fail under Coarse either still fails under Refined or lost
  // every offender.
  for (const CastCheck &C : checkCasts(Coarse)) {
    if (C.Verdict != CastVerdict::MayFail)
      continue;
    if (Refined.mayFailCast(C.Site))
      Delta.CastsStillFailing.push_back(C.Site);
    else
      Delta.CastsFixed.push_back({C.Site, C.Offenders});
  }

  // Devirtualization deltas.
  for (const DevirtSite &S : devirtualizeCalls(Coarse)) {
    auto After = Refined.ci().callTargets(S.Invo);
    CallFix Fix{S.Invo, {}};
    std::set_difference(S.Targets.begin(), S.Targets.end(), After.begin(),
                        After.end(), std::back_inserter(Fix.RemovedTargets));
    if (!Fix.RemovedTargets.empty())
      Delta.CallsRefined.push_back(std::move(Fix));
  }

  // The context-insensitive relations, merged range by range.
  const CiView &CoarseCi = Coarse.ci();
  const CiView &RefinedCi = Refined.ci();
  const Program &Prog = Coarse.program();
  for (uint32_t V = 0; V < Prog.numVars(); ++V)
    Delta.VarPointsToPairsRemoved += countMissing(
        CoarseCi.pointsTo(VarId(V)), RefinedCi.pointsTo(VarId(V)));
  for (uint32_t I = 0; I < Prog.numInvokes(); ++I)
    Delta.CallEdgesRemoved += countMissing(
        CoarseCi.callTargets(InvokeId(I)), RefinedCi.callTargets(InvokeId(I)));
  for (MethodId M : CoarseCi.reachableMethods())
    Delta.MethodsRemoved += !RefinedCi.isReachable(M);
  return Delta;
}

std::string pt::formatDelta(const AnalysisDelta &Delta, const Program &Prog,
                            size_t DetailLimit) {
  std::ostringstream OS;
  OS << "precision delta: " << Delta.CastsFixed.size()
     << " casts fixed, " << Delta.CastsStillFailing.size()
     << " still failing; " << Delta.CallsRefined.size()
     << " call sites refined; " << Delta.VarPointsToPairsRemoved
     << " spurious var-points-to pairs, " << Delta.CallEdgesRemoved
     << " spurious call edges, " << Delta.MethodsRemoved
     << " unreachable methods removed\n";

  size_t Shown = 0;
  for (const CastFix &Fix : Delta.CastsFixed) {
    if (++Shown > DetailLimit) {
      OS << "  ... (" << (Delta.CastsFixed.size() - DetailLimit)
         << " more fixed casts)\n";
      break;
    }
    const CastSite &Site = Prog.castSite(Fix.Site);
    OS << "  fixed: (" << Prog.text(Prog.type(Site.Target).Name)
       << ") cast in " << Prog.qualifiedName(Site.InMethod)
       << "; eliminated:";
    size_t N = 0;
    for (HeapId H : Fix.RemovedOffenders) {
      if (++N > 3) {
        OS << " ...";
        break;
      }
      OS << ' ' << Prog.text(Prog.heap(H).Name);
    }
    OS << '\n';
  }

  Shown = 0;
  for (const CallFix &Fix : Delta.CallsRefined) {
    if (++Shown > DetailLimit) {
      OS << "  ... (" << (Delta.CallsRefined.size() - DetailLimit)
         << " more refined call sites)\n";
      break;
    }
    const InvokeInfo &Call = Prog.invoke(Fix.Invo);
    OS << "  refined: " << Prog.text(Call.Name) << " in "
       << Prog.qualifiedName(Call.InMethod) << "; no longer targets:";
    size_t N = 0;
    for (MethodId T : Fix.RemovedTargets) {
      if (++N > 3) {
        OS << " ...";
        break;
      }
      OS << ' ' << Prog.qualifiedName(T);
    }
    OS << '\n';
  }
  return OS.str();
}
