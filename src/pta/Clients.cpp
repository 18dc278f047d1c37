//===- pta/Clients.cpp ----------------------------------------------------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//

#include "pta/Clients.h"

#include "ir/Program.h"
#include "pta/AnalysisResult.h"

#include <algorithm>
#include <tuple>

using namespace pt;

std::vector<DevirtSite> pt::devirtualizeCalls(const AnalysisResult &Result) {
  const Program &Prog = Result.program();
  const CiView &Ci = Result.ci();

  std::vector<DevirtSite> Rows;
  for (uint32_t I = 0; I < Prog.numInvokes(); ++I) {
    const InvokeInfo &Inv = Prog.invoke(InvokeId(I));
    if (Inv.IsStatic || !Ci.isReachable(Inv.InMethod))
      continue;
    auto Targets = Ci.callTargets(InvokeId(I));
    DevirtSite Row;
    Row.Invo = InvokeId(I);
    Row.Targets.assign(Targets.begin(), Targets.end());
    Row.Verdict = Targets.empty()        ? DevirtVerdict::Dead
                  : Targets.size() == 1 ? DevirtVerdict::Monomorphic
                                        : DevirtVerdict::Polymorphic;
    Rows.push_back(std::move(Row));
  }
  return Rows;
}

std::vector<CastCheck> pt::checkCasts(const AnalysisResult &Result) {
  const Program &Prog = Result.program();
  const CiView &Ci = Result.ci();

  std::vector<CastCheck> Rows;
  for (uint32_t Site = 0; Site < Prog.numCastSites(); ++Site) {
    const CastSite &CS = Prog.castSite(Site);
    if (!Ci.isReachable(CS.InMethod))
      continue;
    auto Heaps = Ci.pointsTo(CS.From);
    CastCheck Row;
    Row.Site = Site;
    for (HeapId H : Heaps)
      if (!Prog.isSubtype(Prog.heap(H).Type, CS.Target))
        Row.Offenders.push_back(H);
    Row.Verdict = Heaps.empty()              ? CastVerdict::Unreached
                  : Row.Offenders.empty() ? CastVerdict::Safe
                                          : CastVerdict::MayFail;
    Rows.push_back(std::move(Row));
  }
  return Rows;
}

std::vector<TaintedSink> pt::findTaintedSinks(const AnalysisResult &Result) {
  const Program &Prog = Result.program();
  const CiView &Ci = Result.ci();
  std::vector<TaintedSink> Out;
  std::vector<HeapId> Witness(Prog.taintTags().size());

  for (const Program::TaintSink &S : Prog.taintSinks()) {
    const InvokeInfo &I = Prog.invoke(S.Site);
    if (!Ci.isReachable(I.InMethod))
      continue;
    VarId Actual = I.Actuals[S.ArgIdx];
    // Heap sites are sorted ascending, so the first hit per tag is the
    // lowest-id witness.
    std::fill(Witness.begin(), Witness.end(), HeapId::invalid());
    for (HeapId H : Ci.pointsTo(Actual)) {
      uint32_t Tag = Prog.heap(H).TaintTag;
      if (Tag != 0 && !Witness[Tag - 1].isValid())
        Witness[Tag - 1] = H;
    }
    for (uint32_t T = 0; T < Witness.size(); ++T)
      if (Witness[T].isValid())
        Out.push_back({S.Site, S.ArgIdx, T, Actual, Witness[T]});
  }

  std::sort(Out.begin(), Out.end(), [](const TaintedSink &A,
                                       const TaintedSink &B) {
    return std::tie(A.Site, A.ArgIdx, A.TagIdx) <
           std::tie(B.Site, B.ArgIdx, B.TagIdx);
  });
  return Out;
}
