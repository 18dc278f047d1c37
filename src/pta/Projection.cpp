//===- pta/Projection.cpp ------------------------------------------------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//

#include "pta/Projection.h"

#include "ir/Program.h"
#include "pta/AnalysisResult.h"

#include <sstream>

using namespace pt;

CiProjection pt::ciProject(const AnalysisResult &R) {
  const Program &Prog = R.program();
  const CiView &Ci = R.ci();
  CiProjection P;
  // Every source below is sorted, so each insert lands at the end.
  for (uint32_t V = 0; V < Prog.numVars(); ++V)
    for (HeapId H : Ci.pointsTo(VarId(V)))
      P.VarPointsTo.emplace_hint(P.VarPointsTo.end(), V, H.index());
  for (uint32_t I = 0; I < Prog.numInvokes(); ++I)
    for (MethodId M : Ci.callTargets(InvokeId(I)))
      P.CallEdges.emplace_hint(P.CallEdges.end(), I, M.index());
  for (MethodId M : Ci.reachableMethods())
    P.ReachableMethods.emplace_hint(P.ReachableMethods.end(), M.index());
  auto Statics = R.ciStaticEdges();
  P.StaticFieldPointsTo.insert(Statics.begin(), Statics.end());
  auto Fields = R.ciFieldEdges();
  P.FieldPointsTo.insert(Fields.begin(), Fields.end());
  for (uint32_t Site = 0; Site < Prog.numCastSites(); ++Site)
    if (R.mayFailCast(Site))
      P.MayFailCasts.emplace_hint(P.MayFailCasts.end(), Site);
  return P;
}

namespace {

std::string varLabel(const Program &Prog, uint32_t V) {
  const VarInfo &Info = Prog.var(VarId(V));
  return Prog.qualifiedName(Info.Owner) + ":" + Prog.text(Info.Name);
}

std::string heapLabel(const Program &Prog, uint32_t H) {
  return Prog.text(Prog.heap(HeapId(H)).Name);
}

std::string invokeLabel(const Program &Prog, uint32_t I) {
  const InvokeInfo &Info = Prog.invoke(InvokeId(I));
  return Prog.qualifiedName(Info.InMethod) + ":" + Prog.text(Info.Name);
}

std::string fieldLabel(const Program &Prog, uint32_t F) {
  return Prog.text(Prog.field(FieldId(F)).Name);
}

std::string castLabel(const Program &Prog, uint32_t Site) {
  const CastSite &CS = Prog.castSite(Site);
  std::ostringstream OS;
  OS << Prog.qualifiedName(CS.InMethod) << ": "
     << Prog.text(Prog.var(CS.To).Name) << " = ("
     << Prog.text(Prog.type(CS.Target).Name) << ") "
     << Prog.text(Prog.var(CS.From).Name);
  return OS.str();
}

/// Reports the facts of \p Fine missing from \p Coarse for one relation,
/// rendering each missing fact through \p Render.
template <typename SetT, typename RenderFn>
size_t diffRelation(const char *Relation, const SetT &Fine,
                    const SetT &Coarse, const std::string &FineLabel,
                    const std::string &CoarseLabel, RenderFn Render,
                    std::vector<CiViolation> &Out, size_t MaxPerRelation) {
  size_t Missing = 0;
  for (const auto &Fact : Fine) {
    if (Coarse.count(Fact))
      continue;
    ++Missing;
    if (Missing <= MaxPerRelation) {
      std::ostringstream OS;
      OS << Relation << ": " << Render(Fact) << " — present in " << FineLabel
         << ", missing from " << CoarseLabel;
      Out.push_back({Relation, OS.str()});
    }
  }
  if (Missing > MaxPerRelation) {
    std::ostringstream OS;
    OS << Relation << ": ... and " << (Missing - MaxPerRelation)
       << " more facts of " << FineLabel << " missing from " << CoarseLabel;
    Out.push_back({Relation, OS.str()});
  }
  return Missing;
}

} // namespace

size_t pt::diffContainment(const CiProjection &Fine, const CiProjection &Coarse,
                           const Program &Prog, const std::string &FineLabel,
                           const std::string &CoarseLabel,
                           std::vector<CiViolation> &Out,
                           size_t MaxPerRelation) {
  size_t Missing = 0;
  Missing += diffRelation(
      "VarPointsTo", Fine.VarPointsTo, Coarse.VarPointsTo, FineLabel,
      CoarseLabel,
      [&](const std::pair<uint32_t, uint32_t> &F) {
        return varLabel(Prog, F.first) + " -> " + heapLabel(Prog, F.second);
      },
      Out, MaxPerRelation);
  Missing += diffRelation(
      "CallEdges", Fine.CallEdges, Coarse.CallEdges, FineLabel, CoarseLabel,
      [&](const std::pair<uint32_t, uint32_t> &F) {
        return invokeLabel(Prog, F.first) + " -> " +
               Prog.qualifiedName(MethodId(F.second));
      },
      Out, MaxPerRelation);
  Missing += diffRelation(
      "ReachableMethods", Fine.ReachableMethods, Coarse.ReachableMethods,
      FineLabel, CoarseLabel,
      [&](uint32_t M) { return Prog.qualifiedName(MethodId(M)); }, Out,
      MaxPerRelation);
  Missing += diffRelation(
      "StaticFieldPointsTo", Fine.StaticFieldPointsTo,
      Coarse.StaticFieldPointsTo, FineLabel, CoarseLabel,
      [&](const std::pair<uint32_t, uint32_t> &F) {
        return fieldLabel(Prog, F.first) + " -> " + heapLabel(Prog, F.second);
      },
      Out, MaxPerRelation);
  Missing += diffRelation(
      "FieldPointsTo", Fine.FieldPointsTo, Coarse.FieldPointsTo, FineLabel,
      CoarseLabel,
      [&](const std::tuple<uint32_t, uint32_t, uint32_t> &F) {
        return heapLabel(Prog, std::get<0>(F)) + "." +
               fieldLabel(Prog, std::get<1>(F)) + " -> " +
               heapLabel(Prog, std::get<2>(F));
      },
      Out, MaxPerRelation);
  Missing += diffRelation(
      "MayFailCasts", Fine.MayFailCasts, Coarse.MayFailCasts, FineLabel,
      CoarseLabel, [&](uint32_t Site) { return castLabel(Prog, Site); }, Out,
      MaxPerRelation);
  return Missing;
}
