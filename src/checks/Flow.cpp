//===- checks/Flow.cpp ------------------------------------------------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//

#include "checks/Flow.h"

#include "ir/Program.h"
#include "pta/AnalysisResult.h"
#include "support/FlatMap.h"
#include "support/Hashing.h"

using namespace pt;
using namespace pt::checks;
using namespace pt::prov;

#if HYBRIDPT_PROVENANCE_ENABLED

namespace {

/// Method a step's conclusion is attributed to (mirrors the blame
/// attribution): var owner, throwing/reachable method, invoking method.
MethodId flowMethod(const Program &Prog, const AnalysisResult &Res,
                    const Fact &F) {
  switch (F.Kind) {
  case FactKind::VarPointsTo:
    return Prog.var(VarId(unpackHi(F.A))).Owner;
  case FactKind::FieldPointsTo: {
    uint32_t BaseObj = unpackHi(F.A);
    if (BaseObj < Res.numObjects())
      return Prog.heap(Res.objHeap(BaseObj)).InMethod;
    return MethodId();
  }
  case FactKind::StaticPointsTo:
    return MethodId();
  case FactKind::ThrowPointsTo:
  case FactKind::Reachable:
    return MethodId(unpackHi(F.A));
  case FactKind::CallEdge:
    return Prog.invoke(InvokeId(unpackHi(F.A))).InMethod;
  }
  return MethodId();
}

/// Best source line for a step's conclusion: the alloc site's line for
/// Alloc conclusions, the invoke's line for call edges, the attributed
/// method's declaration line otherwise; 0 when nothing is known.
uint32_t flowLine(const Program &Prog, const AnalysisResult &Res,
                  const Fact &F, Rule R, MethodId M) {
  if (F.Kind == FactKind::CallEdge)
    return Prog.invoke(InvokeId(unpackHi(F.A))).Line;
  if (R == Rule::Alloc && F.Kind == FactKind::VarPointsTo) {
    uint32_t Obj = static_cast<uint32_t>(F.B64);
    if (Obj < Res.numObjects())
      return Prog.heap(Res.objHeap(Obj)).Line;
  }
  if (M.isValid())
    return Prog.method(M).DeclLine;
  return 0;
}

/// Renders one derivation step: the conclusion's attributed method, best
/// source line, and "[rule] Fact(...)" text.  A fact's first step fixes its
/// rule, so the rendering is a function of the fact id alone.
FlowStep renderStep(const Recorder &Rec, const AnalysisResult &Res,
                    const TreeStep &TS) {
  const Program &Prog = Res.program();
  Fact F = Rec.fact(TS.FactId);
  FlowStep S;
  S.Method = flowMethod(Prog, Res, F);
  S.Line = flowLine(Prog, Res, F, TS.R, S.Method);
  S.Message = std::string("[") + ruleName(TS.R) + "] " +
              formatFact(Rec, Res, TS.FactId);
  return S;
}

/// The facts the diagnostics' anchors name, resolved in one ascending pass
/// over the arena.  Each anchor maps to the lowest fact id matching it (the
/// fact a per-anchor whyPointsTo scan would stop at), or InvalidFact when
/// the run never derived it.
class Anchors {
public:
  Anchors(const AnalysisResult &Res, const Recorder &Rec,
          const std::vector<Diagnostic> &Diags) {
    for (const Diagnostic &D : Diags) {
      if (D.WhyVar.isValid() && D.WhyHeap.isValid())
        PointsTo.tryEmplace(pointsToKey(D.WhyVar, D.WhyHeap), InvalidFact);
      else if (D.WhyReachable.isValid())
        Reachable.tryEmplace(D.WhyReachable.rawValue(), InvalidFact);
    }
    if (PointsTo.empty() && Reachable.empty())
      return;
    Rec.scanFacts([&](uint32_t Id, const Fact &F) {
      uint32_t *Slot = nullptr;
      if (F.Kind == FactKind::VarPointsTo) {
        uint32_t Obj = static_cast<uint32_t>(F.B64);
        if (Obj < Res.numObjects())
          Slot = PointsTo.find(
              pointsToKey(VarId(unpackHi(F.A)), Res.objHeap(Obj)));
      } else if (F.Kind == FactKind::Reachable) {
        Slot = Reachable.find(unpackHi(F.A));
      }
      if (Slot && *Slot == InvalidFact)
        *Slot = Id;
      return true;
    });
  }

  /// The anchored fact of \p D; InvalidFact when it has no anchor or the
  /// anchor was never derived.
  uint32_t of(const Diagnostic &D) const {
    const uint32_t *Slot = nullptr;
    if (D.WhyVar.isValid() && D.WhyHeap.isValid())
      Slot = PointsTo.find(pointsToKey(D.WhyVar, D.WhyHeap));
    else if (D.WhyReachable.isValid())
      Slot = Reachable.find(D.WhyReachable.rawValue());
    return Slot ? *Slot : InvalidFact;
  }

private:
  static uint64_t pointsToKey(VarId V, HeapId H) {
    return packPair(V.rawValue(), H.rawValue());
  }

  FlatMap<uint32_t> PointsTo;  ///< packPair(var, heap) -> fact id.
  FlatMap<uint32_t> Reachable; ///< method -> fact id.
};

} // namespace

void pt::checks::attachDerivationFlows(const AnalysisResult &Res,
                                       const Recorder &Rec,
                                       std::vector<Diagnostic> &Diags,
                                       size_t MaxSteps) {
  // Linear in the arena plus the derivations: one pass resolves every
  // anchor, each distinct anchored fact is derived once (diagnostics
  // sharing it copy its flow), and each fact is rendered once however
  // many flows cite it.
  constexpr uint32_t NoFlow = UINT32_MAX;
  Anchors Anchored(Res, Rec, Diags);
  FlatMap<uint32_t> FlowOf;     // anchored fact -> diagnostic holding its flow
  FlatMap<uint32_t> RenderedOf; // fact -> index into Rendered
  std::vector<FlowStep> Rendered;
  for (size_t I = 0; I != Diags.size(); ++I) {
    Diagnostic &D = Diags[I];
    uint32_t Root = Anchored.of(D);
    if (Root == InvalidFact)
      continue; // Aborted runs may lack the fact; the report stands alone.
    auto [Holder, Fresh] = FlowOf.tryEmplace(Root, NoFlow);
    if (!Fresh) {
      if (*Holder != NoFlow)
        D.Flow = Diags[*Holder].Flow;
      continue;
    }
    DerivationTree Tree = deriveFact(Rec, Root);
    if (!Tree.Found)
      continue;
    *Holder = static_cast<uint32_t>(I);
    // Keep at most MaxSteps, dropping the earliest (leaf-most) steps: the
    // conclusion is last and always kept.
    size_t N = Tree.Steps.size();
    size_t First = N > MaxSteps ? N - MaxSteps : 0;
    D.Flow.clear();
    D.Flow.reserve(N - First);
    for (size_t S = First; S != N; ++S) {
      const TreeStep &TS = Tree.Steps[S];
      auto [Idx, New] = RenderedOf.tryEmplace(
          TS.FactId, static_cast<uint32_t>(Rendered.size()));
      if (New)
        Rendered.push_back(renderStep(Rec, Res, TS));
      D.Flow.push_back(Rendered[*Idx]);
    }
  }
}

#else // !HYBRIDPT_PROVENANCE_ENABLED

void pt::checks::attachDerivationFlows(const AnalysisResult &,
                                       const prov::Recorder &,
                                       std::vector<Diagnostic> &, size_t) {}

#endif
