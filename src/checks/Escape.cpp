//===- checks/Escape.cpp ----------------------------------------------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//

#include "checks/Escape.h"

#include "ir/Program.h"
#include "pta/AnalysisResult.h"

using namespace pt;
using namespace pt::checks;

std::vector<EscapeInfo>
pt::checks::computeEscapes(const AnalysisResult &Result) {
  const Program &Prog = Result.program();
  size_t NumHeaps = Prog.numHeaps();
  std::vector<std::string> Reason(NumHeaps);
  std::vector<bool> Escapes(NumHeaps, false);

  auto Mark = [&](uint32_t H, std::string Why) {
    if (Escapes[H])
      return false;
    Escapes[H] = true;
    Reason[H] = std::move(Why);
    return true;
  };

  // Roots: static-field reachability.
  for (const auto &[Fld, H] : Result.ciStaticEdges())
    Mark(H, "stored in static field " +
                Prog.text(Prog.field(FieldId::fromIndex(Fld)).Name));

  // Roots: returned from the allocating method.
  for (size_t M = 0; M != Prog.numMethods(); ++M) {
    VarId Ret = Prog.method(MethodId::fromIndex(M)).Return;
    if (!Ret.isValid())
      continue;
    for (HeapId H : Result.ci().pointsTo(Ret))
      if (Prog.heap(H).InMethod.index() == M)
        Mark(H.index(), "returned from " +
                            Prog.qualifiedName(MethodId::fromIndex(M)));
  }

  // Fixpoint over field edges: a store into an escaping base, or into a
  // base some other method allocated, leaks the stored object.  Edges only
  // ever flip Escapes bits on, so re-sweeping until quiescence terminates.
  auto Edges = Result.ciFieldEdges();
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (const auto &[Base, Fld, H] : Edges) {
      if (Escapes[H])
        continue;
      bool CrossMethod = Prog.heap(HeapId::fromIndex(Base)).InMethod !=
                         Prog.heap(HeapId::fromIndex(H)).InMethod;
      if (!Escapes[Base] && !CrossMethod)
        continue;
      std::string FldName = Prog.text(Prog.field(FieldId::fromIndex(Fld)).Name);
      std::string BaseName = Prog.text(Prog.heap(HeapId::fromIndex(Base)).Name);
      Changed |= Mark(H, "stored in field " + FldName + " of " +
                             (Escapes[Base] ? "escaping " : "foreign ") +
                             "object `" + BaseName + "`");
    }
  }

  std::vector<EscapeInfo> Out;
  for (uint32_t H = 0; H != NumHeaps; ++H)
    if (Escapes[H])
      Out.push_back({HeapId::fromIndex(H), std::move(Reason[H])});
  return Out;
}
