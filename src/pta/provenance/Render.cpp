//===- pta/provenance/Render.cpp - Derivation-tree rendering -------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Text / JSON / Graphviz renderers for derivation trees and the JSON shape
/// of blame profiles (consumed by tools/trace_summary.py and folded into
/// BENCH cells).  The DOT output is the same plain dialect as
/// pta/DotExport: facts as boxes, steps as rule-labeled edges.
///
//===----------------------------------------------------------------------===//

#include "pta/provenance/Provenance.h"

#include "context/ContextTable.h"
#include "context/Policy.h"
#include "ir/Program.h"
#include "pta/AnalysisResult.h"
#include "support/Hashing.h"
#include "support/Json.h"

#include <sstream>

using namespace pt;
using namespace pt::prov;

namespace {

std::string formatObj(const AnalysisResult &Res, uint32_t Obj) {
  const Program &Prog = Res.program();
  if (Obj >= Res.numObjects())
    return "obj#" + std::to_string(Obj);
  const HeapInfo &H = Prog.heap(Res.objHeap(Obj));
  std::string Out = Prog.text(H.Name);
  HCtxId HC = Res.objHCtx(Obj);
  if (HC.isValid() && Res.policy().hctxTable().arity(HC) > 0)
    Out += formatContext(Res.policy().hctxTable(), HC, Prog);
  return Out;
}

std::string formatVar(const Program &Prog, uint32_t RawVar) {
  VarId V(RawVar);
  if (!V.isValid() || V.index() >= Prog.numVars())
    return "var#" + std::to_string(RawVar);
  const VarInfo &Info = Prog.var(V);
  return Prog.qualifiedName(Info.Owner) + "::" + Prog.text(Info.Name);
}

std::string formatCtx(const AnalysisResult &Res, uint32_t RawCtx) {
  CtxId Ctx(RawCtx);
  const auto &Tab = Res.policy().ctxTable();
  if (!Ctx.isValid() || Ctx.index() >= Tab.size())
    return "ctx#" + std::to_string(RawCtx);
  return formatContext(Tab, Ctx, Res.program());
}

std::string formatMethod(const Program &Prog, uint32_t RawM) {
  MethodId M(RawM);
  if (!M.isValid() || M.index() >= Prog.numMethods())
    return "method#" + std::to_string(RawM);
  return Prog.qualifiedName(M);
}

} // namespace

std::string pt::prov::formatFact(const Recorder &R, const AnalysisResult &Res,
                                 uint32_t FactId) {
  if (FactId == InvalidFact || FactId >= R.numFacts())
    return "<invalid fact>";
  const Program &Prog = Res.program();
  Fact F = R.fact(FactId);
  std::string Out = factKindName(F.Kind);
  Out += "(";
  switch (F.Kind) {
  case FactKind::VarPointsTo:
    Out += formatVar(Prog, unpackHi(F.A)) + ", " +
           formatCtx(Res, unpackLo(F.A)) + ", " +
           formatObj(Res, static_cast<uint32_t>(F.B64));
    break;
  case FactKind::FieldPointsTo:
    Out += formatObj(Res, unpackHi(F.A)) + "." +
           Prog.text(Prog.field(FieldId(unpackLo(F.A))).Name) + ", " +
           formatObj(Res, static_cast<uint32_t>(F.B64));
    break;
  case FactKind::StaticPointsTo:
    Out += Prog.text(Prog.field(FieldId(static_cast<uint32_t>(F.A))).Name) +
           ", " + formatObj(Res, static_cast<uint32_t>(F.B64));
    break;
  case FactKind::ThrowPointsTo:
    Out += formatMethod(Prog, unpackHi(F.A)) + ", " +
           formatCtx(Res, unpackLo(F.A)) + ", " +
           formatObj(Res, static_cast<uint32_t>(F.B64));
    break;
  case FactKind::Reachable:
    Out += formatMethod(Prog, unpackHi(F.A)) + ", " +
           formatCtx(Res, unpackLo(F.A));
    break;
  case FactKind::CallEdge:
    Out += Prog.text(Prog.invoke(InvokeId(unpackHi(F.A))).Name) + ", " +
           formatCtx(Res, unpackLo(F.A)) + " -> " +
           formatMethod(Prog, unpackHi(F.B64)) + ", " +
           formatCtx(Res, unpackLo(F.B64));
    break;
  }
  Out += ")";
  return Out;
}

std::string pt::prov::renderTreeText(const Recorder &R,
                                     const AnalysisResult &Res,
                                     const DerivationTree &Tree) {
  std::ostringstream OS;
  if (!Tree.Found) {
    OS << "no derivation: " << Tree.Error << "\n";
    return OS.str();
  }
  OS << "derivation of " << formatFact(R, Res, Tree.Root) << " ("
     << Tree.Steps.size() << " steps)\n";
  // Render root-first, indenting by BFS depth, so the conclusion reads at
  // the top and its support fans out below.
  for (auto It = Tree.Steps.rbegin(); It != Tree.Steps.rend(); ++It) {
    const TreeStep &TS = *It;
    OS << std::string(2 * TS.Depth, ' ') << "- [" << ruleName(TS.R) << "] "
       << formatFact(R, Res, TS.FactId);
    if (TS.Prem0 != InvalidFact || TS.Prem1 != InvalidFact) {
      OS << "  <=";
      if (TS.Prem0 != InvalidFact)
        OS << " #" << TS.Prem0;
      if (TS.Prem1 != InvalidFact)
        OS << " #" << TS.Prem1;
    }
    OS << "  (fact #" << TS.FactId << ")\n";
  }
  return OS.str();
}

std::string pt::prov::renderTreeJson(const Recorder &R,
                                     const AnalysisResult &Res,
                                     const DerivationTree &Tree) {
  std::ostringstream OS;
  OS << "{\"found\":" << (Tree.Found ? "true" : "false");
  if (!Tree.Found) {
    OS << ",\"error\":\"" << json::escape(Tree.Error) << "\"}";
    return OS.str();
  }
  OS << ",\"root\":" << Tree.Root << ",\"steps\":[";
  bool First = true;
  for (const TreeStep &TS : Tree.Steps) {
    if (!First)
      OS << ",";
    First = false;
    OS << "{\"fact\":" << TS.FactId << ",\"rule\":\"" << ruleName(TS.R)
       << "\",\"text\":\"" << json::escape(formatFact(R, Res, TS.FactId))
       << "\",\"premises\":[";
    bool FirstP = true;
    for (uint32_t P : {TS.Prem0, TS.Prem1}) {
      if (P == InvalidFact)
        continue;
      if (!FirstP)
        OS << ",";
      FirstP = false;
      OS << P;
    }
    OS << "],\"depth\":" << TS.Depth << "}";
  }
  OS << "]}";
  return OS.str();
}

std::string pt::prov::renderTreeDot(const Recorder &R,
                                    const AnalysisResult &Res,
                                    const DerivationTree &Tree) {
  std::ostringstream OS;
  OS << "digraph derivation {\n"
     << "  rankdir=BT;\n"
     << "  node [shape=box, fontsize=10];\n";
  if (!Tree.Found) {
    OS << "  err [label=\"no derivation\"];\n}\n";
    return OS.str();
  }
  auto Escape = [](std::string S) {
    std::string Out;
    for (char C : S) {
      if (C == '"' || C == '\\')
        Out += '\\';
      Out += C;
    }
    return Out;
  };
  for (const TreeStep &TS : Tree.Steps) {
    OS << "  f" << TS.FactId << " [label=\""
       << Escape(formatFact(R, Res, TS.FactId)) << "\"";
    if (TS.FactId == Tree.Root)
      OS << ", style=bold";
    OS << "];\n";
    for (uint32_t P : {TS.Prem0, TS.Prem1}) {
      if (P == InvalidFact)
        continue;
      OS << "  f" << P << " -> f" << TS.FactId << " [label=\""
         << ruleName(TS.R) << "\"];\n";
    }
  }
  OS << "}\n";
  return OS.str();
}

namespace {

void writeRows(std::ostringstream &OS, const char *Key,
               const std::vector<BlameRow> &Rows, bool &FirstSection) {
  if (!FirstSection)
    OS << ",";
  FirstSection = false;
  OS << "\"" << Key << "\":[";
  bool First = true;
  for (const BlameRow &Row : Rows) {
    if (!First)
      OS << ",";
    First = false;
    OS << "{\"key\":\"" << json::escape(Row.Key)
       << "\",\"steps\":" << Row.Steps << ",\"bytes\":" << Row.Bytes << "}";
  }
  OS << "]";
}

} // namespace

std::string pt::prov::renderBlameJson(const BlameReport &B) {
  std::ostringstream OS;
  OS << "{\"total_steps\":" << B.TotalSteps
     << ",\"total_facts\":" << B.TotalFacts
     << ",\"arena_bytes\":" << B.ArenaBytes << ",";
  bool First = true;
  writeRows(OS, "by_rule", B.ByRule, First);
  writeRows(OS, "by_method", B.ByMethod, First);
  writeRows(OS, "by_alloc_site", B.ByAllocSite, First);
  writeRows(OS, "by_ctx_depth", B.ByCtxDepth, First);
  OS << "}";
  return OS.str();
}
