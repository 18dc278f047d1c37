//===- pta/DotExport.cpp ---------------------------------------------------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//

#include "pta/DotExport.h"

#include "ir/Program.h"
#include "pta/AnalysisResult.h"
#include "support/Hashing.h"

#include <algorithm>
#include <map>
#include <ostream>
#include <set>
#include <sstream>

using namespace pt;

namespace {

/// DOT-escapes a label.
std::string escape(const std::string &Text) {
  std::string Out;
  Out.reserve(Text.size());
  for (char C : Text) {
    if (C == '"' || C == '\\')
      Out.push_back('\\');
    Out.push_back(C);
  }
  return Out;
}

} // namespace

void pt::writeCallGraphDot(const AnalysisResult &Result, std::ostream &OS,
                           const CallGraphDotOptions &Opts) {
  const Program &Prog = Result.program();

  // Context-insensitive edges: caller method -> callee method.
  std::set<std::pair<uint32_t, uint32_t>> Edges;
  std::map<uint32_t, size_t> Degree;
  for (uint32_t I = 0; I < Prog.numInvokes(); ++I) {
    uint32_t Caller = Prog.invoke(InvokeId(I)).InMethod.index();
    for (MethodId Callee : Result.ci().callTargets(InvokeId(I))) {
      if (Edges.insert({Caller, Callee.index()}).second) {
        ++Degree[Caller];
        ++Degree[Callee.index()];
      }
    }
  }

  auto Keep = [&](uint32_t M) {
    return Opts.HubLimit == 0 || Degree[M] <= Opts.HubLimit;
  };

  OS << "digraph callgraph {\n  rankdir=LR;\n  node [shape=box, "
        "fontsize=9];\n";

  // Nodes, optionally clustered by class.
  std::set<uint32_t> Methods;
  for (const auto &[Caller, Callee] : Edges) {
    if (Keep(Caller))
      Methods.insert(Caller);
    if (Keep(Callee))
      Methods.insert(Callee);
  }
  if (Opts.ClusterByClass) {
    std::map<uint32_t, std::set<uint32_t>> ByClass;
    for (uint32_t M : Methods)
      ByClass[Prog.method(MethodId(M)).Owner.index()].insert(M);
    for (const auto &[Cls, Members] : ByClass) {
      OS << "  subgraph cluster_" << Cls << " {\n    label=\""
         << escape(Prog.text(Prog.type(TypeId(Cls)).Name)) << "\";\n";
      for (uint32_t M : Members)
        OS << "    m" << M << " [label=\""
           << escape(Prog.qualifiedName(MethodId(M))) << "\"];\n";
      OS << "  }\n";
    }
  } else {
    for (uint32_t M : Methods)
      OS << "  m" << M << " [label=\""
         << escape(Prog.qualifiedName(MethodId(M))) << "\"];\n";
  }

  for (const auto &[Caller, Callee] : Edges)
    if (Keep(Caller) && Keep(Callee))
      OS << "  m" << Caller << " -> m" << Callee << ";\n";
  OS << "}\n";
}

void pt::writePointsToDot(const AnalysisResult &Result, MethodId Focus,
                          std::ostream &OS) {
  const Program &Prog = Result.program();
  const MethodInfo &Body = Prog.method(Focus);

  // The focus method's locals that point somewhere, and the heap sites
  // they reach (context-insensitive projection).
  std::vector<VarId> Vars;
  std::vector<HeapId> Heaps;
  for (VarId V : Body.Locals) {
    auto Pts = Result.ci().pointsTo(V);
    if (Pts.empty())
      continue;
    Vars.push_back(V);
    Heaps.insert(Heaps.end(), Pts.begin(), Pts.end());
  }
  std::sort(Vars.begin(), Vars.end());
  Vars.erase(std::unique(Vars.begin(), Vars.end()), Vars.end());
  std::sort(Heaps.begin(), Heaps.end());
  Heaps.erase(std::unique(Heaps.begin(), Heaps.end()), Heaps.end());
  auto Shown = [&](uint32_t H) {
    return std::binary_search(Heaps.begin(), Heaps.end(), HeapId(H));
  };

  OS << "digraph pointsto {\n  rankdir=LR;\n"
        "  node [fontsize=9];\n";
  for (VarId V : Vars)
    OS << "  v" << V.index() << " [shape=box, label=\""
       << escape(Prog.text(Prog.var(V).Name)) << "\"];\n";
  for (HeapId H : Heaps)
    OS << "  h" << H.index() << " [shape=ellipse, label=\""
       << escape(Prog.text(Prog.heap(H).Name)) << "\"];\n";
  for (VarId V : Vars)
    for (HeapId H : Result.ci().pointsTo(V))
      OS << "  v" << V.index() << " -> h" << H.index() << ";\n";

  // Field edges among the displayed objects.
  std::set<std::pair<uint64_t, uint32_t>> FieldEdges; // (packed pair, fld)
  for (const auto &E : Result.FieldFacts) {
    uint32_t BaseH = Result.objHeap(E.BaseObj).index();
    if (!Shown(BaseH))
      continue;
    for (uint32_t Obj : E.Objs) {
      uint32_t H = Result.objHeap(Obj).index();
      if (!Shown(H))
        continue;
      if (FieldEdges.insert({packPair(BaseH, H), E.Fld.index()}).second)
        OS << "  h" << BaseH << " -> h" << H << " [style=dashed, label=\""
           << escape(Prog.text(Prog.field(E.Fld).Name)) << "\"];\n";
    }
  }
  OS << "}\n";
}

std::string pt::callGraphDot(const AnalysisResult &Result,
                             const CallGraphDotOptions &Opts) {
  std::ostringstream OS;
  writeCallGraphDot(Result, OS, Opts);
  return OS.str();
}

std::string pt::pointsToDot(const AnalysisResult &Result, MethodId Focus) {
  std::ostringstream OS;
  writePointsToDot(Result, Focus, OS);
  return OS.str();
}
