//===- serve/Canon.cpp ---------------------------------------------------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//

#include "serve/Canon.h"

#include "checks/Driver.h"
#include "checks/Render.h"
#include "ir/Program.h"
#include "pta/AnalysisResult.h"
#include "pta/Metrics.h"

#include <sstream>

using namespace pt;
using namespace pt::serve;

std::vector<std::string> pt::serve::splitLines(const std::string &Text) {
  std::vector<std::string> Out;
  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t End = Text.find('\n', Pos);
    if (End == std::string::npos) {
      Out.push_back(Text.substr(Pos));
      break;
    }
    Out.push_back(Text.substr(Pos, End - Pos));
    Pos = End + 1;
  }
  return Out;
}

std::vector<std::string> pt::serve::pointsToLines(const Program &P,
                                                  const AnalysisResult &R,
                                                  VarId V) {
  std::vector<std::string> Out;
  for (HeapId H : R.ci().pointsTo(V))
    Out.push_back(std::string(P.text(P.heap(H).Name)) + " : " +
                  std::string(P.text(P.type(P.heap(H).Type).Name)));
  return Out;
}

std::vector<std::string>
pt::serve::lintLines(const Program &P,
                     const std::vector<checks::Diagnostic> &Diags,
                     const std::string &Policy) {
  std::ostringstream OS;
  checks::renderJsonl(OS, P, Diags, Policy);
  return splitLines(OS.str());
}

std::vector<std::string>
pt::serve::callGraphLines(const PrecisionMetrics &M,
                          const std::string &Policy) {
  return {metricsCsvHeader(/*Taint=*/false, /*WithTime=*/false),
          metricsCsvRow(M, Policy, /*Taint=*/false, /*WithTime=*/false)};
}

std::vector<std::string>
pt::serve::compareLines(const checks::CompareResult &CR) {
  std::ostringstream OS;
  checks::renderCompare(OS, CR);
  return splitLines(OS.str());
}
