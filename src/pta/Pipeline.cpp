//===- pta/Pipeline.cpp ---------------------------------------------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//

#include "pta/Pipeline.h"

#include "ir/Program.h"
#include "irtext/TextFormat.h"
#include "taint/Taint.h"
#include "taint/TaintSpec.h"

#include <fstream>
#include <sstream>

using namespace pt;

LoadedProgram pt::loadProgram(const std::string &Spec,
                              const std::string &TaintSpecPath) {
  LoadedProgram L;
  if (isBenchmarkName(Spec)) {
    L.Bench = buildBenchmark(Spec);
    L.Prog = L.Bench.Prog.get();
  } else {
    std::ifstream In(Spec);
    if (!In) {
      L.Errors.push_back("cannot open '" + Spec + "'");
      return L;
    }
    std::stringstream Buffer;
    Buffer << In.rdbuf();
    ParseResult Parsed = parseProgram(Buffer.str(), Spec);
    if (!Parsed.ok()) {
      for (const std::string &E : Parsed.Errors)
        L.Errors.push_back("parse error in '" + Spec + "': " + E);
      return L;
    }
    L.Owned = std::move(Parsed.Prog);
    L.Prog = L.Owned.get();
  }
  if (TaintSpecPath.empty())
    return L;

  taint::SpecParseResult TSpec = taint::parseSpecFile(TaintSpecPath);
  if (!TSpec.ok()) {
    for (const std::string &E : TSpec.Errors)
      L.Errors.push_back("taint spec error: " + E);
    L.Prog = nullptr;
    return L;
  }
  // The instrumented program is self-contained: drop the original.
  taint::TaintPlan Plan = taint::resolve(TSpec.Spec, *L.Prog);
  L.Owned = taint::instrument(*L.Prog, Plan);
  L.Bench.Prog.reset();
  L.Prog = L.Owned.get();
  return L;
}

LadderResult pt::analyze(const Program &Prog, const AnalysisConfig &Config) {
  if (!Config.Ladder)
    return solveRungs(Prog, {Config.Policy}, Config.Solver, nullptr);
  LadderOptions LOpts;
  LOpts.Rungs = Config.Rungs;
  return solveWithLadder(Prog, Config.Policy, Config.Solver, LOpts);
}
