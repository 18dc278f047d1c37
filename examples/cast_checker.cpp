//===- examples/cast_checker.cpp - Cast-safety client ---------------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An IDE-style client: report every downcast of a program that the
/// analysis cannot prove safe, with the offending allocation sites as
/// evidence, and show how the verdict set shrinks as context-sensitivity
/// grows (the paper's may-fail-casts precision metric, per site).
///
/// Usage:
///   cast_checker [benchmark-or-file.ptir]
///
//===----------------------------------------------------------------------===//

#include "context/PolicyRegistry.h"
#include "ir/Program.h"
#include "pta/AnalysisResult.h"
#include "pta/Clients.h"
#include "pta/Pipeline.h"
#include "pta/Solver.h"

#include <iostream>
#include <vector>

using namespace pt;

namespace {

size_t countMayFail(const std::vector<CastCheck> &Checks) {
  size_t N = 0;
  for (const CastCheck &C : Checks)
    N += C.Verdict == CastVerdict::MayFail;
  return N;
}

} // namespace

int main(int argc, char **argv) {
  std::string Input = argc > 1 ? argv[1] : "lusearch";
  LoadedProgram Loaded = loadProgram(Input);
  if (!Loaded.ok()) {
    for (const std::string &E : Loaded.Errors)
      std::cerr << E << "\n";
    return 1;
  }
  const Program *P = Loaded.Prog;
  std::cout << "checking casts of '" << Input << "'\n";

  // The precision ladder, weakest to strongest.
  const std::vector<std::string> Ladder = {"insens", "1call", "1obj",
                                           "SB-1obj", "2obj+H", "S-2obj+H"};
  std::vector<CastCheck> Strongest;
  std::cout << "\nmay-fail casts by analysis:\n";
  for (const std::string &Name : Ladder) {
    auto Policy = createPolicy(Name, *P);
    Solver S(*P, *Policy);
    AnalysisResult R = S.run();
    auto Checks = checkCasts(R);
    std::cout << "  " << Name << ": " << countMayFail(Checks) << " of "
              << Checks.size() << "\n";
    if (Name == Ladder.back())
      Strongest = std::move(Checks);
  }

  std::cout << "\nsites still unproven under " << Ladder.back()
            << " (first 10, with offending allocation sites):\n";
  size_t Shown = 0;
  for (const CastCheck &C : Strongest) {
    if (C.Verdict != CastVerdict::MayFail)
      continue;
    if (++Shown > 10)
      break;
    const CastSite &Site = P->castSite(C.Site);
    std::cout << "  (" << P->text(P->type(Site.Target).Name) << ") cast in "
              << P->qualifiedName(Site.InMethod) << "; may see:";
    size_t ShownOffenders = 0;
    for (HeapId H : C.Offenders) {
      if (++ShownOffenders > 3) {
        std::cout << " ...";
        break;
      }
      std::cout << ' ' << P->text(P->heap(H).Name);
    }
    std::cout << "\n";
  }
  if (Shown == 0)
    std::cout << "  (none — every reachable cast proven safe)\n";
  return 0;
}
