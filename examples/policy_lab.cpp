//===- examples/policy_lab.cpp - Build your own context policy ------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shows the two extension points downstream users care about:
///
///  1. Defining a *new* context-sensitivity policy as a \c PolicyRow —
///     here, the paper's Section 6 future-work idea of a RECORD function
///     that adapts to the allocating method's context shape ("objects
///     could have different context, via the RECORD function, depending
///     on the context form of their allocating method").
///
///  2. Running the generic Datalog engine directly for a custom
///     whole-program query over analysis results.
///
//===----------------------------------------------------------------------===//

#include "context/PolicyRegistry.h"
#include "datalog/Engine.h"
#include "ir/Program.h"
#include "pta/AnalysisResult.h"
#include "pta/Metrics.h"
#include "pta/Solver.h"
#include "support/TableWriter.h"
#include "workloads/Profiles.h"

#include <iostream>
#include <unordered_map>

using namespace pt;

namespace {

/// A custom hybrid: like S-2obj+H, but RECORD examines the allocating
/// method's context — allocations inside statically-called helper chains
/// (detectable by the invocation-site slot) record the *invocation site*
/// as heap context instead of the stale most-significant object.
constexpr PolicyRow AdaptiveRecord = {
    "lab-adaptive", PolicyGroup::Ablation, 3, 1,
    /*RECORD=*/{slots::ifInvoke(slots::ctx(1), slots::ctx(0))},
    /*MERGE=*/{slots::heap, slots::hctx(0)},
    /*MERGESTATIC=*/{slots::ctx(0), slots::invo, slots::ctx(1)}};

/// Custom query via the Datalog engine: which (field, heap-site) pairs
/// are "shared sinks" — written through two or more distinct base
/// allocation sites?  Built from the analysis' field-points-to relation.
void runSharedSinkQuery(const Program &P, const AnalysisResult &R) {
  dl::Engine E;
  dl::Relation &Fpt = E.relation("fpt", 3);       // (baseHeap, fld, heap)
  dl::Relation &Shared = E.relation("shared", 2); // (fld, heap)

  for (const auto &Entry : R.FieldFacts)
    for (uint32_t Obj : Entry.Objs)
      Fpt.insert({R.objHeap(Entry.BaseObj).index(), Entry.Fld.index(),
                  R.objHeap(Obj).index()});

  // shared(f, h) <- fpt(b1, f, h), fpt(b2, f, h), b1 != b2.
  // Inequality is not primitive Datalog, so enumerate in plain C++
  // through the engine's scan API — relations double as queryable stores.
  std::unordered_map<uint64_t, std::pair<uint32_t, bool>> FirstBase;
  Fpt.promote(); // settle the inserted rows for scanning

  for (size_t I = 0; I < Fpt.settledRows(); ++I) {
    const dl::Value *Row = Fpt.row(I);
    uint64_t Key = (static_cast<uint64_t>(Row[1]) << 32) | Row[2];
    auto It = FirstBase.find(Key);
    if (It == FirstBase.end()) {
      FirstBase.emplace(Key, std::make_pair(Row[0], false));
    } else if (It->second.first != Row[0] && !It->second.second) {
      It->second.second = true;
      Shared.insert({Row[1], Row[2]});
    }
  }
  Shared.promote();

  std::cout << "shared-sink query: " << Shared.size()
            << " (field, value-site) pairs are written through multiple "
               "distinct container sites\n";
  size_t Shown = 0;
  for (size_t I = 0; I < Shared.settledRows() && Shown < 5; ++I, ++Shown) {
    const dl::Value *Row = Shared.row(I);
    std::cout << "  field '" << P.text(P.field(FieldId(Row[0])).Name)
              << "' <- " << P.text(P.heap(HeapId(Row[1])).Name) << "\n";
  }
}

} // namespace

int main() {
  Benchmark Bench = buildBenchmark("pmd");
  const Program &P = *Bench.Prog;
  std::cout << "benchmark 'pmd': " << P.numMethods() << " methods\n\n";

  // Baseline vs the paper's selective hybrid vs our custom policy.
  for (int Which = 0; Which < 3; ++Which) {
    std::unique_ptr<ContextPolicy> Policy;
    if (Which == 0)
      Policy = createPolicy("2obj+H", P);
    else if (Which == 1)
      Policy = createPolicy("S-2obj+H", P);
    else
      Policy = std::make_unique<ContextPolicy>(P, AdaptiveRecord);

    Solver S(P, *Policy);
    AnalysisResult R = S.run();
    PrecisionMetrics M = computeMetrics(R);
    std::cout << Policy->name() << ": may-fail casts " << M.MayFailCasts
              << ", poly v-calls " << M.PolyVCalls << ", cs-facts "
              << M.CsVarPointsTo << ", " << formatFixed(M.SolveMs, 0)
              << " ms\n";

    if (Which == 2) {
      std::cout << "\n";
      runSharedSinkQuery(P, R);
    }
  }
  return 0;
}
