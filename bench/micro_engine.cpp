//===- bench/micro_engine.cpp - Engine microbenchmarks --------------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark microbenchmarks for the substrate the time metric
/// rests on: context interning, relation insertion/indexing, the Datalog
/// fixpoint on transitive closure, and end-to-end solves of the smallest
/// stand-in benchmark under representative policies.
///
//===----------------------------------------------------------------------===//

#include "context/ContextTable.h"
#include "context/PolicyRegistry.h"
#include "datalog/Engine.h"
#include "ir/Program.h"
#include "pta/AnalysisResult.h"
#include "pta/Solver.h"
#include "pta/Trace.h"
#include "pta/VariantRunner.h"
#include "support/FlatMap.h"
#include "support/ObjectSet.h"
#include "support/Rng.h"
#include "support/Parallel.h"
#include "workloads/Profiles.h"

#include <benchmark/benchmark.h>

#include <cstring>
#include <iostream>
#include <string>
#include <unordered_map>
#include <unordered_set>

namespace {

using namespace pt;

void BM_ContextIntern(benchmark::State &State) {
  Rng R(42);
  std::vector<ContextElem> Elems;
  for (int I = 0; I < 1024; ++I)
    Elems.push_back(
        ContextElem::heap(HeapId(static_cast<uint32_t>(R.below(256)))));
  for (auto _ : State) {
    ContextTable<CtxId> Table;
    for (size_t I = 0; I + 2 < Elems.size(); ++I)
      benchmark::DoNotOptimize(
          Table.intern3(Elems[I], Elems[I + 1], Elems[I + 2]));
  }
  State.SetItemsProcessed(State.iterations() * 1022);
}
BENCHMARK(BM_ContextIntern);

void BM_ContextHitLookup(benchmark::State &State) {
  // Re-interning an existing tuple (the hot path during solving).
  ContextTable<CtxId> Table;
  ContextElem A = ContextElem::heap(HeapId(1));
  ContextElem B = ContextElem::heap(HeapId(2));
  Table.intern2(A, B);
  for (auto _ : State)
    benchmark::DoNotOptimize(Table.intern2(A, B));
}
BENCHMARK(BM_ContextHitLookup);

void BM_RelationInsert(benchmark::State &State) {
  Rng R(7);
  std::vector<dl::Value> Rows;
  for (int I = 0; I < 4096 * 2; ++I)
    Rows.push_back(static_cast<dl::Value>(R.below(1 << 20)));
  for (auto _ : State) {
    dl::Relation Rel("r", 2);
    for (size_t I = 0; I + 1 < Rows.size(); I += 2) {
      dl::Value Row[2] = {Rows[I], Rows[I + 1]};
      benchmark::DoNotOptimize(Rel.insert(Row));
    }
  }
  State.SetItemsProcessed(State.iterations() * 4096);
}
BENCHMARK(BM_RelationInsert);

void BM_RelationIndexedScan(benchmark::State &State) {
  dl::Relation Rel("edge", 2);
  Rng R(9);
  for (int I = 0; I < 10000; ++I) {
    dl::Value Row[2] = {static_cast<dl::Value>(R.below(100)),
                        static_cast<dl::Value>(R.below(100))};
    Rel.insert(Row);
  }
  Rel.promote();
  for (auto _ : State) {
    size_t Count = 0;
    for (dl::Value Key = 0; Key < 100; ++Key)
      Rel.scan(dl::Range::All, 0b01, &Key,
               [&Count](const dl::Value *) { ++Count; });
    benchmark::DoNotOptimize(Count);
  }
}
BENCHMARK(BM_RelationIndexedScan);

void BM_DatalogTransitiveClosure(benchmark::State &State) {
  for (auto _ : State) {
    dl::Engine E;
    dl::Relation &Edge = E.relation("edge", 2);
    dl::Relation &Path = E.relation("path", 2);
    {
      dl::Rule R;
      R.NumVars = 2;
      R.Head = dl::Atom(Path, {dl::Term::var(0), dl::Term::var(1)});
      R.Body.push_back(dl::Atom(Edge, {dl::Term::var(0), dl::Term::var(1)}));
      E.addRule(std::move(R));
    }
    {
      dl::Rule R;
      R.NumVars = 3;
      R.Head = dl::Atom(Path, {dl::Term::var(0), dl::Term::var(2)});
      R.Body.push_back(dl::Atom(Path, {dl::Term::var(0), dl::Term::var(1)}));
      R.Body.push_back(dl::Atom(Edge, {dl::Term::var(1), dl::Term::var(2)}));
      E.addRule(std::move(R));
    }
    // A 64-node cycle: closure has 4096 tuples.
    for (dl::Value I = 0; I < 64; ++I)
      Edge.insert({I, (I + 1) % 64});
    benchmark::DoNotOptimize(E.run());
  }
}
BENCHMARK(BM_DatalogTransitiveClosure);

// --- Hot-path data structures: the specialized containers vs. the
// --- std::unordered_* they replaced.

void BM_ObjectSetInsert(benchmark::State &State) {
  // Mixed small/large sets, mimicking per-node points-to set population.
  Rng R(11);
  std::vector<uint32_t> Vals;
  for (int I = 0; I < 4096; ++I)
    Vals.push_back(static_cast<uint32_t>(R.below(1 << 16)));
  for (auto _ : State) {
    ObjectSet Big;
    for (uint32_t V : Vals)
      benchmark::DoNotOptimize(Big.insert(V));
    ObjectSet Small[64];
    for (int S = 0; S < 64; ++S)
      for (int I = 0; I < 8; ++I)
        benchmark::DoNotOptimize(Small[S].insert(Vals[S * 8 + I]));
  }
  State.SetItemsProcessed(State.iterations() * (4096 + 64 * 8));
}
BENCHMARK(BM_ObjectSetInsert);

void BM_UnorderedSetInsert(benchmark::State &State) {
  // The baseline this PR retired from Solver::Node::Set.
  Rng R(11);
  std::vector<uint32_t> Vals;
  for (int I = 0; I < 4096; ++I)
    Vals.push_back(static_cast<uint32_t>(R.below(1 << 16)));
  for (auto _ : State) {
    std::unordered_set<uint32_t> Big;
    for (uint32_t V : Vals)
      benchmark::DoNotOptimize(Big.insert(V).second);
    std::unordered_set<uint32_t> Small[64];
    for (int S = 0; S < 64; ++S)
      for (int I = 0; I < 8; ++I)
        benchmark::DoNotOptimize(Small[S].insert(Vals[S * 8 + I]).second);
  }
  State.SetItemsProcessed(State.iterations() * (4096 + 64 * 8));
}
BENCHMARK(BM_UnorderedSetInsert);

void BM_FlatMapIntern(benchmark::State &State) {
  // Interning workload: mostly hits, occasional misses (fresh nodes).
  Rng R(23);
  std::vector<uint64_t> Keys;
  for (int I = 0; I < 1 << 15; ++I)
    Keys.push_back(R.below(1 << 13)); // ~4x re-intern rate
  for (auto _ : State) {
    FlatMap<uint32_t> Map;
    uint32_t Next = 0;
    for (uint64_t K : Keys) {
      auto [Slot, Inserted] = Map.tryEmplace(K, Next);
      Next += Inserted;
      benchmark::DoNotOptimize(*Slot);
    }
  }
  State.SetItemsProcessed(State.iterations() * (1 << 15));
}
BENCHMARK(BM_FlatMapIntern);

void BM_UnorderedMapIntern(benchmark::State &State) {
  // The baseline this PR retired from the solver's intern tables.
  Rng R(23);
  std::vector<uint64_t> Keys;
  for (int I = 0; I < 1 << 15; ++I)
    Keys.push_back(R.below(1 << 13));
  for (auto _ : State) {
    std::unordered_map<uint64_t, uint32_t> Map;
    uint32_t Next = 0;
    for (uint64_t K : Keys) {
      auto [It, Inserted] = Map.try_emplace(K, Next);
      Next += Inserted;
      benchmark::DoNotOptimize(It->second);
    }
  }
  State.SetItemsProcessed(State.iterations() * (1 << 15));
}
BENCHMARK(BM_UnorderedMapIntern);

void BM_SolveLuindex(benchmark::State &State, const char *Policy) {
  Benchmark Bench = buildBenchmark("luindex");
  for (auto _ : State) {
    auto Pol = createPolicy(Policy, *Bench.Prog);
    Solver S(*Bench.Prog, *Pol);
    AnalysisResult R = S.run();
    benchmark::DoNotOptimize(R.numCsVarPointsTo());
  }
}
BENCHMARK_CAPTURE(BM_SolveLuindex, insens, "insens");
BENCHMARK_CAPTURE(BM_SolveLuindex, onecall, "1call");
BENCHMARK_CAPTURE(BM_SolveLuindex, oneobj, "1obj");
BENCHMARK_CAPTURE(BM_SolveLuindex, twoobjh, "2obj+H");
BENCHMARK_CAPTURE(BM_SolveLuindex, s2objh, "S-2obj+H");
BENCHMARK_CAPTURE(BM_SolveLuindex, u2objh, "U-2obj+H");

/// Optional observability sink for BM_VariantMatrix (--trace-out FILE):
/// benchmark iterations stream spans/heartbeats while running, which is
/// also a live overhead measurement of the trace path itself.
trace::TraceRecorder *MatrixTrace = nullptr;

/// The full Table 1 policy matrix on one benchmark, fanned out over
/// State.range(0) worker threads (see --threads below).
void BM_VariantMatrix(benchmark::State &State) {
  Benchmark Bench = buildBenchmark("luindex");
  MatrixOptions Opts;
  Opts.Threads = static_cast<unsigned>(State.range(0));
  Opts.Config.Solver.Trace = MatrixTrace;
  Opts.TraceLabelPrefix = "luindex/";
  for (auto _ : State) {
    auto Cells = runVariantMatrix(*Bench.Prog, table1PolicyNames(), Opts);
    benchmark::DoNotOptimize(Cells.data());
  }
  State.SetItemsProcessed(State.iterations() *
                          table1PolicyNames().size());
}

} // namespace

// Custom main: accept `--threads N` (repeatable) to pick the worker
// counts for BM_VariantMatrix, and `--trace-out FILE` to stream JSONL
// telemetry from the matrix runs.  Remaining arguments go to
// google-benchmark as usual.
int main(int argc, char **argv) {
  std::vector<int64_t> ThreadCounts;
  std::vector<char *> Args;
  std::string TraceOut;
  Args.push_back(argv[0]);
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--threads") == 0 && I + 1 < argc)
      // 0 = hardware concurrency, same rule as every other harness.
      ThreadCounts.push_back(pt::resolveThreads(
          static_cast<unsigned>(std::strtoul(argv[++I], nullptr, 10))));
    else if (std::strcmp(argv[I], "--trace-out") == 0 && I + 1 < argc)
      TraceOut = argv[++I];
    else
      Args.push_back(argv[I]);
  }
  pt::trace::TraceRecorder Recorder;
  if (!TraceOut.empty()) {
    std::string Error;
    if (!Recorder.openJsonl(TraceOut, Error)) {
      std::cerr << Error << "\n";
      return 1;
    }
    MatrixTrace = &Recorder;
  }
  if (ThreadCounts.empty()) {
    ThreadCounts.push_back(1);
    unsigned HW = pt::hardwareThreads();
    if (HW > 1)
      ThreadCounts.push_back(HW);
  }
  benchmark::internal::Benchmark *Matrix =
      benchmark::RegisterBenchmark("BM_VariantMatrix", BM_VariantMatrix);
  for (int64_t N : ThreadCounts)
    Matrix->Arg(N);

  int NewArgc = static_cast<int>(Args.size());
  benchmark::Initialize(&NewArgc, Args.data());
  if (benchmark::ReportUnrecognizedArguments(NewArgc, Args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
