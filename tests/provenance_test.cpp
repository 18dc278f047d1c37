//===- tests/provenance_test.cpp - derivation provenance ------------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
// The provenance subsystem's contract (pta/provenance/Provenance.h):
// a run carrying a Recorder can answer "why does v point to h?" with a
// derivation tree whose every step re-checks against the Figure-2 side
// conditions; a query the policy
// refutes has no derivation; the arena's bytes count against the memory
// budget like any other solver container; and an injected memory fault
// leaves a partial arena that is still queryable and still valid.
//
//===----------------------------------------------------------------------===//

#include "context/PolicyRegistry.h"
#include "ir/Program.h"
#include "irtext/TextFormat.h"
#include "pta/Solver.h"
#include "pta/provenance/Provenance.h"
#include "taint/Taint.h"
#include "workloads/Profiles.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

namespace {

using namespace pt;

#if HYBRIDPT_PROVENANCE_ENABLED

std::string slurp(const std::filesystem::path &Path) {
  std::ifstream In(Path);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

const Program &factory() {
  static ParseResult Parsed = parseProgram(
      slurp(std::filesystem::path(HYBRIDPT_EXAMPLES_DIR) / "factory.ptir"));
  return *Parsed.Prog;
}

const Program &luindex() {
  static Benchmark Bench = buildBenchmark("luindex");
  return *Bench.Prog;
}

// The paper's Section 3 motivation as a provenance query: under the
// merging baseline, Basket::fill's `a` reaches the banana allocation
// through the static pass-through, and the recorder can say exactly how.
TEST(Provenance, RecordsAndDerivesTheMotivatingFact) {
  const Program &P = factory();
  auto Policy = createPolicy("2obj+H", P);
  ASSERT_TRUE(Policy);
  prov::Recorder Rec;
  SolverOptions Opts;
  Opts.Prov = &Rec;
  AnalysisResult R = solveProgram(P, *Policy, Opts);
  ASSERT_FALSE(R.Aborted);
  EXPECT_GT(Rec.numFacts(), 0u);
  EXPECT_GT(Rec.numSteps(), 0u);
  EXPECT_GE(Rec.memoryBytes(), Rec.numSteps() * sizeof(prov::Step));

  VarId A = findVarByPath(P, "Basket::fill/0::a");
  HeapId Banana = findHeapByName(P, "new Banana@1");
  ASSERT_TRUE(A.isValid());
  ASSERT_TRUE(Banana.isValid());

  prov::DerivationTree Tree = prov::whyPointsTo(Rec, R, A, CtxId(), Banana);
  ASSERT_TRUE(Tree.Found) << Tree.Error;
  ASSERT_FALSE(Tree.Steps.empty());
  // Leaves-first topological order: the root's step comes last, at
  // depth 0, and every premise was emitted before its consumer.
  EXPECT_EQ(Tree.Steps.back().FactId, Tree.Root);
  EXPECT_EQ(Tree.Steps.back().Depth, 0u);

  prov::ValidationResult VR = prov::validateTree(Rec, R, Tree, Policy.get());
  EXPECT_TRUE(VR.Ok) << VR.Error;
  EXPECT_EQ(VR.CheckedSteps, Tree.Steps.size());

  // The derivation must thread through the static pass-through: the
  // text rendering names Util.identity and the return-bind rule.
  std::string Text = prov::renderTreeText(Rec, R, Tree);
  EXPECT_NE(Text.find("Util.identity"), std::string::npos) << Text;
  EXPECT_NE(Text.find("return-bind"), std::string::npos) << Text;
}

// The selective hybrid proves a cannot reach banana (the paper's headline
// precision win), so the same query must have NO derivation — a recorder
// can only explain facts the analysis actually derived.
TEST(Provenance, RefutedFactHasNoDerivation) {
  const Program &P = factory();
  auto Policy = createPolicy("S-2obj+H", P);
  ASSERT_TRUE(Policy);
  prov::Recorder Rec;
  SolverOptions Opts;
  Opts.Prov = &Rec;
  AnalysisResult R = solveProgram(P, *Policy, Opts);
  ASSERT_FALSE(R.Aborted);

  VarId A = findVarByPath(P, "Basket::fill/0::a");
  HeapId Banana = findHeapByName(P, "new Banana@1");
  prov::DerivationTree Tree = prov::whyPointsTo(Rec, R, A, CtxId(), Banana);
  EXPECT_FALSE(Tree.Found);
  // ... while the apple derivation exists under the same policy.
  HeapId Apple = findHeapByName(P, "new Apple@0");
  if (Apple.isValid()) {
    prov::DerivationTree Ok = prov::whyPointsTo(Rec, R, A, CtxId(), Apple);
    EXPECT_TRUE(Ok.Found) << Ok.Error;
  }
}

/// deriveFact as first written: visit state in two arrays over the whole
/// arena.  Kept as the reference the O(tree) walk must reproduce step for
/// step (order, rules, premises, depths).
prov::DerivationTree referenceDerive(const prov::Recorder &R, uint32_t Root) {
  prov::DerivationTree Tree;
  Tree.Root = Root;
  std::vector<uint8_t> State(R.numFacts(), 0);
  std::vector<uint32_t> Depth(R.numFacts(), 0);
  std::vector<std::pair<uint32_t, bool>> Stack{{Root, false}};
  while (!Stack.empty()) {
    auto [F, Post] = Stack.back();
    Stack.pop_back();
    uint32_t SIdx = R.firstStepOf(F);
    if (SIdx == UINT32_MAX)
      return Tree;
    prov::Step S = R.stepAt(SIdx);
    if (Post) {
      State[F] = 2;
      Tree.Steps.push_back(prov::TreeStep{F, SIdx, S.rule(), S.Prem0,
                                          S.Prem1, Depth[F]});
      continue;
    }
    if (State[F] != 0)
      continue;
    State[F] = 1;
    Stack.push_back({F, true});
    for (uint32_t P : {S.Prem1, S.Prem0}) {
      if (P == prov::InvalidFact || State[P] == 2)
        continue;
      Depth[P] = Depth[F] + 1;
      Stack.push_back({P, false});
    }
  }
  Tree.Found = true;
  return Tree;
}

TEST(Provenance, DeriveMatchesTheWholeArenaWalk) {
  size_t Compared = 0;
  for (const Program *P : {&factory(), &luindex()}) {
    auto Policy = createPolicy("2obj+H", *P);
    ASSERT_TRUE(Policy);
    prov::Recorder Rec;
    SolverOptions Opts;
    Opts.Prov = &Rec;
    AnalysisResult R = solveProgram(*P, *Policy, Opts);
    ASSERT_FALSE(R.Aborted);
    // Every fact of the small example; ~300 spread over the benchmark's
    // arena (the reference walk is O(arena) per call).
    size_t N = Rec.numFacts();
    size_t Stride = std::max<size_t>(1, N / 300);
    for (uint32_t Id = 0; Id < N; Id += Stride) {
      prov::DerivationTree Got = prov::deriveFact(Rec, Id);
      prov::DerivationTree Want = referenceDerive(Rec, Id);
      ASSERT_EQ(Got.Found, Want.Found) << "fact " << Id;
      ASSERT_EQ(Got.Steps.size(), Want.Steps.size()) << "fact " << Id;
      for (size_t I = 0; I != Got.Steps.size(); ++I) {
        const prov::TreeStep &G = Got.Steps[I], &W = Want.Steps[I];
        ASSERT_EQ(G.FactId, W.FactId) << "fact " << Id << " step " << I;
        EXPECT_EQ(G.StepIdx, W.StepIdx);
        EXPECT_EQ(G.R, W.R);
        EXPECT_EQ(G.Prem0, W.Prem0);
        EXPECT_EQ(G.Prem1, W.Prem1);
        EXPECT_EQ(G.Depth, W.Depth);
      }
      ++Compared;
    }
  }
  EXPECT_GT(Compared, 300u);
}

// The block scan visits every fact once, in id order and across block
// boundaries, runs the callback unlocked (it may query the recorder), and
// stops when the callback says so.
TEST(Provenance, ScanFactsVisitsInIdOrderAndStops) {
  const Program &P = luindex();
  auto Policy = createPolicy("1obj", P);
  prov::Recorder Rec;
  SolverOptions Opts;
  Opts.Prov = &Rec;
  (void)solveProgram(P, *Policy, Opts);
  ASSERT_GT(Rec.numFacts(), 3 * 4096u) << "fixture must span blocks";
  size_t Visited = 0;
  Rec.scanFacts([&](uint32_t Id, const prov::Fact &F) {
    EXPECT_EQ(Id, Visited++);
    prov::Fact Direct = Rec.fact(Id);
    EXPECT_EQ(F.Kind, Direct.Kind);
    EXPECT_EQ(F.A, Direct.A);
    EXPECT_EQ(F.B64, Direct.B64);
    return true;
  });
  EXPECT_EQ(Visited, Rec.numFacts());
  Visited = 0;
  Rec.scanFacts([&](uint32_t, const prov::Fact &) { return ++Visited < 5000; });
  EXPECT_EQ(Visited, 5000u);
}

// --- Pinned worklist arenas ---------------------------------------------

/// The examples corpus, sorted by file name.
std::vector<std::filesystem::path> examplePrograms() {
  std::vector<std::filesystem::path> Paths;
  for (const auto &Entry :
       std::filesystem::directory_iterator(HYBRIDPT_EXAMPLES_DIR))
    if (Entry.path().extension() == ".ptir")
      Paths.push_back(Entry.path());
  std::sort(Paths.begin(), Paths.end());
  return Paths;
}

/// The program of \p Path, taint-instrumented with the synthetic spec the
/// benchmark's lint uses when \p Taint is set.
std::unique_ptr<Program> loadExample(const std::filesystem::path &Path,
                                     bool Taint) {
  ParseResult Parsed = parseProgram(slurp(Path));
  if (!Parsed.ok())
    return nullptr;
  taint::TaintSpec Spec;
  if (Taint)
    Spec = taint::syntheticSpec(*Parsed.Prog, 1);
  return taint::instrument(*Parsed.Prog, taint::resolve(Spec, *Parsed.Prog));
}

/// FNV-1a over the arena: every fact's (kind, A, B64) in id order, then
/// every step's four words.  Pins fact ids, step order, rules and premises.
uint64_t arenaDigest(const prov::Recorder &R) {
  uint64_t H = 0xcbf29ce484222325ull;
  auto Mix = [&H](uint64_t V) {
    for (int Byte = 0; Byte < 8; ++Byte) {
      H ^= (V >> (8 * Byte)) & 0xff;
      H *= 0x100000001b3ull;
    }
  };
  R.scanFacts([&Mix](uint32_t, const prov::Fact &F) {
    Mix(static_cast<uint64_t>(F.Kind));
    Mix(F.A);
    Mix(F.B64);
    return true;
  });
  for (size_t I = 0, N = R.numSteps(); I != N; ++I) {
    prov::Step S = R.stepAt(I);
    Mix(S.Target);
    Mix(S.Prem0);
    Mix(S.Prem1);
    Mix(S.RuleWord);
  }
  return H;
}

const char *const PinnedPolicies[] = {"2obj+H", "1call+H", "cs", "S-cs",
                                      "insens"};

/// Calls \p Fn(Label, Rec) for every worklist arena the pinned digests
/// cover: each example, plain and taint-instrumented, under each pinned
/// policy.
template <typename Callback> void forEachPinnedArena(Callback &&Fn) {
  for (const std::filesystem::path &Path : examplePrograms()) {
    for (bool Taint : {false, true}) {
      std::unique_ptr<Program> Prog = loadExample(Path, Taint);
      ASSERT_TRUE(Prog) << Path;
      for (const char *Name : PinnedPolicies) {
        auto Policy = createPolicy(Name, *Prog);
        ASSERT_TRUE(Policy) << Name;
        prov::Recorder Rec;
        SolverOptions Opts;
        Opts.Prov = &Rec;
        AnalysisResult R = solveProgram(*Prog, *Policy, Opts);
        ASSERT_FALSE(R.Aborted);
        std::string Label = Path.filename().string() + ' ' + Name + ' ' +
                            (Taint ? "taint" : "plain");
        Fn(Label, Rec);
      }
    }
  }
}

// Every worklist arena over the examples corpus, pinned byte for byte in
// tests/baselines/provenance_arena.txt.  Fact ids pick the codeFlow
// anchors and so the SARIF bytes; a solver change that reorders facts,
// steps, rules or premises shows up here on small programs first.
TEST(Provenance, WorklistArenasMatchThePinnedDigests) {
  std::ostringstream Got;
  forEachPinnedArena([&Got](const std::string &Label,
                            const prov::Recorder &Rec) {
    char Hex[17];
    std::snprintf(Hex, sizeof(Hex), "%016llx",
                  static_cast<unsigned long long>(arenaDigest(Rec)));
    Got << Label << ' ' << Rec.numFacts() << ' ' << Rec.numSteps() << ' '
        << Hex << '\n';
  });
  std::istringstream Baseline(
      slurp(std::filesystem::path(HYBRIDPT_BASELINES_DIR) /
            "provenance_arena.txt"));
  std::string Want, Line;
  while (std::getline(Baseline, Line))
    if (!Line.empty() && Line[0] != '#')
      Want += Line + '\n';
  EXPECT_EQ(Got.str(), Want) << "actual arena digests:\n" << Got.str();
}

// What positional fact ids rely on: a worklist run concludes every fact
// exactly once, at the point its id is appended.  So there are as many
// steps as facts, no (kind, A, B64) payload appears twice, and each
// fact's first step is its only step.
TEST(Provenance, WorklistConcludesEveryFactOnce) {
  auto Check = [](const std::string &Label, const prov::Recorder &Rec) {
    SCOPED_TRACE(Label);
    const size_t N = Rec.numFacts();
    ASSERT_EQ(Rec.numSteps(), N);
    std::vector<std::tuple<uint8_t, uint64_t, uint64_t>> Payloads;
    Payloads.reserve(N);
    Rec.scanFacts([&Payloads](uint32_t, const prov::Fact &F) {
      Payloads.emplace_back(static_cast<uint8_t>(F.Kind), F.A, F.B64);
      return true;
    });
    std::sort(Payloads.begin(), Payloads.end());
    EXPECT_EQ(std::adjacent_find(Payloads.begin(), Payloads.end()),
              Payloads.end())
        << "a fact payload was recorded twice";
    std::vector<uint32_t> StepOf(N, UINT32_MAX);
    for (uint32_t I = 0; I != N; ++I) {
      uint32_t Target = Rec.stepAt(I).Target;
      ASSERT_LT(Target, N);
      ASSERT_EQ(StepOf[Target], UINT32_MAX)
          << "fact " << Target << " concluded twice";
      StepOf[Target] = I;
    }
    for (uint32_t F = 0; F != N; ++F)
      ASSERT_EQ(Rec.firstStepOf(F), StepOf[F]) << "fact " << F;
  };
  forEachPinnedArena(Check);

  const Program &P = luindex();
  auto Policy = createPolicy("2obj+H", P);
  prov::Recorder Rec;
  SolverOptions Opts;
  Opts.Prov = &Rec;
  ASSERT_FALSE(solveProgram(P, *Policy, Opts).Aborted);
  Check("luindex 2obj+H", Rec);
}

// A cast and a sanitize edge between one node pair each keep their own
// justification: in castsanitize.ptir, y -> Note arrives only through the
// sanitize edge (the cast to Shape rejects a Note), so its step must name
// the sanitize rule and validate.
TEST(Provenance, CastAndSanitizeOnOneNodePairKeepTheirRules) {
  ParseResult Parsed = parseProgram(slurp(
      std::filesystem::path(HYBRIDPT_EXAMPLES_DIR) / "castsanitize.ptir"));
  ASSERT_TRUE(Parsed.ok());
  const Program &P = *Parsed.Prog;
  VarId Y = findVarByPath(P, "App::main/0::y");
  HeapId Note = findHeapByName(P, "new Note@1");
  HeapId Circle = findHeapByName(P, "new Circle@0");
  ASSERT_TRUE(Y.isValid());
  ASSERT_TRUE(Note.isValid());
  ASSERT_TRUE(Circle.isValid());
  auto Policy = createPolicy("insens", P);
  prov::Recorder Rec;
  SolverOptions Opts;
  Opts.Prov = &Rec;
  AnalysisResult R = solveProgram(P, *Policy, Opts);
  ASSERT_FALSE(R.Aborted);
  prov::DerivationTree ViaSanitize =
      prov::whyPointsTo(Rec, R, Y, CtxId(), Note);
  ASSERT_TRUE(ViaSanitize.Found) << ViaSanitize.Error;
  EXPECT_EQ(ViaSanitize.Steps.back().R, prov::Rule::Sanitize);
  prov::DerivationTree ViaCast =
      prov::whyPointsTo(Rec, R, Y, CtxId(), Circle);
  ASSERT_TRUE(ViaCast.Found) << ViaCast.Error;
  EXPECT_EQ(ViaCast.Steps.back().R, prov::Rule::Cast);
  prov::ValidationResult VR =
      prov::validateSampledSteps(Rec, R, Policy.get(), /*Stride=*/1);
  EXPECT_TRUE(VR.Ok) << VR.Error;
}

TEST(Provenance, ClearResetsTheArena) {
  const Program &P = factory();
  auto Policy = createPolicy("1obj", P);
  ASSERT_TRUE(Policy);
  prov::Recorder Rec;
  SolverOptions Opts;
  Opts.Prov = &Rec;
  (void)solveProgram(P, *Policy, Opts);
  ASSERT_GT(Rec.numSteps(), 0u);
  Rec.clear();
  EXPECT_EQ(Rec.numFacts(), 0u);
  EXPECT_EQ(Rec.numSteps(), 0u);
}

// Every checked-in example under every registered policy: EVERY recorded
// step must re-check against the rule side conditions — stride 1, no
// sampling slack.
TEST(Provenance, EveryStepValidates) {
  size_t Programs = 0;
  for (const auto &Entry :
       std::filesystem::directory_iterator(HYBRIDPT_EXAMPLES_DIR)) {
    if (Entry.path().extension() != ".ptir")
      continue;
    ++Programs;
    SCOPED_TRACE(Entry.path().filename().string());
    ParseResult Parsed = parseProgram(slurp(Entry.path()));
    ASSERT_TRUE(Parsed.ok());
    const Program &Prog = *Parsed.Prog;

    for (const std::string &Name : allPolicyNames()) {
      SCOPED_TRACE("policy " + Name);
      auto Policy = createPolicy(Name, Prog);
      ASSERT_TRUE(Policy);
      prov::Recorder Rec;
      SolverOptions Opts;
      Opts.Prov = &Rec;
      AnalysisResult R = solveProgram(Prog, *Policy, Opts);
      ASSERT_FALSE(R.Aborted);
      EXPECT_GT(Rec.numSteps(), 0u);
      prov::ValidationResult VR =
          prov::validateSampledSteps(Rec, R, Policy.get(), /*Stride=*/1);
      EXPECT_TRUE(VR.Ok) << VR.Error;
      EXPECT_EQ(VR.CheckedSteps, Rec.numSteps());
    }
  }
  EXPECT_GE(Programs, 5u);
}

// The arena counts against MemoryBudgetBytes like any other container:
// a budget the bare solver fits under but solver-plus-arena does not
// must abort the provenance-enabled run with memory_budget.
TEST(Provenance, ArenaCountsAgainstTheMemoryBudget) {
  const Program &P = luindex();
  auto BasePolicy = createPolicy("2obj+H", P);
  ASSERT_TRUE(BasePolicy);
  SolverOptions Bare;
  AnalysisResult BareR = solveProgram(P, *BasePolicy, Bare);
  ASSERT_FALSE(BareR.Aborted);

  auto ProvPolicy = createPolicy("2obj+H", P);
  prov::Recorder Rec;
  SolverOptions WithProv;
  WithProv.Prov = &Rec;
  AnalysisResult ProvR = solveProgram(P, *ProvPolicy, WithProv);
  ASSERT_FALSE(ProvR.Aborted);
  ASSERT_GT(ProvR.PeakBytes, BareR.PeakBytes)
      << "arena not reflected in the run's memory accounting";
  // The solver's own containers are the same in both runs, so the
  // recorded run holds at least the arena on top of the bare peak (plus
  // the solver's per-node fact ids and edge justifications).
  EXPECT_GE(ProvR.PeakBytes, BareR.PeakBytes + Rec.memoryBytes());

  // A budget just above the bare peak: container sizes only grow during
  // a solve, so the bare run can never trip it, while the recorded run
  // crosses it early enough for the sampled memory poll (every eighth
  // guard poll) to fire well before convergence.
  uint64_t Budget = BareR.PeakBytes + (ProvR.PeakBytes - BareR.PeakBytes) / 8;
  auto BudgetBare = createPolicy("2obj+H", P);
  SolverOptions BareBudget;
  BareBudget.MemoryBudgetBytes = Budget;
  AnalysisResult BareBudgetR = solveProgram(P, *BudgetBare, BareBudget);
  EXPECT_FALSE(BareBudgetR.Aborted);

  auto BudgetProv = createPolicy("2obj+H", P);
  prov::Recorder Rec2;
  SolverOptions ProvBudget;
  ProvBudget.MemoryBudgetBytes = Budget;
  ProvBudget.Prov = &Rec2;
  AnalysisResult ProvBudgetR = solveProgram(P, *BudgetProv, ProvBudget);
  EXPECT_TRUE(ProvBudgetR.Aborted);
  EXPECT_EQ(ProvBudgetR.Reason, AbortReason::MemoryBudget);
}

// Fault-plan coverage of the guard path (docs/ROBUSTNESS.md): an
// injected OOM mid-solve aborts with memory_budget, and the partial
// arena is still internally consistent — every recorded step validates
// and queries do not crash (found or not).
TEST(Provenance, InjectedOomLeavesAQueryableArena) {
  const Program &P = luindex();
  auto Policy = createPolicy("1obj", P);
  ASSERT_TRUE(Policy);
  prov::Recorder Rec;
  SolverOptions Opts;
  Opts.Prov = &Rec;
  Opts.Faults.OomAtStep = 2000;
  AnalysisResult R = solveProgram(P, *Policy, Opts);
  ASSERT_TRUE(R.Aborted);
  EXPECT_EQ(R.Reason, AbortReason::MemoryBudget);
  EXPECT_GT(Rec.numSteps(), 0u);

  prov::ValidationResult VR =
      prov::validateSampledSteps(Rec, R, Policy.get(), /*Stride=*/1);
  EXPECT_TRUE(VR.Ok) << VR.Error;

  // Deriving any recorded fact from a truncated arena must terminate
  // and stay inside the arena.
  prov::DerivationTree Tree = prov::deriveFact(Rec, 0);
  EXPECT_TRUE(Tree.Found);
  for (const prov::TreeStep &S : Tree.Steps) {
    EXPECT_LT(S.FactId, Rec.numFacts());
    EXPECT_LT(S.StepIdx, Rec.numSteps());
  }

  // Cost attribution over the partial arena ties out.
  prov::BlameReport B = prov::blame(Rec, R, /*TopK=*/5);
  EXPECT_EQ(B.TotalSteps, Rec.numSteps());
  EXPECT_LE(B.ByRule.size(), 5u);
}

#else // !HYBRIDPT_PROVENANCE_ENABLED

// With -DHYBRIDPT_PROVENANCE=OFF the hooks compile out; the only
// contract left to check is that a null recorder stays inert.
TEST(Provenance, CompiledOutRecorderIsInert) {
  EXPECT_FALSE(PT_PROV_ACTIVE(static_cast<prov::Recorder *>(nullptr)));
}

#endif

} // namespace
