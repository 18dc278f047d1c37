//===- tests/provenance_test.cpp - derivation provenance ------------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
// The provenance subsystem's contract (pta/provenance/Provenance.h):
// a run carrying a Recorder can answer "why does v point to h?" with a
// derivation tree whose every step replays through the Datalog
// reference's rules (ptaref/Validate.h); a query the policy
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
#include "ptaref/Validate.h"
#include "support/Hashing.h"
#include "taint/Taint.h"
#include "taint/TaintSpec.h"
#include "workloads/Profiles.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
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

  prov::ValidationResult VR = prov::validateTree(Rec, R, Tree, *Policy);
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
  EXPECT_EQ(ViaSanitize.Steps.back().R, Rule::Sanitize);
  prov::DerivationTree ViaCast =
      prov::whyPointsTo(Rec, R, Y, CtxId(), Circle);
  ASSERT_TRUE(ViaCast.Found) << ViaCast.Error;
  EXPECT_EQ(ViaCast.Steps.back().R, Rule::Cast);
  prov::ValidationResult VR =
      prov::validateSampledSteps(Rec, R, *Policy, /*Stride=*/1);
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
// step must replay through the reference's rules — stride 1, no
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
          prov::validateSampledSteps(Rec, R, *Policy, /*Stride=*/1);
      EXPECT_TRUE(VR.Ok) << VR.Error;
      EXPECT_EQ(VR.CheckedSteps, Rec.numSteps());
    }
  }
  EXPECT_GE(Programs, 5u);
}

// --- Forged steps ------------------------------------------------------
//
// The validator is an oracle only if it can say no.  Each case copies a
// real recorded arena into a fresh recorder with exactly one step altered
// (plus, where the forgery needs them, facts appended after the recorded
// ones), and validation must reject exactly that step.

/// A provenance-recorded run kept alive for forging.
struct Recording {
  std::unique_ptr<ContextPolicy> Policy;
  prov::Recorder Rec;
  std::unique_ptr<AnalysisResult> R;

  Recording(const Program &P, const std::string &Name)
      : Policy(createPolicy(Name, P)) {
    SolverOptions Opts;
    Opts.Prov = &Rec;
    R = std::make_unique<AnalysisResult>(solveProgram(P, *Policy, Opts));
  }

  /// Index of the first step of rule \p Rule with \p Pred(step) true, or
  /// SIZE_MAX.
  template <typename Pred> size_t find(Rule Rule, Pred &&P) const {
    for (size_t I = 0; I != Rec.numSteps(); ++I)
      if (Rec.stepAt(I).rule() == Rule && P(Rec.stepAt(I)))
        return I;
    return SIZE_MAX;
  }
  size_t find(Rule Rule) const {
    return find(Rule, [](const prov::Step &) { return true; });
  }

  /// Id the first of \p forge's extra facts gets.
  uint32_t nextFact() const { return static_cast<uint32_t>(Rec.numFacts()); }

  /// Copies the arena into \p Out with step \p Idx replaced by
  /// (\p Target, \p Rule, \p P0, \p P1) and \p Extra appended to the facts.
  void forge(size_t Idx, uint32_t Target, Rule Rule, uint32_t P0,
             uint32_t P1, const std::vector<prov::Fact> &Extra,
             prov::Recorder &Out) const {
    Rec.scanFacts([&Out](uint32_t, const prov::Fact &F) {
      Out.reserveFact(F.Kind, F.A, F.B64);
      return true;
    });
    for (const prov::Fact &F : Extra)
      Out.reserveFact(F.Kind, F.A, F.B64);
    for (size_t I = 0; I != Rec.numSteps(); ++I) {
      prov::Step S = Rec.stepAt(I);
      if (I == Idx)
        Out.step(Target, Rule, P0, P1);
      else
        Out.step(S.Target, S.rule(), S.Prem0, S.Prem1);
    }
  }

  /// Expects \p Forged (forged at step \p Idx) to fail validation at that
  /// step, with \p Why in the error.
  void expectRejected(const prov::Recorder &Forged, size_t Idx,
                      const std::string &Why) const {
    prov::ValidationResult VR =
        prov::validateSampledSteps(Forged, *R, *Policy, /*Stride=*/1);
    EXPECT_FALSE(VR.Ok);
    EXPECT_EQ(VR.CheckedSteps, Idx) << VR.Error;
    EXPECT_NE(VR.Error.find(Why), std::string::npos) << VR.Error;
  }
};

TEST(ForgedSteps, WrongRuleAndWrongPremiseAreRejected) {
  Recording Run(luindex(), "2obj+H");
  ASSERT_FALSE(Run.R->Aborted);

  // A param-bind relabelled return-bind: same premise shapes, different
  // side condition.
  size_t Idx = Run.find(Rule::ParamBind);
  ASSERT_NE(Idx, SIZE_MAX);
  prov::Step S = Run.Rec.stepAt(Idx);
  prov::Recorder WrongRule;
  Run.forge(Idx, S.Target, Rule::ReturnBind, S.Prem0, S.Prem1, {},
            WrongRule);
  Run.expectRejected(WrongRule, Idx, "return-bind");

  // A move whose premise is its own conclusion: same context and object,
  // but no move copies the variable onto itself.
  Idx = Run.find(Rule::Move);
  ASSERT_NE(Idx, SIZE_MAX);
  S = Run.Rec.stepAt(Idx);
  prov::Recorder WrongPremise;
  Run.forge(Idx, S.Target, Rule::Move, S.Target, S.Prem1, {},
            WrongPremise);
  Run.expectRejected(WrongPremise, Idx, "Move");
}

TEST(ForgedSteps, WrongContextsAreRejected) {
  Recording Run(luindex(), "2obj+H");
  ASSERT_FALSE(Run.R->Aborted);
  const AnalysisResult &R = *Run.R;

  // MERGE: a vcall edge whose callee context is off by one.
  size_t Idx = Run.find(Rule::VCall);
  ASSERT_NE(Idx, SIZE_MAX);
  prov::Step S = Run.Rec.stepAt(Idx);
  prov::Fact Edge = Run.Rec.fact(S.Target);
  Edge.B64 = packPair(unpackHi(Edge.B64), unpackLo(Edge.B64) + 1);
  prov::Recorder WrongMerge;
  Run.forge(Idx, Run.nextFact(), Rule::VCall, S.Prem0, S.Prem1, {Edge},
            WrongMerge);
  Run.expectRejected(WrongMerge, Idx, "MERGE");

  // RECORD: an alloc concluding the same heap under another of its heap
  // contexts.
  uint32_t Other = UINT32_MAX;
  Idx = Run.find(Rule::Alloc, [&](const prov::Step &Alloc) {
    uint32_t Obj = static_cast<uint32_t>(Run.Rec.fact(Alloc.Target).B64);
    for (uint32_t O = 0; O != R.numObjects(); ++O)
      if (O != Obj && R.objHeap(O) == R.objHeap(Obj)) {
        Other = O;
        return true;
      }
    return false;
  });
  ASSERT_NE(Idx, SIZE_MAX) << "no heap allocated under two heap contexts";
  S = Run.Rec.stepAt(Idx);
  prov::Fact Vpt = Run.Rec.fact(S.Target);
  Vpt.B64 = Other;
  prov::Recorder WrongRecord;
  Run.forge(Idx, Run.nextFact(), Rule::Alloc, S.Prem0, S.Prem1, {Vpt},
            WrongRecord);
  Run.expectRejected(WrongRecord, Idx, "RECORD");
}

TEST(ForgedSteps, FilteredObjectsAreRejected) {
  // Cast: in castsanitize.ptir y -> Note arrives through the sanitize
  // edge only; the same step labelled cast passes a Note through the
  // Shape filter.
  {
    ParseResult Parsed = parseProgram(slurp(
        std::filesystem::path(HYBRIDPT_EXAMPLES_DIR) / "castsanitize.ptir"));
    ASSERT_TRUE(Parsed.ok());
    Recording Run(*Parsed.Prog, "insens");
    ASSERT_FALSE(Run.R->Aborted);
    size_t Idx = Run.find(Rule::Sanitize);
    ASSERT_NE(Idx, SIZE_MAX);
    prov::Step S = Run.Rec.stepAt(Idx);
    prov::Recorder Forged;
    Run.forge(Idx, S.Target, Rule::Cast, S.Prem0, S.Prem1, {}, Forged);
    Run.expectRejected(Forged, Idx, "SubtypeOf");
  }

  // Sanitize: taintflow.ptir under its spec, with a tainted object
  // carried across the barrier.
  {
    ParseResult Parsed = parseProgram(slurp(
        std::filesystem::path(HYBRIDPT_EXAMPLES_DIR) / "taintflow.ptir"));
    ASSERT_TRUE(Parsed.ok());
    taint::SpecParseResult Spec = taint::parseSpecFile(
        (std::filesystem::path(HYBRIDPT_EXAMPLES_DIR) / "default.taintspec")
            .string());
    ASSERT_TRUE(Spec.ok());
    std::unique_ptr<Program> P = taint::instrument(
        *Parsed.Prog, taint::resolve(Spec.Spec, *Parsed.Prog));
    Recording Run(*P, "insens");
    ASSERT_FALSE(Run.R->Aborted);
    uint32_t Tainted = UINT32_MAX;
    for (uint32_t O = 0; O != Run.R->numObjects(); ++O)
      if (P->heap(Run.R->objHeap(O)).TaintTag != 0)
        Tainted = O;
    ASSERT_NE(Tainted, UINT32_MAX);
    size_t Idx = Run.find(Rule::Sanitize);
    ASSERT_NE(Idx, SIZE_MAX);
    prov::Step S = Run.Rec.stepAt(Idx);
    prov::Fact To = Run.Rec.fact(S.Target), From = Run.Rec.fact(S.Prem0);
    To.B64 = From.B64 = Tainted;
    uint32_t First = Run.nextFact();
    prov::Recorder Forged;
    Run.forge(Idx, First, Rule::Sanitize, First + 1, S.Prem1,
              {To, From}, Forged);
    Run.expectRejected(Forged, Idx, "CleanHeap");
  }
}

TEST(ForgedSteps, CallsAndBindingsOffTheirRulesAreRejected) {
  Recording Run(luindex(), "2obj+H");
  ASSERT_FALSE(Run.R->Aborted);

  // MERGESTATIC: a static call edge whose callee context is off by one.
  size_t Idx = Run.find(Rule::SCall);
  ASSERT_NE(Idx, SIZE_MAX);
  prov::Step S = Run.Rec.stepAt(Idx);
  prov::Fact Edge = Run.Rec.fact(S.Target);
  Edge.B64 = packPair(unpackHi(Edge.B64), unpackLo(Edge.B64) + 1);
  prov::Recorder WrongMergeStatic;
  Run.forge(Idx, Run.nextFact(), Rule::SCall, S.Prem0, S.Prem1, {Edge},
            WrongMergeStatic);
  Run.expectRejected(WrongMergeStatic, Idx, "MERGESTATIC");

  // A this-bind into a variable that is not the callee's `this`.
  Idx = Run.find(Rule::ThisBind);
  ASSERT_NE(Idx, SIZE_MAX);
  S = Run.Rec.stepAt(Idx);
  prov::Fact Vpt = Run.Rec.fact(S.Target);
  Vpt.A = packPair(unpackHi(Vpt.A) + 1, unpackLo(Vpt.A));
  prov::Recorder WrongThis;
  Run.forge(Idx, Run.nextFact(), Rule::ThisBind, S.Prem0, S.Prem1, {Vpt},
            WrongThis);
  Run.expectRejected(WrongThis, Idx, "ThisVar");
}

TEST(ForgedSteps, StaticAccessesOfAnotherFieldAreRejected) {
  Recording Run(luindex(), "2obj+H");
  ASSERT_FALSE(Run.R->Aborted);
  uint32_t NumFields = static_cast<uint32_t>(luindex().numFields());

  // A static store concluding a slot the stored variable never writes.
  size_t Idx = Run.find(Rule::StaticStore);
  ASSERT_NE(Idx, SIZE_MAX);
  prov::Step S = Run.Rec.stepAt(Idx);
  prov::Fact Spt = Run.Rec.fact(S.Target);
  Spt.A = (Spt.A + 1) % NumFields;
  prov::Recorder Store;
  Run.forge(Idx, Run.nextFact(), Rule::StaticStore, S.Prem0, S.Prem1, {Spt},
            Store);
  Run.expectRejected(Store, Idx, "SStore");

  // A static load citing a slot the loading variable never reads.
  Idx = Run.find(Rule::StaticLoad);
  ASSERT_NE(Idx, SIZE_MAX);
  S = Run.Rec.stepAt(Idx);
  Spt = Run.Rec.fact(S.Prem0);
  Spt.A = (Spt.A + 1) % NumFields;
  prov::Recorder Load;
  Run.forge(Idx, S.Target, Rule::StaticLoad, Run.nextFact(), S.Prem1, {Spt},
            Load);
  Run.expectRejected(Load, Idx, "SLoad");
}

TEST(ForgedSteps, ThrowsAndCatchesSwappedAreRejected) {
  // Each THROW outcome once: main catches its own throw (catch-bind), fail
  // raises uncaught (throw-raise), relay passes it on (throw-escalate) and
  // main catches it (catch-escalate).
  ParseResult Parsed = parseProgram(R"(
class Object {
}
class Error extends Object {
}
class Worker extends Object {
  method fail/0 {
    new e Error
    throw e
  }
  method relay/0 {
    vcall this fail/0
  }
}
class App extends Object {
  static method main/0 {
    new w Worker
    vcall w relay/0
    new local Error
    throw local
    catch Error caught
  }
}
entry App::main/0
)");
  ASSERT_TRUE(Parsed.ok());
  const Program &P = *Parsed.Prog;
  Recording Run(P, "2obj+H");
  ASSERT_FALSE(Run.R->Aborted);
  // The conclusion each outcome's twin would draw from the same premises:
  // a caught object escapes the frame anyway, or an escaping one is bound
  // to a variable (any: no handler of the frame catches it at all).
  auto Swap = [&](Rule From, Rule To, const std::string &Why) {
    SCOPED_TRACE(ruleName(From));
    size_t Idx = Run.find(From);
    ASSERT_NE(Idx, SIZE_MAX);
    prov::Step S = Run.Rec.stepAt(Idx);
    prov::Fact Thrown = Run.Rec.fact(S.Prem0);
    prov::Fact Forged = Run.Rec.fact(S.Target);
    bool Escalates = From == Rule::ThrowEscalate || From == Rule::CatchEscalate;
    uint32_t Frame =
        Escalates ? P.invoke(InvokeId(unpackHi(Run.Rec.fact(S.Prem1).A)))
                        .InMethod.index()
                  : P.var(VarId(unpackHi(Thrown.A))).Owner.index();
    uint32_t Ctx = unpackLo(Escalates ? Run.Rec.fact(S.Prem1).A : Thrown.A);
    if (Forged.Kind == prov::FactKind::VarPointsTo) {
      Forged.Kind = prov::FactKind::ThrowPointsTo;
      Forged.A = packPair(Frame, Ctx);
    } else {
      Forged.Kind = prov::FactKind::VarPointsTo;
      Forged.A = packPair(0, Ctx);
    }
    prov::Recorder Out;
    Run.forge(Idx, Run.nextFact(), To, S.Prem0, S.Prem1, {Forged}, Out);
    Run.expectRejected(Out, Idx, Why);
  };
  Swap(Rule::CatchBind, Rule::ThrowRaise, "NoHandler");
  Swap(Rule::ThrowRaise, Rule::CatchBind, "HandlerFor");
  Swap(Rule::CatchEscalate, Rule::ThrowEscalate, "NoHandler");
  Swap(Rule::ThrowEscalate, Rule::CatchEscalate, "HandlerFor");
}

TEST(ForgedSteps, ShortcutsOutsideTheCutPlanAreRejected) {
  // A shortcut store concluding a field no store cut names.
  {
    Recording Run(luindex(), "cs");
    ASSERT_FALSE(Run.R->Aborted);
    size_t Idx = Run.find(Rule::ShortcutStore);
    ASSERT_NE(Idx, SIZE_MAX);
    prov::Step S = Run.Rec.stepAt(Idx);
    prov::Fact Fpt = Run.Rec.fact(S.Target);
    uint32_t Fld = unpackLo(Fpt.A);
    Fpt.A = packPair(unpackHi(Fpt.A),
                     (Fld + 1) % static_cast<uint32_t>(luindex().numFields()));
    prov::Recorder Forged;
    Run.forge(Idx, Run.nextFact(), Rule::ShortcutStore, S.Prem0,
              S.Prem1, {Fpt}, Forged);
    Run.expectRejected(Forged, Idx, "CutStore");
  }

  // A shortcut step under a policy without a cut plan: a 2obj+H
  // param-bind relabelled shortcut-ret-arg.
  {
    Recording Run(luindex(), "2obj+H");
    ASSERT_FALSE(Run.R->Aborted);
    size_t Idx = Run.find(Rule::ParamBind);
    ASSERT_NE(Idx, SIZE_MAX);
    prov::Step S = Run.Rec.stepAt(Idx);
    prov::Recorder Forged;
    Run.forge(Idx, S.Target, Rule::ShortcutRetArg, S.Prem0, S.Prem1,
              {}, Forged);
    Run.expectRejected(Forged, Idx, "CutRetArg");
  }
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
      prov::validateSampledSteps(Rec, R, *Policy, /*Stride=*/1);
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
