//===- tests/checks_test.cpp - Checker-suite unit tests -------------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
// Exercises the src/checks subsystem: registry contents, per-checker
// expectations on the dispatch example, determinism, source-line anchoring,
// monotonicity of the May checkers over every precision-ordering pair on
// every example program, the --compare engine, and the SARIF/JSONL shape.
//
//===----------------------------------------------------------------------===//

#include "checks/Checker.h"
#include "checks/Driver.h"
#include "checks/Escape.h"
#include "checks/Flow.h"
#include "checks/Render.h"
#include "checks/Sarif.h"
#include "context/PolicyRegistry.h"
#include "fuzz/Oracle.h"
#include "ir/Program.h"
#include "irtext/TextFormat.h"
#include "pta/AnalysisResult.h"
#include "pta/Solver.h"
#include "pta/provenance/Provenance.h"
#include "taint/Taint.h"
#include "workloads/Profiles.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <streambuf>

namespace {

using namespace pt;
using namespace pt::checks;

std::string slurp(const std::filesystem::path &Path) {
  std::ifstream In(Path);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

std::unique_ptr<Program> parseExample(const std::string &Name) {
  std::filesystem::path Path =
      std::filesystem::path(HYBRIDPT_EXAMPLES_DIR) / Name;
  ParseResult Parsed = parseProgram(slurp(Path), Name);
  EXPECT_TRUE(Parsed.ok())
      << (Parsed.Errors.empty() ? "" : Parsed.Errors.front());
  return std::move(Parsed.Prog);
}

AnalysisResult solve(const Program &Prog, ContextPolicy &Policy) {
  Solver S(Prog, Policy);
  return S.run();
}

std::vector<std::filesystem::path> examplePrograms() {
  std::vector<std::filesystem::path> Out;
  for (const auto &Entry :
       std::filesystem::directory_iterator(HYBRIDPT_EXAMPLES_DIR))
    if (Entry.path().extension() == ".ptir")
      Out.push_back(Entry.path());
  std::sort(Out.begin(), Out.end());
  return Out;
}

TEST(CheckerRegistry, HasTheSixBuiltins) {
  CheckerRegistry &Reg = CheckerRegistry::instance();
  std::vector<std::string> Ids = Reg.ids();
  ASSERT_GE(Ids.size(), 6u);
  std::set<std::string> IdSet(Ids.begin(), Ids.end());
  for (const char *Id :
       {"uninit-deref", "unreachable-method", "dead-vcall", "may-fail-cast",
        "poly-vcall", "method-escape"})
    EXPECT_TRUE(IdSet.count(Id)) << Id;

  // Rule ids are unique and every factory produces a checker whose info
  // matches the registered metadata.
  std::set<std::string> RuleIds;
  for (const std::string &Id : Ids) {
    const CheckerInfo *Info = Reg.info(Id);
    ASSERT_NE(Info, nullptr);
    EXPECT_TRUE(RuleIds.insert(Info->RuleId).second) << Info->RuleId;
    std::unique_ptr<Checker> C = Reg.create(Id);
    ASSERT_NE(C, nullptr);
    EXPECT_EQ(C->info().Id, Id);
    EXPECT_EQ(C->info().RuleId, Info->RuleId);
  }
  EXPECT_EQ(Reg.create("no-such-checker"), nullptr);
  EXPECT_EQ(Reg.info("no-such-checker"), nullptr);
}

TEST(Checkers, DispatchExampleFindings) {
  auto Prog = parseExample("dispatch.ptir");
  ASSERT_TRUE(Prog);
  LintOptions Opts;
  Opts.Config.Policy = "2obj+H";
  LintRun Run = lintProgram(*Prog, Opts);
  ASSERT_TRUE(Run.ok()) << Run.Error;
  EXPECT_FALSE(Run.Aborted);

  std::map<std::string, std::vector<const Diagnostic *>> ByCheck;
  for (const Diagnostic &D : Run.Diags)
    ByCheck[D.CheckId].push_back(&D);

  // The `(Circle) got` cast may observe the Square — a may-fail cast.
  ASSERT_EQ(ByCheck["may-fail-cast"].size(), 1u);
  const Diagnostic &Cast = *ByCheck["may-fail-cast"].front();
  EXPECT_EQ(Cast.RuleId, "HPT004");
  EXPECT_EQ(Cast.Sev, Severity::Warning);
  EXPECT_EQ(Cast.Dir, Direction::May);
  EXPECT_NE(Cast.Message.find("Circle"), std::string::npos);
  ASSERT_FALSE(Cast.Evidence.empty());
  EXPECT_NE(Cast.Evidence.front().find("Square"), std::string::npos);
  // The parser recorded the cast's source line, so the diagnostic anchors
  // to a real file:line rather than 0.
  EXPECT_GT(Cast.Line, 0u);

  // The draw/0 site dispatches to both Circle.draw and Square.draw.
  ASSERT_EQ(ByCheck["poly-vcall"].size(), 1u);
  EXPECT_EQ(ByCheck["poly-vcall"].front()->Evidence.size(), 2u);

  // Abstract Shape.draw is never a dispatch target of any receiver.
  ASSERT_EQ(ByCheck["unreachable-method"].size(), 1u);
  EXPECT_NE(ByCheck["unreachable-method"].front()->Message.find("Shape.draw"),
            std::string::npos);

  // Both shapes are returned from their factories, so both escape.
  EXPECT_EQ(ByCheck["method-escape"].size(), 2u);

  // Nothing dereferences an empty variable and no site is dead.
  EXPECT_EQ(ByCheck["uninit-deref"].size(), 0u);
  EXPECT_EQ(ByCheck["dead-vcall"].size(), 0u);
}

TEST(Checkers, DeterministicAcrossRepeatedRuns) {
  auto Prog = parseExample("dispatch.ptir");
  ASSERT_TRUE(Prog);
  LintOptions Opts;
  Opts.Config.Policy = "S-2obj+H";
  LintRun A = lintProgram(*Prog, Opts);
  LintRun B = lintProgram(*Prog, Opts);
  ASSERT_TRUE(A.ok());
  ASSERT_EQ(A.Diags.size(), B.Diags.size());
  for (size_t I = 0; I != A.Diags.size(); ++I) {
    EXPECT_EQ(A.Diags[I].key(), B.Diags[I].key());
    EXPECT_EQ(A.Diags[I].Message, B.Diags[I].Message);
    EXPECT_EQ(A.Diags[I].Line, B.Diags[I].Line);
    EXPECT_EQ(A.Diags[I].Evidence, B.Diags[I].Evidence);
  }
}

TEST(Checkers, UninitDerefAndDeadCall) {
  // x is declared but never assigned: the load, the store, the throw, and
  // the virtual call on it are all reported.
  const char *Text = R"(class Object {
  field f
  method id/0 {
    return this
  }
}
class Main {
  static method main/0 {
    var x
    load y x Object::f
    store x Object::f y
    throw x
    vcall x id/0
  }
}
entry Main::main/0
)";
  ParseResult Parsed = parseProgram(Text, "uninit.ptir");
  ASSERT_TRUE(Parsed.ok())
      << (Parsed.Errors.empty() ? "" : Parsed.Errors.front());
  LintRun Run = lintProgram(*Parsed.Prog, {});
  ASSERT_TRUE(Run.ok()) << Run.Error;

  std::map<std::string, size_t> Count;
  for (const Diagnostic &D : Run.Diags)
    Count[D.CheckId]++;
  EXPECT_EQ(Count["uninit-deref"], 3u); // load, store, throw — not the vcall
  EXPECT_EQ(Count["dead-vcall"], 1u);   // the vcall is the dead site

  // Lines come from the parser: the load sits on line 8 of the snippet.
  bool SawLoadLine = false;
  for (const Diagnostic &D : Run.Diags)
    if (D.CheckId == "uninit-deref" && D.SiteKey.rfind("load:", 0) == 0) {
      EXPECT_EQ(D.Line, 10u);
      SawLoadLine = true;
    }
  EXPECT_TRUE(SawLoadLine);
}

TEST(Checkers, EscapeViaStaticAndForeignStore) {
  // a escapes through the static field; b escapes because it is stored
  // into a's field while a escapes; c stays local.
  const char *Text = R"(class Object {
  field f
  static field g
}
class Main {
  static method main/0 {
    new a Object
    new b Object
    new c Object
    sstore Object::g a
    store a Object::f b
  }
}
entry Main::main/0
)";
  ParseResult Parsed = parseProgram(Text, "escape.ptir");
  ASSERT_TRUE(Parsed.ok());
  LintRun Run = lintProgram(*Parsed.Prog, {});
  ASSERT_TRUE(Run.ok()) << Run.Error;

  std::set<std::string> EscapeKeys;
  for (const Diagnostic &D : Run.Diags)
    if (D.CheckId == "method-escape")
      EscapeKeys.insert(D.SiteKey);
  EXPECT_EQ(EscapeKeys.size(), 2u);
  EXPECT_TRUE(EscapeKeys.count("heap:0")); // a, via the static
  EXPECT_TRUE(EscapeKeys.count("heap:1")); // b, via the escaping base
}

// The acceptance property of the suite: on every example program, for
// every precision-ordering pair, a May checker never reports a site the
// coarser policy proves safe — and the Definite checkers are allowed to
// grow but never shrink.
TEST(Checkers, MonotoneOverEveryPrecisionPairOnEveryExample) {
  for (const auto &Path : examplePrograms()) {
    SCOPED_TRACE(Path.filename().string());
    ParseResult Parsed = parseProgram(slurp(Path), Path.filename().string());
    ASSERT_TRUE(Parsed.ok());
    const Program &Prog = *Parsed.Prog;

    std::map<std::string, std::set<std::string>> MayKeys;
    auto keysFor = [&](const std::string &PolicyName) {
      auto It = MayKeys.find(PolicyName);
      if (It != MayKeys.end())
        return It->second;
      auto Policy = createPolicy(PolicyName, Prog);
      EXPECT_TRUE(Policy) << PolicyName;
      AnalysisResult R = solve(Prog, *Policy);
      EXPECT_FALSE(R.Aborted);
      std::set<std::string> Keys;
      for (const Diagnostic &D : runCheckers(R).Diags)
        if (D.Dir == Direction::May)
          Keys.insert(D.key());
      MayKeys.emplace(PolicyName, Keys);
      return Keys;
    };

    for (const auto &[Fine, Coarse] : precisionOrderPairs()) {
      std::set<std::string> FineKeys = keysFor(Fine);
      std::set<std::string> CoarseKeys = keysFor(Coarse);
      for (const std::string &K : FineKeys)
        EXPECT_TRUE(CoarseKeys.count(K))
            << Fine << " introduced " << K << " over " << Coarse;
    }
  }
}

// Every paper policy produces a clean, well-formed report on every
// example: unique keys, rule metadata resolvable, sorted order.
TEST(Checkers, WellFormedUnderEveryPaperPolicy) {
  for (const auto &Path : examplePrograms()) {
    SCOPED_TRACE(Path.filename().string());
    ParseResult Parsed = parseProgram(slurp(Path), Path.filename().string());
    ASSERT_TRUE(Parsed.ok());
    for (const std::string &PolicyName : paperPolicyNames()) {
      SCOPED_TRACE(PolicyName);
      LintOptions Opts;
      Opts.Config.Policy = PolicyName;
      LintRun Run = lintProgram(*Parsed.Prog, Opts);
      ASSERT_TRUE(Run.ok()) << Run.Error;
      std::set<std::string> Keys;
      for (const Diagnostic &D : Run.Diags) {
        EXPECT_FALSE(D.CheckId.empty());
        EXPECT_FALSE(D.RuleId.empty());
        EXPECT_FALSE(D.SiteKey.empty());
        EXPECT_FALSE(D.Message.empty());
        EXPECT_TRUE(Keys.insert(D.key()).second) << D.key();
        EXPECT_NE(CheckerRegistry::instance().info(D.CheckId), nullptr);
      }
    }
  }
}

TEST(Compare, RefinementResolvesOrKeepsEveryMayReport) {
  auto Prog = parseExample("dispatch.ptir");
  ASSERT_TRUE(Prog);
  CompareResult CR = comparePolicies(*Prog, "2obj+H", "S-2obj+H");
  ASSERT_TRUE(CR.ok()) << CR.Error;
  EXPECT_TRUE(CR.monotonicityViolations().empty());
  EXPECT_GE(CR.reduction(), 0);
  // The textual rendering mentions both policies and the verdict line.
  std::ostringstream OS;
  renderCompare(OS, CR);
  EXPECT_NE(OS.str().find("2obj+H"), std::string::npos);
  EXPECT_NE(OS.str().find("monotonicity: ok"), std::string::npos);
}

TEST(Compare, UnknownPolicyIsAnError) {
  auto Prog = parseExample("dispatch.ptir");
  ASSERT_TRUE(Prog);
  CompareResult CR = comparePolicies(*Prog, "2obj+H", "not-a-policy");
  EXPECT_FALSE(CR.ok());
}

TEST(Render, SarifIsDeterministicAndStructured) {
  auto Prog = parseExample("dispatch.ptir");
  ASSERT_TRUE(Prog);
  LintRun Run = lintProgram(*Prog, {});
  ASSERT_TRUE(Run.ok());

  SarifOptions Opts;
  Opts.PolicyName = "2obj+H";
  std::ostringstream A, B;
  writeSarif(A, *Prog, Run.Diags, Run.Rules, Opts);
  writeSarif(B, *Prog, Run.Diags, Run.Rules, Opts);
  EXPECT_EQ(A.str(), B.str());
  EXPECT_NE(A.str().find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(A.str().find("\"name\": \"hybridpt-lint\""), std::string::npos);
  EXPECT_NE(A.str().find("sarif-schema-2.1.0.json"), std::string::npos);
  // The dispatch cast diagnostic carries its source region.
  EXPECT_NE(A.str().find("\"startLine\""), std::string::npos);
}

TEST(Render, JsonlEscapesAndTagsPolicy) {
  auto Prog = parseExample("dispatch.ptir");
  ASSERT_TRUE(Prog);
  LintRun Run = lintProgram(*Prog, {});
  ASSERT_TRUE(Run.ok());
  std::ostringstream OS;
  renderJsonl(OS, *Prog, Run.Diags, "2obj+H");
  std::string Out = OS.str();
  size_t Lines = std::count(Out.begin(), Out.end(), '\n');
  EXPECT_EQ(Lines, Run.Diags.size());
  EXPECT_NE(Out.find("\"policy\":\"2obj+H\""), std::string::npos);
}

#if HYBRIDPT_PROVENANCE_ENABLED

/// A provenance lint of luindex with the synthetic taint spec: the lint
/// path's biggest input in this suite, with every anchor kind present.
struct ProvLint {
  std::unique_ptr<Program> Prog;
  std::unique_ptr<ContextPolicy> Policy;
  prov::Recorder Rec;
  std::optional<AnalysisResult> Res;
  LintRun Run;

  explicit ProvLint(const Program &Base) {
    Prog = taint::instrument(
        Base, taint::resolve(taint::syntheticSpec(Base, 1), Base));
    Policy = createPolicy("2obj+H", *Prog);
    SolverOptions Opts;
    Opts.Prov = &Rec;
    Res.emplace(solveProgram(*Prog, *Policy, Opts));
    Run = runCheckers(*Res);
  }
};

std::string flowText(const std::vector<FlowStep> &Flow) {
  std::string Out;
  for (const FlowStep &S : Flow)
    Out += S.Message + "@" + std::to_string(S.Line) + "#" +
           std::to_string(S.Method.rawValue()) + "\n";
  return Out;
}

// Batch attachment resolves every anchor in one arena pass, derives each
// distinct anchored fact once and renders each fact once.  None of that
// may change a flow: every diagnostic must carry exactly the flow it gets
// when attached on its own, and a points-to flow must end in the fact a
// single whyPointsTo query derives.
TEST(Flow, BatchAttachMatchesPerDiagnosticAttach) {
  Benchmark Bench = buildBenchmark("luindex");
  ProvLint L(*Bench.Prog);
  ASSERT_FALSE(L.Res->Aborted);
  ASSERT_TRUE(L.Run.ok());
  // Every diagnostic twice, so each anchored fact is shared.
  const size_t N = L.Run.Diags.size();
  std::vector<Diagnostic> Batch = L.Run.Diags;
  Batch.insert(Batch.end(), L.Run.Diags.begin(), L.Run.Diags.end());
  attachDerivationFlows(*L.Res, L.Rec, Batch);

  size_t WithFlow = 0, PointsTo = 0, Reach = 0;
  for (size_t I = 0; I != N; ++I) {
    SCOPED_TRACE(Batch[I].key());
    std::vector<Diagnostic> One{L.Run.Diags[I]};
    attachDerivationFlows(*L.Res, L.Rec, One);
    EXPECT_EQ(flowText(Batch[I].Flow), flowText(One[0].Flow));
    EXPECT_EQ(flowText(Batch[N + I].Flow), flowText(One[0].Flow));
    if (Batch[I].Flow.empty())
      continue;
    ++WithFlow;
    EXPECT_LE(Batch[I].Flow.size(), 32u);
    const Diagnostic &D = Batch[I];
    if (D.WhyVar.isValid() && D.WhyHeap.isValid()) {
      ++PointsTo;
      prov::DerivationTree Tree =
          prov::whyPointsTo(L.Rec, *L.Res, D.WhyVar, CtxId(), D.WhyHeap);
      ASSERT_TRUE(Tree.Found) << Tree.Error;
      EXPECT_EQ(D.Flow.size(), std::min<size_t>(Tree.Steps.size(), 32));
      EXPECT_EQ(D.Flow.back().Message,
                std::string("[") + ruleName(Tree.Steps.back().R) +
                    "] " + prov::formatFact(L.Rec, *L.Res, Tree.Root));
    } else if (D.WhyReachable.isValid()) {
      ++Reach;
    }
  }
  // The fixture exercises both anchor kinds.
  EXPECT_GT(PointsTo, 0u);
  EXPECT_GT(Reach, 0u);
  EXPECT_GT(WithFlow, 100u);

  // Attaching again replaces each flow rather than extending it.
  std::vector<Diagnostic> Again = Batch;
  attachDerivationFlows(*L.Res, L.Rec, Again);
  for (size_t I = 0; I != Batch.size(); ++I)
    EXPECT_EQ(flowText(Again[I].Flow), flowText(Batch[I].Flow));
}

// An anchor the run never derived leaves the diagnostic without a flow,
// and diagnostics without anchors are untouched.
TEST(Flow, UnderivedAnchorLeavesNoFlow) {
  auto Prog = parseExample("dispatch.ptir");
  ASSERT_TRUE(Prog);
  auto Policy = createPolicy("2obj+H", *Prog);
  prov::Recorder Rec;
  SolverOptions Opts;
  Opts.Prov = &Rec;
  AnalysisResult Res = solveProgram(*Prog, *Policy, Opts);

  Diagnostic NoAnchor;
  NoAnchor.Flow.push_back(FlowStep{"kept", MethodId(), 0});
  Diagnostic Missing; // A heap the variable never points to.
  Missing.WhyVar = VarId::fromIndex(0);
  Missing.WhyHeap = HeapId::fromIndex(Prog->numHeaps() - 1);
  ASSERT_FALSE(prov::whyPointsTo(Rec, Res, Missing.WhyVar, CtxId(),
                                 Missing.WhyHeap)
                   .Found);
  std::vector<Diagnostic> Diags{NoAnchor, Missing};
  attachDerivationFlows(Res, Rec, Diags);
  ASSERT_EQ(Diags[0].Flow.size(), 1u);
  EXPECT_EQ(Diags[0].Flow[0].Message, "kept");
  EXPECT_TRUE(Diags[1].Flow.empty());
}

/// Counts what reaches the stream: bytes and separate write calls.
class CountingBuf : public std::streambuf {
public:
  std::string Text;
  size_t Writes = 0;

protected:
  std::streamsize xsputn(const char *S, std::streamsize N) override {
    ++Writes;
    Text.append(S, static_cast<size_t>(N));
    return N;
  }
  int_type overflow(int_type C) override {
    if (!traits_type::eq_int_type(C, traits_type::eof())) {
      ++Writes;
      Text += traits_type::to_char_type(C);
    }
    return traits_type::not_eof(C);
  }
};

// SARIF leaves the writer in chunks of at least 64 KiB (the last one
// excepted), with bytes identical to a string-stream rendering: a log of
// hundreds of megabytes costs a few thousand stream writes, not one per
// JSON token.
TEST(Render, SarifWritesInChunks) {
  Benchmark Bench = buildBenchmark("luindex");
  ProvLint L(*Bench.Prog);
  attachDerivationFlows(*L.Res, L.Rec, L.Run.Diags);
  SarifOptions Opts;
  Opts.PolicyName = "2obj+H";

  std::ostringstream Whole;
  writeSarif(Whole, *L.Prog, L.Run.Diags, L.Run.Rules, Opts);
  CountingBuf Buf;
  std::ostream OS(&Buf);
  writeSarif(OS, *L.Prog, L.Run.Diags, L.Run.Rules, Opts);

  EXPECT_EQ(Buf.Text, Whole.str());
  ASSERT_GT(Buf.Text.size(), size_t(1) << 20) << "fixture too small";
  EXPECT_LE(Buf.Writes, Buf.Text.size() / (64 * 1024) + 1);
  EXPECT_NE(Buf.Text.find("\"codeFlows\""), std::string::npos);
}

#endif // HYBRIDPT_PROVENANCE_ENABLED

} // namespace
