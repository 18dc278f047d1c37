//===- tests/taint_test.cpp - Taint-client unit tests ---------------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
// Exercises the src/taint subsystem (docs/CHECKS.md "Taint analysis"):
// spec parse/print round-trips, resolve()'s matching semantics (static
// owner filtering, the virtual owner-ignored over-approximation, source
// precedence, sink arity bounds), instrument()'s id-stability contract and
// empty-plan behavioral identity, the taintflow.ptir end-to-end
// expectation (one unsanitized flow, the sanitized one proven clean),
// HPT007 monotonicity over every precision-ordering pair on every
// example, the dynamic taint oracle's containment on a program where it
// concretely fires, and the Metrics column's agreement with the client
// query.
//
//===----------------------------------------------------------------------===//

#include "checks/Checker.h"
#include "checks/Driver.h"
#include "context/PolicyRegistry.h"
#include "fuzz/Oracle.h"
#include "interp/Interpreter.h"
#include "ir/Program.h"
#include "irtext/TextFormat.h"
#include "pta/AnalysisResult.h"
#include "pta/Clients.h"
#include "pta/Metrics.h"
#include "pta/Projection.h"
#include "pta/Solver.h"
#include "taint/Taint.h"
#include "taint/TaintSpec.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

namespace {

using namespace pt;

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

std::unique_ptr<Program> parseText(const std::string &Text) {
  ParseResult Parsed = parseProgram(Text, "inline");
  EXPECT_TRUE(Parsed.ok())
      << (Parsed.Errors.empty() ? "" : Parsed.Errors.front());
  return std::move(Parsed.Prog);
}

AnalysisResult solveWith(const Program &Prog, ContextPolicy &Policy,
                         SolverOptions Opts = {}) {
  return solveProgram(Prog, Policy, Opts);
}

/// Cross-program-comparable report key (variable ids are not stable
/// across instrumentation, so findings key on site/arg/tag).
using SinkKey = std::tuple<uint32_t, uint32_t, uint32_t>;

std::set<SinkKey> sinkKeys(const AnalysisResult &R) {
  std::set<SinkKey> Out;
  for (const TaintedSink &T : findTaintedSinks(R))
    Out.emplace(T.Site.index(), T.ArgIdx, T.TagIdx);
  return Out;
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

//===----------------------------------------------------------------------===//
// Spec parsing
//===----------------------------------------------------------------------===//

TEST(TaintSpecParse, RoundTrip) {
  const char *Text = "# a comment\n"
                     "source Net::read/0 tag=net\n"
                     "source *::recv/1 tag=net\n"
                     "sink Db::exec/1 arg=0\n"
                     "sanitize Esc::clean/1\n";
  taint::SpecParseResult R = taint::parseSpec(Text, "spec");
  ASSERT_TRUE(R.ok()) << (R.Errors.empty() ? "" : R.Errors.front());
  ASSERT_EQ(R.Spec.Sources.size(), 2u);
  EXPECT_EQ(R.Spec.Sources[0].Pattern.Owner, "Net");
  EXPECT_EQ(R.Spec.Sources[0].Pattern.Name, "read");
  EXPECT_EQ(R.Spec.Sources[0].Pattern.Arity, 0u);
  EXPECT_EQ(R.Spec.Sources[0].Tag, "net");
  EXPECT_EQ(R.Spec.Sources[1].Pattern.Owner, "*");
  ASSERT_EQ(R.Spec.Sinks.size(), 1u);
  EXPECT_EQ(R.Spec.Sinks[0].ArgIdx, 0u);
  ASSERT_EQ(R.Spec.Sanitizers.size(), 1u);

  // print -> parse -> print is a fixpoint.
  std::string Printed = taint::printSpec(R.Spec);
  taint::SpecParseResult Again = taint::parseSpec(Printed, "printed");
  ASSERT_TRUE(Again.ok());
  EXPECT_EQ(taint::printSpec(Again.Spec), Printed);
}

TEST(TaintSpecParse, ErrorsCarryLineNumbers) {
  taint::SpecParseResult R =
      taint::parseSpec("source Net::read/0 tag=net\n"
                       "frobnicate X::y/1\n"
                       "sink Db::exec/1\n", // missing arg=
                       "bad.spec");
  EXPECT_FALSE(R.ok());
  ASSERT_GE(R.Errors.size(), 2u);
  EXPECT_NE(R.Errors[0].find("bad.spec:2"), std::string::npos)
      << R.Errors[0];
  EXPECT_NE(R.Errors[1].find("bad.spec:3"), std::string::npos)
      << R.Errors[1];
}

TEST(TaintSpecParse, MissingFileIsOneError) {
  taint::SpecParseResult R =
      taint::parseSpecFile("/nonexistent/dir/never.taintspec");
  EXPECT_FALSE(R.ok());
  EXPECT_EQ(R.Errors.size(), 1u);
}

TEST(TaintSpecParse, DefaultSpecFileParses) {
  std::filesystem::path Path =
      std::filesystem::path(HYBRIDPT_EXAMPLES_DIR) / "default.taintspec";
  taint::SpecParseResult R = taint::parseSpecFile(Path.string());
  ASSERT_TRUE(R.ok()) << (R.Errors.empty() ? "" : R.Errors.front());
  EXPECT_EQ(R.Spec.Sources.size(), 1u);
  EXPECT_EQ(R.Spec.Sinks.size(), 1u);
  EXPECT_EQ(R.Spec.Sanitizers.size(), 1u);
}

//===----------------------------------------------------------------------===//
// resolve() matching semantics
//===----------------------------------------------------------------------===//

const char *kStaticCalls = R"(
class Object {
}
class Util extends Object {
  static method get/0 {
    new o Object
    return o
  }
}
class Other extends Object {
  static method get/0 {
    new o Object
    return o
  }
}
class App extends Object {
  static method main/0 {
    scall a Util::get/0
    scall b Other::get/0
  }
}
entry App::main/0
)";

TEST(TaintResolve, StaticCallsFilterOnOwner) {
  auto Prog = parseText(kStaticCalls);
  taint::TaintSpec Spec;
  Spec.Sources.push_back({{"Util", "get", 0}, "t"});
  taint::TaintPlan Plan = taint::resolve(Spec, *Prog);
  ASSERT_EQ(Plan.Sources.size(), 1u);
  // The matched site resolved to Util::get/0.
  const InvokeInfo &Inv = Prog->invoke(Plan.Sources[0].first);
  EXPECT_NE(Prog->qualifiedName(Inv.Target).find("Util"),
            std::string::npos);

  Spec.Sources[0].Pattern.Owner = "*";
  Plan = taint::resolve(Spec, *Prog);
  EXPECT_EQ(Plan.Sources.size(), 2u);
  ASSERT_EQ(Plan.Tags.size(), 1u);
  EXPECT_EQ(Plan.Tags[0], "t");
}

const char *kVirtualCall = R"(
class Object {
}
class Net extends Object {
  method read/0 {
    new d Object
    return d
  }
}
class App extends Object {
  static method main/0 {
    new n Net
    vcall r n read/0
    scall App::use/1 r
  }
  static method use/1 {
  }
}
entry App::main/0
)";

TEST(TaintResolve, VirtualCallsIgnoreOwner) {
  auto Prog = parseText(kVirtualCall);
  // The owner in the pattern names a class that does not even exist; the
  // virtual site still matches on (name, arity) — the documented
  // over-approximation.
  taint::TaintSpec Spec;
  Spec.Sources.push_back({{"Bogus", "read", 0}, "t"});
  taint::TaintPlan Plan = taint::resolve(Spec, *Prog);
  EXPECT_EQ(Plan.Sources.size(), 1u);
  // A static site with a non-matching owner does NOT match.
  taint::TaintSpec Spec2;
  Spec2.Sources.push_back({{"Bogus", "use", 1}, "t"});
  EXPECT_TRUE(taint::resolve(Spec2, *Prog).Sources.empty());
}

TEST(TaintResolve, SourceWinsOverSanitizer) {
  auto Prog = parseText(kVirtualCall);
  taint::TaintSpec Spec;
  Spec.Sources.push_back({{"*", "read", 0}, "t"});
  Spec.Sanitizers.push_back({{"*", "read", 0}});
  taint::TaintPlan Plan = taint::resolve(Spec, *Prog);
  EXPECT_EQ(Plan.Sources.size(), 1u);
  EXPECT_TRUE(Plan.Sanitizers.empty());
}

TEST(TaintResolve, SinkArgumentMustBeInBounds) {
  auto Prog = parseText(kVirtualCall);
  taint::TaintSpec Spec;
  Spec.Sinks.push_back({{"App", "use", 1}, 0});
  EXPECT_EQ(taint::resolve(Spec, *Prog).Sinks.size(), 1u);
  Spec.Sinks[0].ArgIdx = 1; // out of bounds for use/1
  EXPECT_TRUE(taint::resolve(Spec, *Prog).Sinks.empty());
}

//===----------------------------------------------------------------------===//
// instrument(): id stability and empty-plan identity
//===----------------------------------------------------------------------===//

TEST(TaintInstrument, OriginalIdsAreStable) {
  auto Prog = parseExample("taintflow.ptir");
  taint::SpecParseResult Spec = taint::parseSpecFile(
      (std::filesystem::path(HYBRIDPT_EXAMPLES_DIR) / "default.taintspec")
          .string());
  ASSERT_TRUE(Spec.ok());
  taint::TaintPlan Plan = taint::resolve(Spec.Spec, *Prog);
  ASSERT_FALSE(Plan.Sources.empty());
  ASSERT_FALSE(Plan.Sinks.empty());
  ASSERT_FALSE(Plan.Sanitizers.empty());
  auto Inst = taint::instrument(*Prog, Plan);

  // Methods, invokes, and cast sites replay 1:1; taint entities append.
  ASSERT_EQ(Inst->numMethods(), Prog->numMethods());
  ASSERT_EQ(Inst->numInvokes(), Prog->numInvokes());
  EXPECT_EQ(Inst->numCastSites(), Prog->numCastSites());
  EXPECT_GT(Inst->numTypes(), Prog->numTypes());
  EXPECT_GT(Inst->numHeaps(), Prog->numHeaps());
  for (uint32_t I = 0; I < Prog->numMethods(); ++I)
    EXPECT_EQ(Inst->qualifiedName(MethodId(I)),
              Prog->qualifiedName(MethodId(I)));
  for (uint32_t I = 0; I < Prog->numInvokes(); ++I) {
    EXPECT_EQ(Inst->invoke(InvokeId(I)).InMethod,
              Prog->invoke(InvokeId(I)).InMethod);
    EXPECT_EQ(Inst->invoke(InvokeId(I)).Actuals.size(),
              Prog->invoke(InvokeId(I)).Actuals.size());
  }
  // Original heaps keep their types and stay untagged; appended taint
  // heaps all carry a tag.
  for (uint32_t I = 0; I < Prog->numHeaps(); ++I) {
    EXPECT_EQ(Inst->heap(HeapId(I)).InMethod, Prog->heap(HeapId(I)).InMethod);
    EXPECT_EQ(Inst->heap(HeapId(I)).TaintTag, 0u);
  }
  for (uint32_t I = Prog->numHeaps(); I < Inst->numHeaps(); ++I)
    EXPECT_GT(Inst->heap(HeapId(I)).TaintTag, 0u);

  // The plan's sink and tag metadata rides on the result.
  EXPECT_EQ(Inst->taintSinks().size(), Plan.Sinks.size());
  EXPECT_EQ(Inst->taintTags(), Plan.Tags);
  EXPECT_TRUE(Prog->taintSinks().empty());
}

TEST(TaintInstrument, EmptyPlanIsBehaviorallyIdentical) {
  auto Prog = parseExample("dispatch.ptir");
  auto Inst = taint::instrument(*Prog, taint::TaintPlan{});
  EXPECT_TRUE(Inst->taintSinks().empty());
  for (const char *Name : {"insens", "2obj+H"}) {
    SCOPED_TRACE(Name);
    auto P1 = createPolicy(Name, *Prog);
    auto P2 = createPolicy(Name, *Inst);
    ASSERT_TRUE(P1 && P2);
    AnalysisResult R1 = solveWith(*Prog, *P1);
    AnalysisResult R2 = solveWith(*Inst, *P2);
    CiProjection C1 = ciProject(R1);
    CiProjection C2 = ciProject(R2);
    // Variable ids are the one entity class instrument() renumbers, so
    // VarPointsTo is compared up to the (size-preserving) bijection; every
    // other relation keys on stable ids and must match exactly.
    EXPECT_EQ(C1.VarPointsTo.size(), C2.VarPointsTo.size());
    EXPECT_EQ(C1.CallEdges, C2.CallEdges);
    EXPECT_EQ(C1.ReachableMethods, C2.ReachableMethods);
    EXPECT_EQ(C1.StaticFieldPointsTo, C2.StaticFieldPointsTo);
    EXPECT_EQ(C1.FieldPointsTo, C2.FieldPointsTo);
    EXPECT_EQ(C1.MayFailCasts, C2.MayFailCasts);
    EXPECT_TRUE(findTaintedSinks(R2).empty());
  }
}

//===----------------------------------------------------------------------===//
// taintflow.ptir end to end
//===----------------------------------------------------------------------===//

/// Parses taintflow.ptir and instruments it with the default spec.
std::unique_ptr<Program> instrumentedTaintflow() {
  auto Prog = parseExample("taintflow.ptir");
  taint::SpecParseResult Spec = taint::parseSpecFile(
      (std::filesystem::path(HYBRIDPT_EXAMPLES_DIR) / "default.taintspec")
          .string());
  EXPECT_TRUE(Spec.ok());
  taint::TaintPlan Plan = taint::resolve(Spec.Spec, *Prog);
  return taint::instrument(*Prog, Plan);
}

TEST(TaintFlow, UnsanitizedFlowReportedSanitizedFlowClean) {
  auto Inst = instrumentedTaintflow();
  auto Policy = createPolicy("2obj+H", *Inst);
  ASSERT_TRUE(Policy);
  AnalysisResult R = solveWith(*Inst, *Policy);
  ASSERT_FALSE(R.Aborted);

  std::vector<TaintedSink> Sinks = findTaintedSinks(R);
  ASSERT_EQ(Sinks.size(), 1u);
  // The one finding is the raw Handler path, tagged `net`, witnessed by a
  // taint allocation; the SafeHandler path (through San::clean) is clean.
  EXPECT_EQ(Inst->taintTags().at(Sinks[0].TagIdx), "net");
  EXPECT_EQ(Sinks[0].ArgIdx, 0u);
  std::string InMethod =
      Inst->qualifiedName(Inst->invoke(Sinks[0].Site).InMethod);
  EXPECT_NE(InMethod.find("Handler"), std::string::npos) << InMethod;
  EXPECT_EQ(InMethod.find("SafeHandler"), std::string::npos) << InMethod;
  EXPECT_GT(Inst->heap(Sinks[0].Witness).TaintTag, 0u);

  // HPT007 reports exactly this finding, and the Metrics column agrees
  // with the client query.
  checks::LintRun Run = checks::runCheckers(R, {"tainted-sink"});
  ASSERT_EQ(Run.Diags.size(), 1u);
  EXPECT_EQ(Run.Diags[0].RuleId, "HPT007");
  EXPECT_EQ(computeMetrics(R).TaintedSinks, Sinks.size());
}

TEST(TaintFlow, UninstrumentedProgramReportsNothing) {
  auto Prog = parseExample("taintflow.ptir");
  auto Policy = createPolicy("2obj+H", *Prog);
  ASSERT_TRUE(Policy);
  AnalysisResult R = solveWith(*Prog, *Policy);
  EXPECT_TRUE(findTaintedSinks(R).empty());
  EXPECT_EQ(computeMetrics(R).TaintedSinks, 0u);
  EXPECT_TRUE(checks::runCheckers(R, {"tainted-sink"}).Diags.empty());
}

//===----------------------------------------------------------------------===//
// Monotonicity: HPT007 shrinks under refinement, on every example
//===----------------------------------------------------------------------===//

TEST(TaintMonotonicity, EveryExampleEveryPrecisionPair) {
  size_t Checked = 0;
  for (const auto &Path : examplePrograms()) {
    SCOPED_TRACE(Path.filename().string());
    ParseResult Parsed = parseProgram(slurp(Path), Path.filename().string());
    ASSERT_TRUE(Parsed.ok());
    taint::TaintSpec Spec = taint::syntheticSpec(*Parsed.Prog, 7);
    taint::TaintPlan Plan = taint::resolve(Spec, *Parsed.Prog);
    if (Plan.Sources.empty() || Plan.Sinks.empty())
      continue;
    auto Inst = taint::instrument(*Parsed.Prog, Plan);

    std::map<std::string, std::set<SinkKey>> Keys;
    auto keysFor = [&](const std::string &Name) -> const std::set<SinkKey> & {
      auto It = Keys.find(Name);
      if (It == Keys.end()) {
        auto Policy = createPolicy(Name, *Inst);
        EXPECT_TRUE(Policy) << Name;
        AnalysisResult R = solveWith(*Inst, *Policy);
        EXPECT_FALSE(R.Aborted);
        It = Keys.emplace(Name, sinkKeys(R)).first;
      }
      return It->second;
    };
    for (const auto &[Fine, Coarse] : precisionOrderPairs()) {
      const std::set<SinkKey> &FineKeys = keysFor(Fine);
      const std::set<SinkKey> &CoarseKeys = keysFor(Coarse);
      for (const SinkKey &K : FineKeys)
        EXPECT_TRUE(CoarseKeys.count(K))
            << Fine << " introduced a tainted sink absent under " << Coarse;
      ++Checked;
    }
  }
  EXPECT_GT(Checked, 0u);
}

//===----------------------------------------------------------------------===//
// The dynamic taint oracle, non-vacuously
//===----------------------------------------------------------------------===//

TEST(TaintOracle, DynamicHitsAreContainedAndNonVacuous) {
  auto Prog = parseExample("taintflow.ptir");
  taint::SpecParseResult Spec = taint::parseSpecFile(
      (std::filesystem::path(HYBRIDPT_EXAMPLES_DIR) / "default.taintspec")
          .string());
  ASSERT_TRUE(Spec.ok());
  taint::TaintPlan Plan = taint::resolve(Spec.Spec, *Prog);

  // Dynamic leg: shadow tags on the original program.
  InterpTaintMap Map;
  for (auto [Site, Tag] : Plan.Sources)
    Map.SourceTags[Site.index()] |= 1ULL << Tag;
  for (InvokeId S : Plan.Sanitizers)
    Map.SanitizerSites.insert(S.index());
  for (auto [Site, Arg] : Plan.Sinks)
    Map.SinkArgs.insert({Site.index(), Arg});
  std::set<SinkKey> Dynamic;
  for (uint64_t Seed = 1; Seed <= 3; ++Seed) {
    InterpOptions Opts;
    Opts.Seed = Seed;
    Opts.Taint = &Map;
    ConcreteObservations Obs = interpret(*Prog, Opts);
    Dynamic.insert(Obs.TaintedSinkHits.begin(), Obs.TaintedSinkHits.end());
  }
  // taintflow's unsanitized path executes unconditionally, so the oracle
  // has teeth here: the interpreter concretely taints the Handler sink.
  EXPECT_FALSE(Dynamic.empty());

  // Static leg: every dynamic hit is reported under every policy tested.
  auto Inst = taint::instrument(*Prog, Plan);
  for (const char *Name : {"insens", "1obj", "2obj+H", "S-2obj+H"}) {
    SCOPED_TRACE(Name);
    auto Policy = createPolicy(Name, *Inst);
    ASSERT_TRUE(Policy);
    AnalysisResult R = solveWith(*Inst, *Policy);
    ASSERT_FALSE(R.Aborted);
    std::set<SinkKey> Static = sinkKeys(R);
    for (const SinkKey &K : Dynamic)
      EXPECT_TRUE(Static.count(K))
          << "dynamically tainted sink missed statically under " << Name;
  }
}

//===----------------------------------------------------------------------===//
// Metrics column == client query, across the corpus
//===----------------------------------------------------------------------===//

TEST(TaintMetrics, ColumnMatchesClientQuery) {
  for (const auto &Path : examplePrograms()) {
    SCOPED_TRACE(Path.filename().string());
    ParseResult Parsed = parseProgram(slurp(Path), Path.filename().string());
    ASSERT_TRUE(Parsed.ok());
    taint::TaintSpec Spec = taint::syntheticSpec(*Parsed.Prog, 11);
    taint::TaintPlan Plan = taint::resolve(Spec, *Parsed.Prog);
    auto Inst = taint::instrument(*Parsed.Prog, Plan);
    for (const char *Name : {"insens", "2obj+H"}) {
      SCOPED_TRACE(Name);
      auto Policy = createPolicy(Name, *Inst);
      ASSERT_TRUE(Policy);
      AnalysisResult R = solveWith(*Inst, *Policy);
      EXPECT_EQ(computeMetrics(R).TaintedSinks,
                findTaintedSinks(R).size());
    }
  }
}

} // namespace
