//===- tests/irtext_test.cpp - PTIR text format tests ---------------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//

#include "context/PolicyRegistry.h"
#include "ir/Program.h"
#include "ir/ProgramBuilder.h"
#include "irtext/TextFormat.h"
#include "pta/AnalysisResult.h"
#include "pta/Metrics.h"
#include "pta/Solver.h"
#include "workloads/Fuzzer.h"
#include "workloads/MiniLib.h"
#include "workloads/Profiles.h"

#include <gtest/gtest.h>

namespace {

using namespace pt;

const char *HelloProgram = R"(
# A tiny program: a box round trip through a factory.
class Object {
}
class Box extends Object {
  field value
  method get/0 {
    load r this Box::value
    return r
  }
  method set/1 {
    store this Box::value p0
  }
}
class A extends Object {
}
class App extends Object {
  static method make/1 {
    new b Box
    vcall b set/1 p0
    return b
  }
  static method main/0 {
    new x A
    scall b App::make/1 x
    vcall y b get/0
    cast z A y
  }
}
entry App::main/0
)";

TEST(Parser, ParsesHelloProgram) {
  ParseResult R = parseProgram(HelloProgram);
  ASSERT_TRUE(R.ok()) << (R.Errors.empty() ? "" : R.Errors[0]);
  const Program &P = *R.Prog;
  EXPECT_EQ(P.numTypes(), 4u);
  EXPECT_EQ(P.numMethods(), 4u);
  EXPECT_EQ(P.numCastSites(), 1u);
  EXPECT_EQ(P.entryPoints().size(), 1u);
}

TEST(Parser, ParsedProgramAnalyzesCorrectly) {
  ParseResult R = parseProgram(HelloProgram);
  ASSERT_TRUE(R.ok());
  const Program &P = *R.Prog;

  auto Policy = createPolicy("insens", P);
  Solver S(P, *Policy);
  AnalysisResult Result = S.run();
  VarId Y = findVarByPath(P, "App::main/0::y");
  ASSERT_TRUE(Y.isValid());
  // y receives the A object through the box.
  auto Pts = Result.pointsTo(Y);
  ASSERT_EQ(Pts.size(), 1u);
  EXPECT_EQ(P.text(P.type(P.heap(Pts[0]).Type).Name), "A");
  // The downcast to A is provably safe.
  EXPECT_FALSE(Result.mayFailCast(0));
}

TEST(Parser, ReportsUnknownType) {
  ParseResult R = parseProgram("class A { static method m/0 { new x Nope } }"
                               "\nentry A::m/0\n");
  EXPECT_FALSE(R.ok());
  ASSERT_FALSE(R.Errors.empty());
  EXPECT_NE(R.Errors[0].find("unknown type"), std::string::npos);
}

TEST(Parser, ReportsUnknownSupertypeOrCycle) {
  ParseResult R = parseProgram("class A extends B {\n}\nclass B extends A "
                               "{\n}\n");
  EXPECT_FALSE(R.ok());
}

TEST(Parser, ReportsDuplicateClass) {
  ParseResult R = parseProgram("class A {\n}\nclass A {\n}\n");
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Errors[0].find("duplicate class"), std::string::npos);
}

TEST(Parser, ReportsUnknownStaticTarget) {
  ParseResult R = parseProgram(
      "class A { static method m/0 { scall A::nope/0 } }\n");
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Errors[0].find("unknown static method"), std::string::npos);
}

TEST(Parser, ReportsUnknownField) {
  ParseResult R = parseProgram(
      "class A { static method m/0 { new x A\nload y x A::nope } }\n");
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Errors[0].find("unknown field"), std::string::npos);
}

TEST(Parser, ReportsNonStaticEntry) {
  ParseResult R = parseProgram("class A { method m/0 {\n} }\nentry A::m/0\n");
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Errors[0].find("must be static"), std::string::npos);
}

TEST(Parser, ClassOrderIndependence) {
  // Subclass lexically before its supertype.
  const char *Text = "class B extends A {\n}\nclass A {\n}\n";
  ParseResult R = parseProgram(Text);
  ASSERT_TRUE(R.ok());
  const Program &P = *R.Prog;
  TypeId A, B;
  for (size_t I = 0; I < P.numTypes(); ++I) {
    if (P.text(P.type(TypeId::fromIndex(I)).Name) == "A")
      A = TypeId::fromIndex(I);
    else
      B = TypeId::fromIndex(I);
  }
  EXPECT_TRUE(P.isSubtype(B, A));
}

TEST(Parser, CommentsAndWhitespace) {
  ParseResult R = parseProgram("# leading comment\n"
                               "class A {  # trailing\n"
                               "  static method m/0 {\n"
                               "    # body comment\n"
                               "  }\n"
                               "}\n"
                               "entry A::m/0");
  EXPECT_TRUE(R.ok()) << (R.Errors.empty() ? "" : R.Errors[0]);
}

TEST(Printer, RoundTripIsStable) {
  ParseResult R1 = parseProgram(HelloProgram);
  ASSERT_TRUE(R1.ok());
  std::string Printed = printProgram(*R1.Prog);
  ParseResult R2 = parseProgram(Printed);
  ASSERT_TRUE(R2.ok()) << (R2.Errors.empty() ? "" : R2.Errors[0]);
  // Fixpoint after one round trip.
  EXPECT_EQ(printProgram(*R2.Prog), Printed);
}

TEST(Printer, RoundTripPreservesAnalysisResults) {
  ParseResult R1 = parseProgram(HelloProgram);
  ASSERT_TRUE(R1.ok());
  ParseResult R2 = parseProgram(printProgram(*R1.Prog));
  ASSERT_TRUE(R2.ok());

  // Entity ids are renumbered by the round trip, so compare the
  // isomorphism-invariant metrics rather than raw exports.
  auto P1 = createPolicy("2obj+H", *R1.Prog);
  auto P2 = createPolicy("2obj+H", *R2.Prog);
  Solver S1(*R1.Prog, *P1), S2(*R2.Prog, *P2);
  PrecisionMetrics M1 = computeMetrics(S1.run());
  PrecisionMetrics M2 = computeMetrics(S2.run());
  EXPECT_EQ(M1.CsVarPointsTo, M2.CsVarPointsTo);
  EXPECT_EQ(M1.CallGraphEdges, M2.CallGraphEdges);
  EXPECT_EQ(M1.PolyVCalls, M2.PolyVCalls);
  EXPECT_EQ(M1.MayFailCasts, M2.MayFailCasts);
  EXPECT_EQ(M1.ReachableMethods, M2.ReachableMethods);
  EXPECT_DOUBLE_EQ(M1.AvgPointsTo, M2.AvgPointsTo);
}

class RoundTripFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RoundTripFuzz, PrintParsePrintIsFixpoint) {
  // Cycle through the fuzz driver's corpus shapes so tiny programs (empty
  // bodies, zero-arg scalls) and call-/field-heavy ones are all covered.
  uint64_t Seed = GetParam();
  FuzzOptions Shape;
  switch (Seed % 4) {
  case 0:
    break;
  case 1:
    Shape.Types = 3;
    Shape.Fields = 2;
    Shape.Methods = 5;
    Shape.MaxInstrPerMethod = 4;
    Shape.MaxLocals = 3;
    break;
  case 2:
    Shape.Methods = 20;
    Shape.MaxInstrPerMethod = 6;
    break;
  case 3:
    Shape.Fields = 10;
    Shape.MaxInstrPerMethod = 12;
    break;
  }
  auto P = fuzzProgram(Seed, Shape);
  std::string Printed = printProgram(*P);
  ParseResult R = parseProgram(Printed);
  ASSERT_TRUE(R.ok()) << (R.Errors.empty() ? "" : R.Errors[0]);
  EXPECT_EQ(printProgram(*R.Prog), Printed);

  // Structural isomorphism: entity and instruction counts survive.
  EXPECT_EQ(R.Prog->numMethods(), P->numMethods());
  EXPECT_EQ(R.Prog->numVars(), P->numVars());
  EXPECT_EQ(R.Prog->numHeaps(), P->numHeaps());
  EXPECT_EQ(R.Prog->numInvokes(), P->numInvokes());
  EXPECT_EQ(R.Prog->numCastSites(), P->numCastSites());
  EXPECT_EQ(R.Prog->numInstructions(), P->numInstructions());

  // Analysis equivalence under a representative policy (metrics are
  // invariant under the round trip's entity renumbering).
  auto Pol1 = createPolicy("S-2obj+H", *P);
  auto Pol2 = createPolicy("S-2obj+H", *R.Prog);
  Solver S1(*P, *Pol1), S2(*R.Prog, *Pol2);
  PrecisionMetrics M1 = computeMetrics(S1.run());
  PrecisionMetrics M2 = computeMetrics(S2.run());
  EXPECT_EQ(M1.CsVarPointsTo, M2.CsVarPointsTo);
  EXPECT_EQ(M1.CallGraphEdges, M2.CallGraphEdges);
  EXPECT_EQ(M1.MayFailCasts, M2.MayFailCasts);
  EXPECT_EQ(M1.FieldPointsTo, M2.FieldPointsTo);
  EXPECT_EQ(M1.ReachableMethods, M2.ReachableMethods);
}

// 200 fuzzed programs: the delta-debugging minimizer depends on
// print -> parse being lossless for anything the fuzzer (and hence the
// shrinker) can produce.
INSTANTIATE_TEST_SUITE_P(Sweep, RoundTripFuzz,
                         ::testing::Range<uint64_t>(1, 201));

// Round-trip audit: constructs the printer's known edge cases directly.
TEST(Printer, EmptyBodyAndZeroArgScallRoundTrip) {
  ProgramBuilder B;
  TypeId Root = B.addType("Root");
  MethodId Empty = B.addMethod(Root, "empty", 0, /*IsStatic=*/true);
  MethodId Main = B.addMethod(Root, "main", 0, /*IsStatic=*/true);
  B.addSCall(Main, Empty, {});              // scall, zero args, no ret
  VarId R0 = B.addLocal(Main, "r");
  B.addSCall(Main, Empty, {}, R0);          // scall, zero args, with ret
  B.addEntryPoint(Main);
  auto P = B.build();

  std::string Printed = printProgram(*P);
  ParseResult R = parseProgram(Printed);
  ASSERT_TRUE(R.ok()) << (R.Errors.empty() ? "" : R.Errors[0]);
  EXPECT_EQ(printProgram(*R.Prog), Printed);
  EXPECT_EQ(R.Prog->numInvokes(), 2u);
  EXPECT_EQ(R.Prog->method(findMethodByPath(*R.Prog, "Root::empty/0"))
                .Invokes.size(),
            0u);
}

TEST(Printer, ReservedVariableNamesAreUniquified) {
  // Locals that collide with the implicit names (this, p0) and with each
  // other after uniquification must still round-trip to an isomorphic
  // program — the printer renames, never escapes.
  ProgramBuilder B;
  TypeId Root = B.addType("Root");
  MethodId M = B.addMethod(Root, "m", 1, /*IsStatic=*/false);
  VarId FakeThis = B.addLocal(M, "this");
  VarId FakeP0 = B.addLocal(M, "p0");
  VarId Dollar = B.addLocal(M, "this$1"); // collides with the renamer's pick
  B.addAlloc(M, FakeThis, Root);
  B.addMove(M, FakeP0, FakeThis);
  B.addMove(M, Dollar, FakeP0);
  MethodId Main = B.addMethod(Root, "main", 0, /*IsStatic=*/true);
  VarId Recv = B.addLocal(Main, "recv");
  B.addAlloc(Main, Recv, Root);
  B.addVCall(Main, Recv, B.getSig("m", 1), {Recv});
  B.addEntryPoint(Main);
  auto P = B.build();

  std::string Printed = printProgram(*P);
  ParseResult R = parseProgram(Printed);
  ASSERT_TRUE(R.ok()) << (R.Errors.empty() ? "" : R.Errors[0]);
  EXPECT_EQ(printProgram(*R.Prog), Printed);
  EXPECT_EQ(R.Prog->numVars(), P->numVars());
  EXPECT_EQ(R.Prog->numInstructions(), P->numInstructions());

  auto Pol1 = createPolicy("insens", *P);
  auto Pol2 = createPolicy("insens", *R.Prog);
  Solver S1(*P, *Pol1), S2(*R.Prog, *Pol2);
  PrecisionMetrics M1 = computeMetrics(S1.run());
  PrecisionMetrics M2 = computeMetrics(S2.run());
  EXPECT_EQ(M1.CsVarPointsTo, M2.CsVarPointsTo);
  EXPECT_EQ(M1.ReachableMethods, M2.ReachableMethods);
}

TEST(Printer, BenchmarkProgramRoundTrips) {
  Benchmark Bench = buildBenchmark("luindex");
  std::string Printed = printProgram(*Bench.Prog);
  ParseResult R = parseProgram(Printed);
  ASSERT_TRUE(R.ok()) << (R.Errors.empty() ? "" : R.Errors[0]);
  EXPECT_EQ(R.Prog->numMethods(), Bench.Prog->numMethods());
  EXPECT_EQ(R.Prog->numInstructions(), Bench.Prog->numInstructions());
  EXPECT_EQ(printProgram(*R.Prog), Printed);
}

TEST(Lookup, FindMethodAndVarByPath) {
  ParseResult R = parseProgram(HelloProgram);
  ASSERT_TRUE(R.ok());
  EXPECT_TRUE(findMethodByPath(*R.Prog, "Box::get/0").isValid());
  EXPECT_TRUE(findMethodByPath(*R.Prog, "App::main/0").isValid());
  EXPECT_FALSE(findMethodByPath(*R.Prog, "Box::nope/0").isValid());
  EXPECT_TRUE(findVarByPath(*R.Prog, "App::main/0::x").isValid());
  EXPECT_FALSE(findVarByPath(*R.Prog, "App::main/0::nope").isValid());
}

} // namespace
