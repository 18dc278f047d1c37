//===- tests/exceptions_test.cpp - Exception analysis behaviour -----------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//

#include "context/PolicyRegistry.h"
#include "ir/Program.h"
#include "ir/ProgramBuilder.h"
#include "pta/AnalysisResult.h"
#include "pta/Solver.h"
#include "pta/provenance/Provenance.h"
#include "ptaref/Validate.h"
#include "support/Hashing.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

namespace {

using namespace pt;

AnalysisResult analyze(const Program &P, ContextPolicy &Policy) {
  Solver S(P, Policy);
  return S.run();
}

/// Shared skeleton: Throwable <- ExcA, ExcB.
struct ExcFixture : public ::testing::Test {
  void SetUp() override {
    Object = B.addType("Object");
    Throwable = B.addType("Throwable", Object);
    ExcA = B.addType("ExcA", Throwable);
    ExcB = B.addType("ExcB", Throwable);
  }

  ProgramBuilder B;
  TypeId Object, Throwable, ExcA, ExcB;
};

TEST_F(ExcFixture, LocalHandlerCatchesOwnThrow) {
  MethodId Main = B.addMethod(Object, "main", 0, true);
  VarId Ex = B.addLocal(Main, "ex");
  HeapId H = B.addAlloc(Main, Ex, ExcA);
  B.addThrow(Main, Ex);
  VarId HV = B.addHandler(Main, Throwable, "caught");
  B.addEntryPoint(Main);
  auto P = B.build();

  auto Policy = createPolicy("insens", *P);
  AnalysisResult R = analyze(*P, *Policy);
  EXPECT_EQ(R.pointsTo(HV), std::vector<HeapId>{H});
  EXPECT_TRUE(R.uncaughtExceptions().empty());
  EXPECT_EQ(R.numThrowFacts(), 0u);
}

TEST_F(ExcFixture, TypeMismatchedHandlerDoesNotCatch) {
  MethodId Main = B.addMethod(Object, "main", 0, true);
  VarId Ex = B.addLocal(Main, "ex");
  HeapId H = B.addAlloc(Main, Ex, ExcA);
  B.addThrow(Main, Ex);
  VarId HV = B.addHandler(Main, ExcB, "caught");
  B.addEntryPoint(Main);
  auto P = B.build();

  auto Policy = createPolicy("insens", *P);
  AnalysisResult R = analyze(*P, *Policy);
  EXPECT_TRUE(R.pointsTo(HV).empty());
  EXPECT_EQ(R.uncaughtExceptions(), std::vector<HeapId>{H});
}

TEST_F(ExcFixture, EscalationThroughCallChain) {
  // deep() throws; mid() has no handler; main catches.
  MethodId Deep = B.addMethod(Object, "deep", 0, true);
  VarId Ex = B.addLocal(Deep, "ex");
  HeapId H = B.addAlloc(Deep, Ex, ExcA);
  B.addThrow(Deep, Ex);

  MethodId Mid = B.addMethod(Object, "mid", 0, true);
  B.addSCall(Mid, Deep, {});

  MethodId Main = B.addMethod(Object, "main", 0, true);
  B.addSCall(Main, Mid, {});
  VarId HV = B.addHandler(Main, Throwable, "caught");
  B.addEntryPoint(Main);
  auto P = B.build();

  for (const std::string &Name :
       {std::string("insens"), std::string("1call"), std::string("2obj+H"),
        std::string("S-2obj+H")}) {
    auto Policy = createPolicy(Name, *P);
    AnalysisResult R = analyze(*P, *Policy);
    EXPECT_EQ(R.pointsTo(HV), std::vector<HeapId>{H}) << Name;
    EXPECT_TRUE(R.uncaughtExceptions().empty()) << Name;
    // The exception escapes deep and mid but not main.
    EXPECT_GE(R.numThrowFacts(), 2u) << Name;
  }
}

TEST_F(ExcFixture, MidLevelHandlerStopsEscalation) {
  MethodId Deep = B.addMethod(Object, "deep", 0, true);
  VarId Ex = B.addLocal(Deep, "ex");
  HeapId H = B.addAlloc(Deep, Ex, ExcA);
  B.addThrow(Deep, Ex);

  MethodId Mid = B.addMethod(Object, "mid", 0, true);
  B.addSCall(Mid, Deep, {});
  VarId MidHV = B.addHandler(Mid, ExcA, "mcaught");

  MethodId Main = B.addMethod(Object, "main", 0, true);
  B.addSCall(Main, Mid, {});
  VarId MainHV = B.addHandler(Main, Throwable, "caught");
  B.addEntryPoint(Main);
  auto P = B.build();

  auto Policy = createPolicy("insens", *P);
  AnalysisResult R = analyze(*P, *Policy);
  EXPECT_EQ(R.pointsTo(MidHV), std::vector<HeapId>{H});
  EXPECT_TRUE(R.pointsTo(MainHV).empty());
}

TEST_F(ExcFixture, TypeRoutedEscalation) {
  // deep throws ExcA and ExcB; mid catches only ExcA; main gets ExcB.
  MethodId Deep = B.addMethod(Object, "deep", 0, true);
  VarId E1 = B.addLocal(Deep, "e1");
  VarId E2 = B.addLocal(Deep, "e2");
  HeapId HA = B.addAlloc(Deep, E1, ExcA);
  HeapId HB = B.addAlloc(Deep, E2, ExcB);
  B.addThrow(Deep, E1);
  B.addThrow(Deep, E2);

  MethodId Mid = B.addMethod(Object, "mid", 0, true);
  B.addSCall(Mid, Deep, {});
  VarId MidHV = B.addHandler(Mid, ExcA, "ma");

  MethodId Main = B.addMethod(Object, "main", 0, true);
  B.addSCall(Main, Mid, {});
  VarId MainHV = B.addHandler(Main, ExcB, "mb");
  B.addEntryPoint(Main);
  auto P = B.build();

  auto Policy = createPolicy("insens", *P);
  AnalysisResult R = analyze(*P, *Policy);
  EXPECT_EQ(R.pointsTo(MidHV), std::vector<HeapId>{HA});
  EXPECT_EQ(R.pointsTo(MainHV), std::vector<HeapId>{HB});
  EXPECT_TRUE(R.uncaughtExceptions().empty());
}

TEST_F(ExcFixture, MultipleMatchingHandlersAllBind) {
  // Block-insensitive model: both matching handlers observe the object.
  MethodId Main = B.addMethod(Object, "main", 0, true);
  VarId Ex = B.addLocal(Main, "ex");
  HeapId H = B.addAlloc(Main, Ex, ExcA);
  B.addThrow(Main, Ex);
  VarId H1 = B.addHandler(Main, ExcA, "h1");
  VarId H2 = B.addHandler(Main, Throwable, "h2");
  B.addEntryPoint(Main);
  auto P = B.build();

  auto Policy = createPolicy("insens", *P);
  AnalysisResult R = analyze(*P, *Policy);
  EXPECT_EQ(R.pointsTo(H1), std::vector<HeapId>{H});
  EXPECT_EQ(R.pointsTo(H2), std::vector<HeapId>{H});
}

TEST_F(ExcFixture, ContextSensitiveExceptionSeparation) {
  // A virtual method throws whatever its receiver's field holds; two
  // receivers carry different exception types.  2obj+H keeps the escaping
  // sets apart per context; insens merges them.
  TypeId Thrower = B.addType("Thrower", Object);
  FieldId Fld = B.addField(Thrower, "payload");
  SigId SigGo = B.getSig("go", 0);
  MethodId Go = B.addMethod(Thrower, "go", 0, false);
  VarId GV = B.addLocal(Go, "gv");
  B.addLoad(Go, GV, B.thisVar(Go), Fld);
  B.addThrow(Go, GV);

  MethodId Main = B.addMethod(Object, "main", 0, true);
  VarId T1 = B.addLocal(Main, "t1");
  VarId T2 = B.addLocal(Main, "t2");
  VarId EA = B.addLocal(Main, "ea");
  VarId EB = B.addLocal(Main, "eb");
  B.addAlloc(Main, T1, Thrower);
  B.addAlloc(Main, T2, Thrower);
  HeapId HA = B.addAlloc(Main, EA, ExcA);
  HeapId HB = B.addAlloc(Main, EB, ExcB);
  B.addStore(Main, T1, Fld, EA);
  B.addStore(Main, T2, Fld, EB);
  B.addVCall(Main, T1, SigGo, {});
  B.addVCall(Main, T2, SigGo, {});
  B.addEntryPoint(Main);
  auto P = B.build();

  // Everything escapes main (no handler): both sites uncaught.
  auto Precise = createPolicy("2obj+H", *P);
  AnalysisResult RP = analyze(*P, *Precise);
  EXPECT_EQ(RP.uncaughtExceptions(), (std::vector<HeapId>{HA, HB}));

  // Context-sensitive separation: go's throw slot holds one object per
  // receiver context under 2obj+H, two under insens.
  size_t MaxPerCtx = 0;
  for (const auto &E : RP.ThrowFacts)
    if (P->method(E.Meth).Owner == Thrower)
      MaxPerCtx = std::max(MaxPerCtx, E.Objs.size());
  EXPECT_EQ(MaxPerCtx, 1u);

  auto Coarse = createPolicy("insens", *P);
  AnalysisResult RC = analyze(*P, *Coarse);
  MaxPerCtx = 0;
  for (const auto &E : RC.ThrowFacts)
    if (P->method(E.Meth).Owner == Thrower)
      MaxPerCtx = std::max(MaxPerCtx, E.Objs.size());
  EXPECT_EQ(MaxPerCtx, 2u);
}

TEST_F(ExcFixture, RecursiveThrowTerminates) {
  MethodId Rec = B.addMethod(Object, "rec", 0, true);
  VarId Ex = B.addLocal(Rec, "ex");
  B.addAlloc(Rec, Ex, ExcA);
  B.addThrow(Rec, Ex);
  B.addSCall(Rec, Rec, {});
  MethodId Main = B.addMethod(Object, "main", 0, true);
  B.addSCall(Main, Rec, {});
  B.addEntryPoint(Main);
  auto P = B.build();

  for (const std::string &Name : allPolicyNames()) {
    auto Policy = createPolicy(Name, *P);
    AnalysisResult R = analyze(*P, *Policy);
    EXPECT_FALSE(R.Aborted) << Name;
    EXPECT_EQ(R.uncaughtExceptions().size(), 1u) << Name;
  }
}

TEST_F(ExcFixture, CallEdgesWaitingForTheFirstEscapeLinkInOrder) {
  // thrower(p) throws its argument.  a() calls it twice and catches ExcA;
  // b() calls it once and catches nothing; main catches everything.  All
  // three call edges reach thrower before p's facts leave the worklist,
  // so they wait on the frame until the first object escapes it.
  MethodId Thrower = B.addMethod(Object, "thrower", 1, true);
  B.addThrow(Thrower, B.formal(Thrower, 0));

  MethodId A = B.addMethod(Object, "a", 0, true);
  VarId EA = B.addLocal(A, "ea");
  HeapId HA = B.addAlloc(A, EA, ExcA);
  InvokeId A1 = B.addSCall(A, Thrower, {EA});
  InvokeId A2 = B.addSCall(A, Thrower, {EA});
  VarId AH = B.addHandler(A, ExcA, "acaught");

  MethodId Bm = B.addMethod(Object, "b", 0, true);
  VarId EB = B.addLocal(Bm, "eb");
  HeapId HB = B.addAlloc(Bm, EB, ExcB);
  InvokeId B1 = B.addSCall(Bm, Thrower, {EB});

  MethodId Main = B.addMethod(Object, "main", 0, true);
  B.addSCall(Main, A, {});
  B.addSCall(Main, Bm, {});
  VarId MainH = B.addHandler(Main, Throwable, "caught");
  B.addEntryPoint(Main);
  auto P = B.build();

  auto Policy = createPolicy("insens", *P);
  prov::Recorder Rec;
  SolverOptions Opts;
  Opts.Prov = &Rec;
  AnalysisResult R = solveProgram(*P, *Policy, Opts);
  ASSERT_FALSE(R.Aborted);

  // Catch bindings: a() sees both objects escape thrower and keeps ExcA;
  // ExcB leaves a(), both leave b(), and main catches them.
  EXPECT_EQ(R.pointsTo(AH), std::vector<HeapId>{HA});
  EXPECT_EQ(R.pointsTo(MainH), (std::vector<HeapId>{HA, HB}));
  EXPECT_TRUE(R.uncaughtExceptions().empty());

  // Method-throws facts come out in the order the frames first met a call
  // edge, not the order their slots were created (b's before a's).
  std::vector<MethodId> Order;
  for (const auto &E : R.ThrowFacts)
    Order.push_back(E.Meth);
  EXPECT_EQ(Order, (std::vector<MethodId>{Thrower, A, Bm}));

  // The arena stays empty when the provenance hooks are compiled out.
  if (!HYBRIDPT_PROVENANCE_ENABLED)
    return;
  // A slot is created right before its first fact: b's came first.
  std::map<uint32_t, uint32_t> EdgeFactOf;  // invoke -> call-edge fact
  std::map<uint32_t, uint32_t> FirstThrown; // method -> first throw fact
  for (uint32_t Id = 0; Id < Rec.numFacts(); ++Id) {
    prov::Fact F = Rec.fact(Id);
    if (F.Kind == prov::FactKind::CallEdge)
      EdgeFactOf[unpackHi(F.A)] = Id;
    if (F.Kind == prov::FactKind::ThrowPointsTo)
      FirstThrown.emplace(unpackHi(F.A), Id);
  }
  EXPECT_LT(FirstThrown.at(Bm.index()), FirstThrown.at(A.index()));

  // Links: one per caller frame, justified by its first call edge.  a()'s
  // second call edge is a duplicate link and never justifies anything.
  std::set<uint32_t> EscalationEdges;
  for (size_t I = 0; I < Rec.numSteps(); ++I) {
    prov::Step S = Rec.stepAt(I);
    if (S.rule() == Rule::ThrowEscalate || S.rule() == Rule::CatchEscalate)
      EscalationEdges.insert(S.Prem1);
  }
  EXPECT_TRUE(EscalationEdges.count(EdgeFactOf.at(A1.index())));
  EXPECT_TRUE(EscalationEdges.count(EdgeFactOf.at(B1.index())));
  EXPECT_FALSE(EscalationEdges.count(EdgeFactOf.at(A2.index())));

  // Every derivation replays.
  prov::ValidationResult VR =
      prov::validateSampledSteps(Rec, R, *Policy, /*Stride=*/1);
  EXPECT_TRUE(VR.Ok) << VR.Error;
  EXPECT_EQ(VR.CheckedSteps, Rec.numSteps());
}

} // namespace
