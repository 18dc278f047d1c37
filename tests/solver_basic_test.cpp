//===- tests/solver_basic_test.cpp - Core solver behaviour ----------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
// Exercises the nine analysis rules on small hand-built programs, including
// the paper's Section 1 motivating example, and checks that the policies
// produce the expected context-sensitivity distinctions.
//
//===----------------------------------------------------------------------===//

#include "context/PolicyRegistry.h"
#include "ir/Program.h"
#include "ir/ProgramBuilder.h"
#include "pta/AnalysisResult.h"
#include "pta/Clients.h"
#include "pta/Metrics.h"
#include "pta/Solver.h"

#include <gtest/gtest.h>

namespace {

using namespace pt;

/// Runs policy \p Name over \p Prog and returns the result.
AnalysisResult analyze(const Program &Prog, ContextPolicy &Policy,
                       SolverOptions Opts = {}) {
  Solver S(Prog, Policy, Opts);
  return S.run();
}

/// "<Prefix><I>", built by appending: GCC 12 reports a false -Wrestrict
/// on `"lit" + std::to_string(I)` once it is inlined.
std::string numbered(const char *Prefix, int I) {
  std::string Name = Prefix;
  Name += std::to_string(I);
  return Name;
}

/// All context-sensitive facts of \p V, as (ctx, objs.size()) pairs.
std::vector<size_t> factSizesOf(const AnalysisResult &R, VarId V) {
  std::vector<size_t> Sizes;
  for (const auto &E : R.VarFacts)
    if (E.Var == V)
      Sizes.push_back(E.Objs.size());
  return Sizes;
}

TEST(SolverBasic, AllocAndMove) {
  ProgramBuilder B;
  TypeId Object = B.addType("Object");
  TypeId A = B.addType("A", Object);
  MethodId Main = B.addMethod(Object, "main", 0, true);
  VarId X = B.addLocal(Main, "x");
  VarId Y = B.addLocal(Main, "y");
  HeapId H = B.addAlloc(Main, X, A);
  B.addMove(Main, Y, X);
  B.addEntryPoint(Main);
  auto P = B.build();

  auto Policy = createPolicy("insens", *P);
  AnalysisResult R = analyze(*P, *Policy);
  EXPECT_FALSE(R.Aborted);
  EXPECT_EQ(R.pointsTo(X), std::vector<HeapId>{H});
  EXPECT_EQ(R.pointsTo(Y), std::vector<HeapId>{H});
}

TEST(SolverBasic, MoveChainPropagates) {
  ProgramBuilder B;
  TypeId Object = B.addType("Object");
  TypeId A = B.addType("A", Object);
  MethodId Main = B.addMethod(Object, "main", 0, true);
  std::vector<VarId> Vars;
  for (int I = 0; I < 10; ++I)
    Vars.push_back(B.addLocal(Main, numbered("v", I)));
  HeapId H = B.addAlloc(Main, Vars[0], A);
  // Emit moves in reverse order: flow-insensitivity means order is moot.
  for (int I = 9; I > 0; --I)
    B.addMove(Main, Vars[I], Vars[I - 1]);
  B.addEntryPoint(Main);
  auto P = B.build();

  auto Policy = createPolicy("insens", *P);
  AnalysisResult R = analyze(*P, *Policy);
  for (VarId V : Vars)
    EXPECT_EQ(R.pointsTo(V), std::vector<HeapId>{H});
}

TEST(SolverBasic, FieldStoreLoad) {
  ProgramBuilder B;
  TypeId Object = B.addType("Object");
  TypeId Box = B.addType("Box", Object);
  TypeId A = B.addType("A", Object);
  FieldId F = B.addField(Box, "f");
  MethodId Main = B.addMethod(Object, "main", 0, true);
  VarId Bx = B.addLocal(Main, "b");
  VarId V = B.addLocal(Main, "v");
  VarId W = B.addLocal(Main, "w");
  B.addAlloc(Main, Bx, Box);
  HeapId HV = B.addAlloc(Main, V, A);
  B.addStore(Main, Bx, F, V);
  B.addLoad(Main, W, Bx, F);
  B.addEntryPoint(Main);
  auto P = B.build();

  auto Policy = createPolicy("insens", *P);
  AnalysisResult R = analyze(*P, *Policy);
  EXPECT_EQ(R.pointsTo(W), std::vector<HeapId>{HV});
  EXPECT_EQ(R.numFieldPointsTo(), 1u);
}

TEST(SolverBasic, FieldAliasing) {
  // b2 = b1; b1.f = v; w = b2.f  ==> w sees v through the alias.
  ProgramBuilder B;
  TypeId Object = B.addType("Object");
  TypeId Box = B.addType("Box", Object);
  TypeId A = B.addType("A", Object);
  FieldId F = B.addField(Box, "f");
  MethodId Main = B.addMethod(Object, "main", 0, true);
  VarId B1 = B.addLocal(Main, "b1");
  VarId B2 = B.addLocal(Main, "b2");
  VarId V = B.addLocal(Main, "v");
  VarId W = B.addLocal(Main, "w");
  B.addAlloc(Main, B1, Box);
  B.addMove(Main, B2, B1);
  HeapId HV = B.addAlloc(Main, V, A);
  B.addStore(Main, B1, F, V);
  B.addLoad(Main, W, B2, F);
  B.addEntryPoint(Main);
  auto P = B.build();

  auto Policy = createPolicy("insens", *P);
  AnalysisResult R = analyze(*P, *Policy);
  EXPECT_EQ(R.pointsTo(W), std::vector<HeapId>{HV});
}

TEST(SolverBasic, DistinctObjectsDistinctFields) {
  // Two separate boxes do not leak into each other (field-sensitivity is
  // per abstract object).
  ProgramBuilder B;
  TypeId Object = B.addType("Object");
  TypeId Box = B.addType("Box", Object);
  TypeId A = B.addType("A", Object);
  FieldId F = B.addField(Box, "f");
  MethodId Main = B.addMethod(Object, "main", 0, true);
  VarId B1 = B.addLocal(Main, "b1");
  VarId B2 = B.addLocal(Main, "b2");
  VarId V1 = B.addLocal(Main, "v1");
  VarId V2 = B.addLocal(Main, "v2");
  VarId W1 = B.addLocal(Main, "w1");
  VarId W2 = B.addLocal(Main, "w2");
  B.addAlloc(Main, B1, Box);
  B.addAlloc(Main, B2, Box);
  HeapId H1 = B.addAlloc(Main, V1, A);
  HeapId H2 = B.addAlloc(Main, V2, A);
  B.addStore(Main, B1, F, V1);
  B.addStore(Main, B2, F, V2);
  B.addLoad(Main, W1, B1, F);
  B.addLoad(Main, W2, B2, F);
  B.addEntryPoint(Main);
  auto P = B.build();

  auto Policy = createPolicy("insens", *P);
  AnalysisResult R = analyze(*P, *Policy);
  EXPECT_EQ(R.pointsTo(W1), std::vector<HeapId>{H1});
  EXPECT_EQ(R.pointsTo(W2), std::vector<HeapId>{H2});
}

TEST(SolverBasic, VirtualDispatchSelectsOverride) {
  ProgramBuilder B;
  TypeId Object = B.addType("Object");
  TypeId A = B.addType("A", Object);
  TypeId Bt = B.addType("B", A);
  MethodId MA = B.addMethod(A, "m", 0, false);
  MethodId MB = B.addMethod(Bt, "m", 0, false);
  MethodId Main = B.addMethod(Object, "main", 0, true);
  VarId R0 = B.addLocal(Main, "r");
  B.addAlloc(Main, R0, Bt);
  SigId SigM = B.getSig("m", 0);
  InvokeId Inv = B.addVCall(Main, R0, SigM, {});
  B.addEntryPoint(Main);
  auto P = B.build();

  auto Policy = createPolicy("insens", *P);
  AnalysisResult R = analyze(*P, *Policy);
  EXPECT_EQ(R.callTargets(Inv), std::vector<MethodId>{MB});
  auto Reach = R.reachableMethods();
  EXPECT_TRUE(std::find(Reach.begin(), Reach.end(), MB) != Reach.end());
  EXPECT_TRUE(std::find(Reach.begin(), Reach.end(), MA) == Reach.end());
}

TEST(SolverBasic, PolymorphicReceiverFindsBothTargets) {
  ProgramBuilder B;
  TypeId Object = B.addType("Object");
  TypeId A = B.addType("A", Object);
  TypeId Bt = B.addType("B", A);
  MethodId MA = B.addMethod(A, "m", 0, false);
  MethodId MB = B.addMethod(Bt, "m", 0, false);
  MethodId Main = B.addMethod(Object, "main", 0, true);
  VarId R0 = B.addLocal(Main, "r");
  B.addAlloc(Main, R0, A);
  B.addAlloc(Main, R0, Bt);
  SigId SigM = B.getSig("m", 0);
  InvokeId Inv = B.addVCall(Main, R0, SigM, {});
  B.addEntryPoint(Main);
  auto P = B.build();

  auto Policy = createPolicy("insens", *P);
  AnalysisResult R = analyze(*P, *Policy);
  EXPECT_EQ(R.callTargets(Inv), (std::vector<MethodId>{MA, MB}));

  PrecisionMetrics M = computeMetrics(R);
  EXPECT_EQ(M.PolyVCalls, 1u);
  EXPECT_EQ(M.ReachableVCalls, 1u);
}

TEST(SolverBasic, ThisBindingIsPerReceiver) {
  // Two receiver objects of the same type: under 2obj+H each `this`
  // context sees exactly its own receiver object.
  ProgramBuilder B;
  TypeId Object = B.addType("Object");
  TypeId A = B.addType("A", Object);
  MethodId MA = B.addMethod(A, "m", 0, false);
  MethodId Main = B.addMethod(Object, "main", 0, true);
  VarId R1 = B.addLocal(Main, "r1");
  VarId R2 = B.addLocal(Main, "r2");
  B.addAlloc(Main, R1, A);
  B.addAlloc(Main, R2, A);
  SigId SigM = B.getSig("m", 0);
  B.addVCall(Main, R1, SigM, {});
  B.addVCall(Main, R2, SigM, {});
  B.addEntryPoint(Main);
  auto P = B.build();

  VarId This = P->method(MA).This;

  auto Ctx2 = createPolicy("2obj+H", *P);
  AnalysisResult R = analyze(*P, *Ctx2);
  std::vector<size_t> Sizes = factSizesOf(R, This);
  ASSERT_EQ(Sizes.size(), 2u); // two contexts
  EXPECT_EQ(Sizes[0], 1u);     // each sees exactly one receiver
  EXPECT_EQ(Sizes[1], 1u);

  auto Ins = createPolicy("insens", *P);
  AnalysisResult RI = analyze(*P, *Ins);
  std::vector<size_t> SizesI = factSizesOf(RI, This);
  ASSERT_EQ(SizesI.size(), 1u); // single context
  EXPECT_EQ(SizesI[0], 2u);     // conflates both receivers
}

TEST(SolverBasic, MotivatingExampleCallSiteVsObjectSensitivity) {
  // Paper Section 1: c1.foo(obj1); c2.foo(obj2) with c1 == c2 == new C.
  // 1call distinguishes the two call sites; 1obj cannot (same receiver
  // allocation site); insens conflates everything.
  ProgramBuilder B;
  TypeId Object = B.addType("Object");
  TypeId C = B.addType("C", Object);
  TypeId T1 = B.addType("T1", Object);
  TypeId T2 = B.addType("T2", Object);
  MethodId Foo = B.addMethod(C, "foo", 1, false);
  MethodId Main = B.addMethod(Object, "main", 0, true);
  VarId Cv = B.addLocal(Main, "c");
  VarId O1 = B.addLocal(Main, "obj1");
  VarId O2 = B.addLocal(Main, "obj2");
  B.addAlloc(Main, Cv, C);
  HeapId H1 = B.addAlloc(Main, O1, T1);
  HeapId H2 = B.addAlloc(Main, O2, T2);
  SigId SigFoo = B.getSig("foo", 1);
  B.addVCall(Main, Cv, SigFoo, {O1});
  B.addVCall(Main, Cv, SigFoo, {O2});
  B.addEntryPoint(Main);
  auto P = B.build();

  VarId FooArg = P->method(Foo).Formals[0];

  // insens: one context, both objects.
  {
    auto Policy = createPolicy("insens", *P);
    AnalysisResult R = analyze(*P, *Policy);
    EXPECT_EQ(R.pointsTo(FooArg), (std::vector<HeapId>{H1, H2}));
    EXPECT_EQ(factSizesOf(R, FooArg), std::vector<size_t>{2});
  }
  // 1call: two contexts, one object each.
  {
    auto Policy = createPolicy("1call", *P);
    AnalysisResult R = analyze(*P, *Policy);
    EXPECT_EQ(R.pointsTo(FooArg), (std::vector<HeapId>{H1, H2}));
    EXPECT_EQ(factSizesOf(R, FooArg), (std::vector<size_t>{1, 1}));
  }
  // 1obj: one context (same receiver allocation site), both objects.
  {
    auto Policy = createPolicy("1obj", *P);
    AnalysisResult R = analyze(*P, *Policy);
    EXPECT_EQ(factSizesOf(R, FooArg), std::vector<size_t>{2});
  }
  // U-1obj: call-site element recovers the distinction.
  {
    auto Policy = createPolicy("U-1obj", *P);
    AnalysisResult R = analyze(*P, *Policy);
    EXPECT_EQ(factSizesOf(R, FooArg), (std::vector<size_t>{1, 1}));
  }
}

TEST(SolverBasic, StaticFactoryImprecisionFixedBySelectiveHybrids) {
  // A static factory method wrapping an allocation, called from two sites
  // with different downstream use.  1obj merges both calls (MERGESTATIC
  // copies the context); SA/SB-1obj separate them by invocation site.
  ProgramBuilder B;
  TypeId Object = B.addType("Object");
  TypeId A = B.addType("A", Object);
  MethodId Make = B.addMethod(Object, "make", 0, true);
  VarId MV = B.addLocal(Make, "v");
  B.addAlloc(Make, MV, A);
  B.setReturn(Make, MV);

  MethodId Main = B.addMethod(Object, "main", 0, true);
  VarId X = B.addLocal(Main, "x");
  VarId Y = B.addLocal(Main, "y");
  B.addSCall(Main, Make, {}, X);
  B.addSCall(Main, Make, {}, Y);
  B.addEntryPoint(Main);
  auto P = B.build();

  // With 1obj both calls run in the same context, so x and y each get the
  // single abstract object (no *loss* here, but the factory body is
  // analyzed once — check context count).
  {
    auto Policy = createPolicy("1obj", *P);
    AnalysisResult R = analyze(*P, *Policy);
    size_t MakeCtxs = 0;
    for (const auto &[M, Ctx] : R.Reachable)
      MakeCtxs += M == Make;
    EXPECT_EQ(MakeCtxs, 1u);
  }
  // SA-1obj: the two invocation sites give two contexts for make().
  {
    auto Policy = createPolicy("SA-1obj", *P);
    AnalysisResult R = analyze(*P, *Policy);
    size_t MakeCtxs = 0;
    for (const auto &[M, Ctx] : R.Reachable)
      MakeCtxs += M == Make;
    EXPECT_EQ(MakeCtxs, 2u);
  }
}

TEST(SolverBasic, StaticCallArgumentAndReturnWiring) {
  ProgramBuilder B;
  TypeId Object = B.addType("Object");
  TypeId A = B.addType("A", Object);
  MethodId Ident = B.addMethod(Object, "ident", 1, true);
  B.setReturn(Ident, B.formal(Ident, 0));
  MethodId Main = B.addMethod(Object, "main", 0, true);
  VarId X = B.addLocal(Main, "x");
  VarId Y = B.addLocal(Main, "y");
  HeapId H = B.addAlloc(Main, X, A);
  B.addSCall(Main, Ident, {X}, Y);
  B.addEntryPoint(Main);
  auto P = B.build();

  auto Policy = createPolicy("1call", *P);
  AnalysisResult R = analyze(*P, *Policy);
  EXPECT_EQ(R.pointsTo(Y), std::vector<HeapId>{H});
}

TEST(SolverBasic, VirtualCallArgumentAndReturnWiring) {
  ProgramBuilder B;
  TypeId Object = B.addType("Object");
  TypeId A = B.addType("A", Object);
  MethodId Echo = B.addMethod(A, "echo", 1, false);
  B.setReturn(Echo, B.formal(Echo, 0));
  MethodId Main = B.addMethod(Object, "main", 0, true);
  VarId Recv = B.addLocal(Main, "recv");
  VarId X = B.addLocal(Main, "x");
  VarId Y = B.addLocal(Main, "y");
  B.addAlloc(Main, Recv, A);
  HeapId H = B.addAlloc(Main, X, A);
  B.addVCall(Main, Recv, B.getSig("echo", 1), {X}, Y);
  B.addEntryPoint(Main);
  auto P = B.build();

  auto Policy = createPolicy("2obj+H", *P);
  AnalysisResult R = analyze(*P, *Policy);
  EXPECT_EQ(R.pointsTo(Y), std::vector<HeapId>{H});
}

TEST(SolverBasic, CastFiltersIncompatibleObjects) {
  ProgramBuilder B;
  TypeId Object = B.addType("Object");
  TypeId A = B.addType("A", Object);
  TypeId Bt = B.addType("B", A);
  TypeId D = B.addType("D", Object);
  MethodId Main = B.addMethod(Object, "main", 0, true);
  VarId X = B.addLocal(Main, "x");
  VarId Y = B.addLocal(Main, "y");
  HeapId HB = B.addAlloc(Main, X, Bt);
  B.addAlloc(Main, X, D);
  uint32_t Site = B.addCast(Main, Y, X, A);
  B.addEntryPoint(Main);
  auto P = B.build();

  auto Policy = createPolicy("insens", *P);
  AnalysisResult R = analyze(*P, *Policy);
  // Only the B object passes the (A) cast.
  EXPECT_EQ(R.pointsTo(Y), std::vector<HeapId>{HB});
  // And the site is flagged may-fail because x also holds a D.
  EXPECT_TRUE(R.mayFailCast(Site));

  PrecisionMetrics M = computeMetrics(R);
  EXPECT_EQ(M.MayFailCasts, 1u);
  EXPECT_EQ(M.ReachableCasts, 1u);
}

TEST(SolverBasic, UpcastIsAlwaysSafe) {
  ProgramBuilder B;
  TypeId Object = B.addType("Object");
  TypeId A = B.addType("A", Object);
  TypeId Bt = B.addType("B", A);
  MethodId Main = B.addMethod(Object, "main", 0, true);
  VarId X = B.addLocal(Main, "x");
  VarId Y = B.addLocal(Main, "y");
  HeapId H = B.addAlloc(Main, X, Bt);
  uint32_t Site = B.addCast(Main, Y, X, Object);
  B.addEntryPoint(Main);
  auto P = B.build();

  auto Policy = createPolicy("insens", *P);
  AnalysisResult R = analyze(*P, *Policy);
  EXPECT_EQ(R.pointsTo(Y), std::vector<HeapId>{H});
  EXPECT_FALSE(R.mayFailCast(Site));
}

TEST(SolverBasic, RecursionTerminates) {
  // f(x) { y = f(x); return y; } — direct recursion through a static call.
  ProgramBuilder B;
  TypeId Object = B.addType("Object");
  TypeId A = B.addType("A", Object);
  MethodId F = B.addMethod(Object, "f", 1, true);
  VarId FY = B.addLocal(F, "y");
  B.addSCall(F, F, {B.formal(F, 0)}, FY);
  B.setReturn(F, FY);
  MethodId Main = B.addMethod(Object, "main", 0, true);
  VarId X = B.addLocal(Main, "x");
  VarId Z = B.addLocal(Main, "z");
  B.addAlloc(Main, X, A);
  B.addSCall(Main, F, {X}, Z);
  B.addEntryPoint(Main);
  auto P = B.build();

  for (const std::string &Name : allPolicyNames()) {
    auto Policy = createPolicy(Name, *P);
    AnalysisResult R = analyze(*P, *Policy);
    EXPECT_FALSE(R.Aborted) << Name;
  }
}

TEST(SolverBasic, MutualRecursionThroughVirtualCalls) {
  ProgramBuilder B;
  TypeId Object = B.addType("Object");
  TypeId A = B.addType("A", Object);
  MethodId Ping = B.addMethod(A, "ping", 0, false);
  MethodId Pong = B.addMethod(A, "pong", 0, false);
  B.addVCall(Ping, B.thisVar(Ping), B.getSig("pong", 0), {});
  B.addVCall(Pong, B.thisVar(Pong), B.getSig("ping", 0), {});
  MethodId Main = B.addMethod(Object, "main", 0, true);
  VarId R0 = B.addLocal(Main, "r");
  B.addAlloc(Main, R0, A);
  B.addVCall(Main, R0, B.getSig("ping", 0), {});
  B.addEntryPoint(Main);
  auto P = B.build();

  for (const std::string &Name : allPolicyNames()) {
    auto Policy = createPolicy(Name, *P);
    AnalysisResult R = analyze(*P, *Policy);
    EXPECT_FALSE(R.Aborted) << Name;
    auto Reach = R.reachableMethods();
    EXPECT_TRUE(std::find(Reach.begin(), Reach.end(), Pong) != Reach.end())
        << Name;
  }
}

TEST(SolverBasic, UnreachableMethodsHaveNoFacts) {
  ProgramBuilder B;
  TypeId Object = B.addType("Object");
  TypeId A = B.addType("A", Object);
  MethodId Dead = B.addMethod(Object, "dead", 0, true);
  VarId DV = B.addLocal(Dead, "dv");
  B.addAlloc(Dead, DV, A);
  MethodId Main = B.addMethod(Object, "main", 0, true);
  B.addEntryPoint(Main);
  auto P = B.build();

  auto Policy = createPolicy("insens", *P);
  AnalysisResult R = analyze(*P, *Policy);
  EXPECT_TRUE(R.pointsTo(DV).empty());
  auto Reach = R.reachableMethods();
  EXPECT_EQ(Reach.size(), 1u);
  EXPECT_EQ(Reach[0], Main);
}

TEST(SolverBasic, NoTargetVirtualCallIsDead) {
  // Receiver type has no method of the requested signature: the call
  // resolves nowhere (concrete execution would throw).
  ProgramBuilder B;
  TypeId Object = B.addType("Object");
  TypeId A = B.addType("A", Object);
  MethodId Main = B.addMethod(Object, "main", 0, true);
  VarId R0 = B.addLocal(Main, "r");
  B.addAlloc(Main, R0, A);
  InvokeId Inv = B.addVCall(Main, R0, B.getSig("nosuch", 0), {});
  B.addEntryPoint(Main);
  auto P = B.build();

  auto Policy = createPolicy("insens", *P);
  AnalysisResult R = analyze(*P, *Policy);
  EXPECT_TRUE(R.callTargets(Inv).empty());
  EXPECT_FALSE(R.Aborted);

  auto Sites = devirtualizeCalls(R);
  ASSERT_EQ(Sites.size(), 1u);
  EXPECT_EQ(Sites[0].Verdict, DevirtVerdict::Dead);
}

TEST(SolverBasic, FactBudgetAborts) {
  ProgramBuilder B;
  TypeId Object = B.addType("Object");
  TypeId A = B.addType("A", Object);
  MethodId Main = B.addMethod(Object, "main", 0, true);
  std::vector<VarId> Vars;
  for (int I = 0; I < 20; ++I)
    Vars.push_back(B.addLocal(Main, numbered("v", I)));
  B.addAlloc(Main, Vars[0], A);
  for (int I = 1; I < 20; ++I)
    B.addMove(Main, Vars[I], Vars[I - 1]);
  B.addEntryPoint(Main);
  auto P = B.build();

  auto Policy = createPolicy("insens", *P);
  SolverOptions Opts;
  Opts.MaxFacts = 3;
  AnalysisResult R = analyze(*P, *Policy, Opts);
  EXPECT_TRUE(R.Aborted);
  EXPECT_LE(R.numCsVarPointsTo(), 6u); // bounded overshoot
}

TEST(SolverBasic, AbortedStaticCallCreatesNoCalleeNodes) {
  // The second allocation trips the fact budget, but the rest of main's
  // body is still instantiated: its static call is wired against an
  // aborted solver, so ensureReachable refuses the new callee frame and
  // wireCall must stop there, creating none of the callee's nodes.
  ProgramBuilder B;
  TypeId Object = B.addType("Object");
  TypeId A = B.addType("A", Object);
  MethodId Callee = B.addMethod(Object, "callee", 1, true);
  VarId Z = B.addLocal(Callee, "z");
  B.addAlloc(Callee, Z, A);
  MethodId Main = B.addMethod(Object, "main", 0, true);
  VarId X = B.addLocal(Main, "x");
  VarId Y = B.addLocal(Main, "y");
  B.addAlloc(Main, X, A);
  B.addAlloc(Main, Y, A);
  B.addSCall(Main, Callee, {X}, VarId());
  B.addEntryPoint(Main);
  auto P = B.build();

  auto Policy = createPolicy("1call", *P);
  SolverOptions Opts;
  Opts.MaxFacts = 1;
  AnalysisResult R = analyze(*P, *Policy, Opts);
  ASSERT_TRUE(R.Aborted);
  EXPECT_EQ(R.Reason, AbortReason::FactBudget);
  EXPECT_EQ(R.SolverNodes, 2u); // x and y only.
  EXPECT_EQ(R.Reachable.size(), 1u);
  EXPECT_EQ(R.pointsTo(X).size(), 1u);
  EXPECT_TRUE(R.pointsTo(Z).empty());

  auto Full = createPolicy("1call", *P);
  AnalysisResult Converged = analyze(*P, *Full);
  ASSERT_FALSE(Converged.Aborted);
  EXPECT_EQ(Converged.Reachable.size(), 2u);
  EXPECT_EQ(Converged.pointsTo(Z).size(), 1u);
}

TEST(SolverBasic, TimeBudgetAborts) {
  // A 1 ms wall-clock budget on a non-trivial program: the deadline path
  // must fire and mark the result aborted (the paper's dash entries).
  ProgramBuilder B;
  TypeId Object = B.addType("Object");
  TypeId A = B.addType("A", Object);
  FieldId F = B.addField(A, "f");
  MethodId Main = B.addMethod(Object, "main", 0, true);
  // A dense web: many vars, many allocs, all cross-connected via fields.
  std::vector<VarId> Vars;
  for (int I = 0; I < 60; ++I) {
    VarId V = B.addLocal(Main, numbered("v", I));
    B.addAlloc(Main, V, A);
    Vars.push_back(V);
  }
  for (int I = 0; I < 60; ++I)
    for (int J = 0; J < 60; J += 7) {
      B.addStore(Main, Vars[I], F, Vars[J]);
      B.addLoad(Main, Vars[J], Vars[I], F);
    }
  B.addEntryPoint(Main);
  auto P = B.build();

  auto Policy = createPolicy("insens", *P);
  SolverOptions Opts;
  Opts.TimeBudgetMs = 1;
  Solver S(*P, *Policy, Opts);
  AnalysisResult R = S.run();
  // Either it finished inside a millisecond (tiny machine variance) or it
  // aborted; both are acceptable, but the run must terminate promptly.
  SUCCEED();
  (void)R;
}

TEST(SolverBasic, MultipleEntryPoints) {
  ProgramBuilder B;
  TypeId Object = B.addType("Object");
  TypeId A = B.addType("A", Object);
  MethodId E1 = B.addMethod(Object, "entry1", 0, true);
  VarId X1 = B.addLocal(E1, "x1");
  HeapId H1 = B.addAlloc(E1, X1, A);
  MethodId E2 = B.addMethod(Object, "entry2", 0, true);
  VarId X2 = B.addLocal(E2, "x2");
  HeapId H2 = B.addAlloc(E2, X2, A);
  B.addEntryPoint(E1);
  B.addEntryPoint(E2);
  auto P = B.build();

  auto Policy = createPolicy("insens", *P);
  Solver S(*P, *Policy);
  AnalysisResult R = S.run();
  EXPECT_EQ(R.pointsTo(X1), std::vector<HeapId>{H1});
  EXPECT_EQ(R.pointsTo(X2), std::vector<HeapId>{H2});
  EXPECT_EQ(R.reachableMethods().size(), 2u);
}

TEST(SolverBasic, DevirtualizationClientClassifies) {
  ProgramBuilder B;
  TypeId Object = B.addType("Object");
  TypeId A = B.addType("A", Object);
  TypeId Bt = B.addType("B", A);
  MethodId MA = B.addMethod(A, "m", 0, false);
  B.addMethod(Bt, "m", 0, false);
  MethodId Main = B.addMethod(Object, "main", 0, true);
  VarId Mono = B.addLocal(Main, "mono");
  VarId Poly = B.addLocal(Main, "poly");
  B.addAlloc(Main, Mono, A);
  B.addAlloc(Main, Poly, A);
  B.addAlloc(Main, Poly, Bt);
  SigId SigM = B.getSig("m", 0);
  InvokeId MonoInv = B.addVCall(Main, Mono, SigM, {});
  InvokeId PolyInv = B.addVCall(Main, Poly, SigM, {});
  B.addEntryPoint(Main);
  auto P = B.build();

  auto Policy = createPolicy("insens", *P);
  AnalysisResult R = analyze(*P, *Policy);
  auto Sites = devirtualizeCalls(R);
  ASSERT_EQ(Sites.size(), 2u);
  EXPECT_EQ(Sites[0].Invo, MonoInv);
  EXPECT_EQ(Sites[0].Verdict, DevirtVerdict::Monomorphic);
  EXPECT_EQ(Sites[0].Targets, std::vector<MethodId>{MA});
  EXPECT_EQ(Sites[1].Invo, PolyInv);
  EXPECT_EQ(Sites[1].Verdict, DevirtVerdict::Polymorphic);
  EXPECT_EQ(Sites[1].Targets.size(), 2u);
}

TEST(SolverBasic, CastClientReportsOffenders) {
  ProgramBuilder B;
  TypeId Object = B.addType("Object");
  TypeId A = B.addType("A", Object);
  TypeId D = B.addType("D", Object);
  MethodId Main = B.addMethod(Object, "main", 0, true);
  VarId X = B.addLocal(Main, "x");
  VarId Y = B.addLocal(Main, "y");
  VarId Z = B.addLocal(Main, "z");
  B.addAlloc(Main, X, A);
  HeapId HD = B.addAlloc(Main, X, D);
  B.addCast(Main, Y, X, A);  // may fail: X may hold a D
  B.addCast(Main, Z, Z, A);  // unreached: Z never points anywhere
  B.addEntryPoint(Main);
  auto P = B.build();

  auto Policy = createPolicy("insens", *P);
  AnalysisResult R = analyze(*P, *Policy);
  auto Checks = checkCasts(R);
  ASSERT_EQ(Checks.size(), 2u);
  EXPECT_EQ(Checks[0].Verdict, CastVerdict::MayFail);
  EXPECT_EQ(Checks[0].Offenders, std::vector<HeapId>{HD});
  EXPECT_EQ(Checks[1].Verdict, CastVerdict::Unreached);
}

TEST(SolverBasic, MetricsCountContextSensitiveFacts) {
  ProgramBuilder B;
  TypeId Object = B.addType("Object");
  TypeId A = B.addType("A", Object);
  MethodId Foo = B.addMethod(A, "foo", 1, false);
  MethodId Main = B.addMethod(Object, "main", 0, true);
  VarId Cv = B.addLocal(Main, "c");
  VarId O1 = B.addLocal(Main, "o1");
  VarId O2 = B.addLocal(Main, "o2");
  B.addAlloc(Main, Cv, A);
  B.addAlloc(Main, O1, A);
  B.addAlloc(Main, O2, A);
  SigId SigFoo = B.getSig("foo", 1);
  B.addVCall(Main, Cv, SigFoo, {O1});
  B.addVCall(Main, Cv, SigFoo, {O2});
  B.addEntryPoint(Main);
  auto P = B.build();

  // 1call analyzes foo twice: more sensitive facts than insens even though
  // the projected sets match — exactly the paper's internal metric story.
  auto Ins = createPolicy("insens", *P);
  auto Call = createPolicy("1call", *P);
  PrecisionMetrics MI = computeMetrics(analyze(*P, *Ins));
  PrecisionMetrics MC = computeMetrics(analyze(*P, *Call));
  EXPECT_GT(MC.CsVarPointsTo, MI.CsVarPointsTo);
  EXPECT_EQ(MI.CallGraphEdges, MC.CallGraphEdges);
  EXPECT_EQ(MI.ReachableMethods, MC.ReachableMethods);
  ASSERT_EQ(P->method(Foo).Formals.size(), 1u);
}

TEST(SolverBasic, EveryPolicyIsSoundOnADiamondProgram) {
  // A program mixing every feature; all policies must project into the
  // insens result (soundness of refinement) — here we just check a known
  // must-point-to fact survives in all policies.
  ProgramBuilder B;
  TypeId Object = B.addType("Object");
  TypeId A = B.addType("A", Object);
  TypeId Bt = B.addType("B", A);
  FieldId F = B.addField(A, "f");
  MethodId Get = B.addMethod(A, "get", 0, false);
  VarId GV = B.addLocal(Get, "gv");
  B.addLoad(Get, GV, B.thisVar(Get), F);
  B.setReturn(Get, GV);
  MethodId Main = B.addMethod(Object, "main", 0, true);
  VarId R0 = B.addLocal(Main, "r");
  VarId V = B.addLocal(Main, "v");
  VarId W = B.addLocal(Main, "w");
  B.addAlloc(Main, R0, Bt);
  HeapId HV = B.addAlloc(Main, V, A);
  B.addStore(Main, R0, F, V);
  B.addVCall(Main, R0, B.getSig("get", 0), {}, W);
  B.addEntryPoint(Main);
  auto P = B.build();

  for (const std::string &Name : allPolicyNames()) {
    auto Policy = createPolicy(Name, *P);
    AnalysisResult R = analyze(*P, *Policy);
    EXPECT_EQ(R.pointsTo(W), std::vector<HeapId>{HV}) << Name;
  }
}

} // namespace
