//===- tests/context_test.cpp - Unit tests for src/context ----------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
// Checks every policy's RECORD / MERGE / MERGESTATIC point-wise against the
// definitions in the paper (Sections 2.2 and 3).
//
//===----------------------------------------------------------------------===//

#include "context/ContextElement.h"
#include "context/ContextTable.h"
#include "context/CutShortcut.h"
#include "context/PolicyRegistry.h"
#include "ir/Program.h"
#include "ir/ProgramBuilder.h"

#include <gtest/gtest.h>

namespace {

using namespace pt;

TEST(ContextElem, DefaultIsStar) {
  ContextElem E;
  EXPECT_TRUE(E.isStar());
  EXPECT_EQ(E.kind(), ElemKind::Star);
  EXPECT_EQ(E, ContextElem::star());
}

TEST(ContextElem, RoundTripsEachKind) {
  ContextElem H = ContextElem::heap(HeapId::fromIndex(7));
  EXPECT_TRUE(H.isHeap());
  EXPECT_EQ(H.asHeap().index(), 7u);

  ContextElem I = ContextElem::invoke(InvokeId::fromIndex(9));
  EXPECT_TRUE(I.isInvoke());
  EXPECT_EQ(I.asInvoke().index(), 9u);

  ContextElem T = ContextElem::type(TypeId::fromIndex(3));
  EXPECT_TRUE(T.isType());
  EXPECT_EQ(T.asType().index(), 3u);
}

TEST(ContextElem, SameIndexDifferentKindDiffer) {
  EXPECT_NE(ContextElem::heap(HeapId::fromIndex(5)),
            ContextElem::invoke(InvokeId::fromIndex(5)));
  EXPECT_NE(ContextElem::heap(HeapId::fromIndex(5)),
            ContextElem::type(TypeId::fromIndex(5)));
}

TEST(ContextElem, RawRoundTrip) {
  ContextElem E = ContextElem::invoke(InvokeId::fromIndex(123));
  EXPECT_EQ(ContextElem::fromRaw(E.raw()), E);
}

TEST(ContextTable, EmptyTupleIsCanonical) {
  ContextTable<CtxId> T;
  CtxId A = T.internEmpty();
  CtxId B = T.internEmpty();
  EXPECT_EQ(A, B);
  EXPECT_EQ(T.arity(A), 0u);
  EXPECT_EQ(T.size(), 1u);
}

TEST(ContextTable, HashConsing) {
  ContextTable<CtxId> T;
  ContextElem H = ContextElem::heap(HeapId::fromIndex(1));
  ContextElem I = ContextElem::invoke(InvokeId::fromIndex(2));
  CtxId A = T.intern2(H, I);
  CtxId B = T.intern2(H, I);
  CtxId C = T.intern2(I, H);
  EXPECT_EQ(A, B);
  EXPECT_NE(A, C);
  EXPECT_EQ(T.size(), 2u);
}

TEST(ContextTable, ArityDistinguishes) {
  ContextTable<HCtxId> T;
  ContextElem S = ContextElem::star();
  HCtxId Zero = T.internEmpty();
  HCtxId One = T.intern1(S);
  HCtxId Two = T.intern2(S, S);
  EXPECT_NE(Zero, One);
  EXPECT_NE(One, Two);
  EXPECT_EQ(T.arity(Two), 2u);
}

TEST(ContextTable, OutOfRangeSlotReadsStar) {
  ContextTable<CtxId> T;
  CtxId One = T.intern1(ContextElem::heap(HeapId::fromIndex(4)));
  EXPECT_TRUE(T.elem(One, 1).isStar());
  EXPECT_TRUE(T.elem(One, 2).isStar());
}

/// Fixture providing a small program plus handy ids: two heaps allocated in
/// different classes, two invocation sites.
struct PolicyFixture : public ::testing::Test {
  void SetUp() override {
    ProgramBuilder B;
    TypeId Object = B.addType("Object");
    TypeId ClsA = B.addType("ClsA", Object);
    TypeId ClsB = B.addType("ClsB", Object);

    // ClsA.m allocates H1; ClsB.n allocates H2.
    MethodId MA = B.addMethod(ClsA, "m", 0, false);
    VarId VA = B.addLocal(MA, "va");
    H1 = B.addAlloc(MA, VA, ClsB);
    MethodId MB = B.addMethod(ClsB, "n", 0, false);
    VarId VB = B.addLocal(MB, "vb");
    H2 = B.addAlloc(MB, VB, ClsA);

    MethodId Main = B.addMethod(Object, "main", 0, true);
    VarId V = B.addLocal(Main, "v");
    SigId SigM = B.getSig("m", 0);
    I1 = B.addVCall(Main, V, SigM, {});
    I2 = B.addVCall(Main, V, SigM, {});
    B.addEntryPoint(Main);
    Prog = B.build();
    CA1 = Prog->allocSiteClass(H1); // == ClsA
    CA2 = Prog->allocSiteClass(H2); // == ClsB
  }

  /// Renders a method context as raw element words for easy comparison.
  static std::vector<uint32_t> words(ContextPolicy &P, CtxId C) {
    std::vector<uint32_t> Out;
    for (uint32_t I = 0; I < P.ctxTable().arity(C); ++I)
      Out.push_back(P.ctxTable().elem(C, I).raw());
    return Out;
  }

  static std::vector<uint32_t> hwords(ContextPolicy &P, HCtxId C) {
    std::vector<uint32_t> Out;
    for (uint32_t I = 0; I < P.hctxTable().arity(C); ++I)
      Out.push_back(P.hctxTable().elem(C, I).raw());
    return Out;
  }

  std::unique_ptr<Program> Prog;
  HeapId H1, H2;
  InvokeId I1, I2;
  TypeId CA1, CA2;
};

TEST_F(PolicyFixture, InsensEverythingCollapses) {
  auto P = createPolicy("insens", *Prog);
  CtxId C0 = P->initialContext();
  EXPECT_EQ(P->merge(H1, P->record(H1, C0), I1, C0), C0);
  EXPECT_EQ(P->mergeStatic(I1, C0), C0);
  EXPECT_EQ(P->record(H1, C0), P->record(H2, C0));
  EXPECT_EQ(P->ctxTable().size(), 1u);
  EXPECT_EQ(P->hctxTable().size(), 1u);
}

TEST_F(PolicyFixture, OneCallUsesInvocationSites) {
  auto P = createPolicy("1call", *Prog);
  CtxId C0 = P->initialContext();
  CtxId C1 = P->merge(H1, P->record(H1, C0), I1, C0);
  EXPECT_EQ(words(*P, C1),
            std::vector<uint32_t>{ContextElem::invoke(I1).raw()});
  // Virtual and static agree and ignore everything but the site.
  EXPECT_EQ(P->mergeStatic(I1, C1), C1);
  EXPECT_NE(P->mergeStatic(I2, C1), C1);
  // No heap context.
  EXPECT_EQ(P->record(H1, C1), P->record(H2, C0));
}

TEST_F(PolicyFixture, OneCallHRecordsCallerContext) {
  auto P = createPolicy("1call+H", *Prog);
  CtxId C0 = P->initialContext();
  CtxId AtI1 = P->mergeStatic(I1, C0);
  HCtxId H = P->record(H1, AtI1);
  EXPECT_EQ(hwords(*P, H),
            std::vector<uint32_t>{ContextElem::invoke(I1).raw()});
}

TEST_F(PolicyFixture, OneObjUsesReceiverAllocationSite) {
  auto P = createPolicy("1obj", *Prog);
  CtxId C0 = P->initialContext();
  HCtxId HC = P->record(H1, C0);
  CtxId C1 = P->merge(H1, HC, I1, C0);
  EXPECT_EQ(words(*P, C1),
            std::vector<uint32_t>{ContextElem::heap(H1).raw()});
  // Call site is irrelevant for virtual calls.
  EXPECT_EQ(P->merge(H1, HC, I2, C0), C1);
  // Static calls copy the caller context.
  EXPECT_EQ(P->mergeStatic(I1, C1), C1);
  EXPECT_EQ(P->mergeStatic(I2, C1), C1);
}

TEST_F(PolicyFixture, TwoObjHChainsReceivers) {
  auto P = createPolicy("2obj+H", *Prog);
  CtxId C0 = P->initialContext();
  // Receiver H1 allocated in empty context: hctx = first(C0) = *.
  HCtxId HC1 = P->record(H1, C0);
  CtxId C1 = P->merge(H1, HC1, I1, C0);
  EXPECT_EQ(words(*P, C1),
            (std::vector<uint32_t>{ContextElem::heap(H1).raw(),
                                   ContextElem::star().raw()}));
  // An object allocated under C1 remembers H1.
  HCtxId HC2 = P->record(H2, C1);
  EXPECT_EQ(hwords(*P, HC2),
            std::vector<uint32_t>{ContextElem::heap(H1).raw()});
  // Dispatching on it yields (H2, H1) — receiver plus parent receiver.
  CtxId C2 = P->merge(H2, HC2, I2, C1);
  EXPECT_EQ(words(*P, C2),
            (std::vector<uint32_t>{ContextElem::heap(H2).raw(),
                                   ContextElem::heap(H1).raw()}));
  EXPECT_EQ(P->mergeStatic(I1, C2), C2);
}

TEST_F(PolicyFixture, TwoTypeHMapsCAOverNewElements) {
  auto P = createPolicy("2type+H", *Prog);
  CtxId C0 = P->initialContext();
  HCtxId HC1 = P->record(H1, C0);
  CtxId C1 = P->merge(H1, HC1, I1, C0);
  // CA(H1) = class containing H1's allocation = ClsA.
  EXPECT_EQ(words(*P, C1),
            (std::vector<uint32_t>{ContextElem::type(CA1).raw(),
                                   ContextElem::star().raw()}));
  HCtxId HC2 = P->record(H2, C1);
  EXPECT_EQ(hwords(*P, HC2),
            std::vector<uint32_t>{ContextElem::type(CA1).raw()});
}

TEST_F(PolicyFixture, UniformOneObjKeepsBothKinds) {
  auto P = createPolicy("U-1obj", *Prog);
  CtxId C0 = P->initialContext();
  CtxId C1 = P->merge(H1, P->record(H1, C0), I1, C0);
  EXPECT_EQ(words(*P, C1),
            (std::vector<uint32_t>{ContextElem::heap(H1).raw(),
                                   ContextElem::invoke(I1).raw()}));
  // Static: keep most-significant part, swap in the new site.
  CtxId C2 = P->mergeStatic(I2, C1);
  EXPECT_EQ(words(*P, C2),
            (std::vector<uint32_t>{ContextElem::heap(H1).raw(),
                                   ContextElem::invoke(I2).raw()}));
}

TEST_F(PolicyFixture, UniformTwoObjHTriple) {
  auto P = createPolicy("U-2obj+H", *Prog);
  CtxId C0 = P->initialContext();
  HCtxId HC1 = P->record(H1, C0);
  CtxId C1 = P->merge(H1, HC1, I1, C0);
  EXPECT_EQ(words(*P, C1),
            (std::vector<uint32_t>{ContextElem::heap(H1).raw(),
                                   ContextElem::star().raw(),
                                   ContextElem::invoke(I1).raw()}));
  // RECORD takes the most-significant slot — same heap context as 2obj+H.
  HCtxId HC2 = P->record(H2, C1);
  EXPECT_EQ(hwords(*P, HC2),
            std::vector<uint32_t>{ContextElem::heap(H1).raw()});
  CtxId C2 = P->mergeStatic(I2, C1);
  EXPECT_EQ(words(*P, C2),
            (std::vector<uint32_t>{ContextElem::heap(H1).raw(),
                                   ContextElem::star().raw(),
                                   ContextElem::invoke(I2).raw()}));
}

TEST_F(PolicyFixture, SelectiveAOneObjSwitchesKind) {
  auto P = createPolicy("SA-1obj", *Prog);
  CtxId C0 = P->initialContext();
  CtxId Virt = P->merge(H1, P->record(H1, C0), I1, C0);
  EXPECT_EQ(words(*P, Virt),
            std::vector<uint32_t>{ContextElem::heap(H1).raw()});
  CtxId Stat = P->mergeStatic(I1, Virt);
  EXPECT_EQ(words(*P, Stat),
            std::vector<uint32_t>{ContextElem::invoke(I1).raw()});
  // Chained statics keep switching to the newest site.
  CtxId Stat2 = P->mergeStatic(I2, Stat);
  EXPECT_EQ(words(*P, Stat2),
            std::vector<uint32_t>{ContextElem::invoke(I2).raw()});
}

TEST_F(PolicyFixture, SelectiveBOneObjExtendsStatics) {
  auto P = createPolicy("SB-1obj", *Prog);
  CtxId C0 = P->initialContext();
  CtxId Virt = P->merge(H1, P->record(H1, C0), I1, C0);
  EXPECT_EQ(words(*P, Virt),
            (std::vector<uint32_t>{ContextElem::heap(H1).raw(),
                                   ContextElem::star().raw()}));
  CtxId Stat = P->mergeStatic(I1, Virt);
  EXPECT_EQ(words(*P, Stat),
            (std::vector<uint32_t>{ContextElem::heap(H1).raw(),
                                   ContextElem::invoke(I1).raw()}));
  // The heap part survives deeper static chains.
  CtxId Stat2 = P->mergeStatic(I2, Stat);
  EXPECT_EQ(words(*P, Stat2),
            (std::vector<uint32_t>{ContextElem::heap(H1).raw(),
                                   ContextElem::invoke(I2).raw()}));
}

TEST_F(PolicyFixture, SelectiveTwoObjHDefinitions) {
  auto P = createPolicy("S-2obj+H", *Prog);
  CtxId C0 = P->initialContext();
  HCtxId HC1 = P->record(H1, C0);
  // Virtual: exactly like 2obj+H plus a star slot.
  CtxId Virt = P->merge(H1, HC1, I1, C0);
  EXPECT_EQ(words(*P, Virt),
            (std::vector<uint32_t>{ContextElem::heap(H1).raw(),
                                   ContextElem::star().raw(),
                                   ContextElem::star().raw()}));
  // First static level: superset of 2obj+H, augmented by the site.
  CtxId Stat = P->mergeStatic(I1, Virt);
  EXPECT_EQ(words(*P, Stat),
            (std::vector<uint32_t>{ContextElem::heap(H1).raw(),
                                   ContextElem::invoke(I1).raw(),
                                   ContextElem::star().raw()}));
  // Deeper static: both trailing slots hold invocation sites.
  CtxId Stat2 = P->mergeStatic(I2, Stat);
  EXPECT_EQ(words(*P, Stat2),
            (std::vector<uint32_t>{ContextElem::heap(H1).raw(),
                                   ContextElem::invoke(I2).raw(),
                                   ContextElem::invoke(I1).raw()}));
  // RECORD keeps producing 2obj+H-quality heap contexts.
  HCtxId HC2 = P->record(H2, Stat2);
  EXPECT_EQ(hwords(*P, HC2),
            std::vector<uint32_t>{ContextElem::heap(H1).raw()});
}

TEST_F(PolicyFixture, SelectiveTwoTypeHIsomorphic) {
  auto P = createPolicy("S-2type+H", *Prog);
  CtxId C0 = P->initialContext();
  HCtxId HC1 = P->record(H1, C0);
  CtxId Virt = P->merge(H1, HC1, I1, C0);
  EXPECT_EQ(words(*P, Virt),
            (std::vector<uint32_t>{ContextElem::type(CA1).raw(),
                                   ContextElem::star().raw(),
                                   ContextElem::star().raw()}));
  CtxId Stat = P->mergeStatic(I2, Virt);
  EXPECT_EQ(words(*P, Stat),
            (std::vector<uint32_t>{ContextElem::type(CA1).raw(),
                                   ContextElem::invoke(I2).raw(),
                                   ContextElem::star().raw()}));
}

TEST_F(PolicyFixture, UniformPrecisionRefinement) {
  // U-1obj contexts refine 1obj contexts: projecting the first slot of any
  // U-1obj context gives the corresponding 1obj context.  Spot-check the
  // constructor outputs.
  auto Base = createPolicy("1obj", *Prog);
  auto Uni = createPolicy("U-1obj", *Prog);
  CtxId B0 = Base->initialContext(), U0 = Uni->initialContext();
  CtxId B1 = Base->merge(H1, Base->record(H1, B0), I1, B0);
  CtxId U1 = Uni->merge(H1, Uni->record(H1, U0), I1, U0);
  EXPECT_EQ(Base->ctxTable().elem(B1, 0), Uni->ctxTable().elem(U1, 0));
  CtxId B2 = Base->mergeStatic(I2, B1);
  CtxId U2 = Uni->mergeStatic(I2, U1);
  EXPECT_EQ(Base->ctxTable().elem(B2, 0), Uni->ctxTable().elem(U2, 0));
}

TEST_F(PolicyFixture, AblationInvokeHeapContext) {
  auto P = createPolicy("U-2obj+HI", *Prog);
  CtxId C0 = P->initialContext();
  CtxId C1 = P->merge(H1, P->record(H1, C0), I1, C0);
  // Heap context of an object allocated under C1 is C1's invocation slot.
  HCtxId HC = P->record(H2, C1);
  EXPECT_EQ(hwords(*P, HC),
            std::vector<uint32_t>{ContextElem::invoke(I1).raw()});
}

TEST_F(PolicyFixture, AblationSwappedSignificance) {
  auto P = createPolicy("U-2obj+H-swapped", *Prog);
  CtxId C0 = P->initialContext();
  HCtxId HC1 = P->record(H1, C0);
  CtxId C1 = P->merge(H1, HC1, I1, C0);
  // hctx leads, receiver second.
  EXPECT_EQ(words(*P, C1),
            (std::vector<uint32_t>{ContextElem::star().raw(),
                                   ContextElem::heap(H1).raw(),
                                   ContextElem::invoke(I1).raw()}));
  // RECORD naively takes first(ctx), which is now the *grandparent*
  // object (star here), not the allocating method's receiver H1 — the
  // heap-context quality loss the paper warns about.
  HCtxId HC2 = P->record(H2, C1);
  EXPECT_EQ(hwords(*P, HC2),
            std::vector<uint32_t>{ContextElem::star().raw()});
}

TEST_F(PolicyFixture, DepthAdaptiveSwitchesOnContextShape) {
  auto P = createPolicy("D-2obj+H", *Prog);
  CtxId C0 = P->initialContext();
  HCtxId HC1 = P->record(H1, C0);
  CtxId Virt = P->merge(H1, HC1, I1, C0);
  EXPECT_TRUE(P->ctxTable().elem(Virt, 2).isStar());
  // First static level: keep both object slots, append the site (uniform
  // shape).
  CtxId S1 = P->mergeStatic(I1, Virt);
  EXPECT_EQ(words(*P, S1),
            (std::vector<uint32_t>{ContextElem::heap(H1).raw(),
                                   ContextElem::star().raw(),
                                   ContextElem::invoke(I1).raw()}));
  // Second static level: switch to the call-site-chain shape.
  CtxId S2 = P->mergeStatic(I2, S1);
  EXPECT_EQ(words(*P, S2),
            (std::vector<uint32_t>{ContextElem::heap(H1).raw(),
                                   ContextElem::invoke(I1).raw(),
                                   ContextElem::invoke(I2).raw()}));
}

TEST_F(PolicyFixture, ThreeObjTwoHChains) {
  auto P = createPolicy("3obj+2H", *Prog);
  CtxId C0 = P->initialContext();
  HCtxId HC1 = P->record(H1, C0);
  CtxId C1 = P->merge(H1, HC1, I1, C0);
  EXPECT_EQ(words(*P, C1),
            (std::vector<uint32_t>{ContextElem::heap(H1).raw(),
                                   ContextElem::star().raw(),
                                   ContextElem::star().raw()}));
  // An object allocated under C1 remembers the two leading elements.
  HCtxId HC2 = P->record(H2, C1);
  EXPECT_EQ(hwords(*P, HC2),
            (std::vector<uint32_t>{ContextElem::heap(H1).raw(),
                                   ContextElem::star().raw()}));
  // Dispatch on it: a 3-deep receiver chain.
  CtxId C2 = P->merge(H2, HC2, I2, C1);
  EXPECT_EQ(words(*P, C2),
            (std::vector<uint32_t>{ContextElem::heap(H2).raw(),
                                   ContextElem::heap(H1).raw(),
                                   ContextElem::star().raw()}));
  EXPECT_EQ(P->mergeStatic(I1, C2), C2);
}

TEST_F(PolicyFixture, TwoCallHChainsSites) {
  auto P = createPolicy("2call+H", *Prog);
  CtxId C0 = P->initialContext();
  CtxId C1 = P->mergeStatic(I1, C0);
  EXPECT_EQ(words(*P, C1),
            (std::vector<uint32_t>{ContextElem::invoke(I1).raw(),
                                   ContextElem::star().raw()}));
  CtxId C2 = P->merge(H1, P->record(H1, C1), I2, C1);
  EXPECT_EQ(words(*P, C2),
            (std::vector<uint32_t>{ContextElem::invoke(I2).raw(),
                                   ContextElem::invoke(I1).raw()}));
  // Heap context: the caller's leading site.
  HCtxId HC = P->record(H2, C2);
  EXPECT_EQ(hwords(*P, HC),
            std::vector<uint32_t>{ContextElem::invoke(I2).raw()});
}

TEST_F(PolicyFixture, RegistryCreatesEveryPolicy) {
  for (const std::string &Name : allPolicyNames()) {
    auto P = createPolicy(Name, *Prog);
    ASSERT_NE(P, nullptr) << Name;
    EXPECT_EQ(P->name(), Name);
    // Constructor functions are callable without blowing up.
    CtxId C0 = P->initialContext();
    HCtxId HC = P->record(H1, C0);
    CtxId C1 = P->merge(H1, HC, I1, C0);
    CtxId C2 = P->mergeStatic(I2, C1);
    EXPECT_EQ(P->ctxTable().arity(C2), P->methodCtxArity());
  }
}

TEST_F(PolicyFixture, RegistryRejectsUnknownNames) {
  EXPECT_EQ(createPolicy("7obj", *Prog), nullptr);
  EXPECT_EQ(createPolicy("", *Prog), nullptr);
}

TEST_F(PolicyFixture, RegistryLineups) {
  EXPECT_EQ(table1PolicyNames().size(), 14u);
  EXPECT_EQ(paperPolicyNames().size(), 15u);
  EXPECT_EQ(allPolicyNames().size(), 20u);
  // Table-1 order starts with the call-site group, as in the paper, and
  // ends with the appended cut-shortcut columns.
  EXPECT_EQ(table1PolicyNames().front(), "1call");
  EXPECT_EQ(table1PolicyNames().back(), "S-cs");
}

TEST_F(PolicyFixture, ContextsAreHashConsedAcrossCalls) {
  auto P = createPolicy("S-2obj+H", *Prog);
  CtxId C0 = P->initialContext();
  HCtxId HC = P->record(H1, C0);
  CtxId A = P->merge(H1, HC, I1, C0);
  CtxId B = P->merge(H1, HC, I2, C0); // site ignored at virtual calls
  EXPECT_EQ(A, B);
  size_t Before = P->ctxTable().size();
  P->merge(H1, HC, I1, C0);
  EXPECT_EQ(P->ctxTable().size(), Before);
}

TEST_F(PolicyFixture, CutShortcutPoliciesAreContextless) {
  for (const char *Name : {"cs", "S-cs"}) {
    auto P = createPolicy(Name, *Prog);
    ASSERT_NE(P, nullptr) << Name;
    EXPECT_EQ(P->methodCtxArity(), 0u);
    EXPECT_EQ(P->heapCtxArity(), 0u);
    ASSERT_NE(P->cutPlan(), nullptr) << Name;
  }
  // Every other registered policy has no plan.
  for (const std::string &Name : allPolicyNames()) {
    if (Name == "cs" || Name == "S-cs")
      continue;
    EXPECT_EQ(createPolicy(Name, *Prog)->cutPlan(), nullptr) << Name;
  }
}

// --- Cut-shortcut plan derivation (cs / S-cs) ---------------------------

/// Builds one small class with two instance fields and one static field
/// plus an entry point; each test adds the method shape under scrutiny and
/// derives the plan.
struct CutPlanFixture : public ::testing::Test {
  void SetUp() override {
    TypeId Object = B.addType("Object");
    Cls = B.addType("Cls", Object);
    F = B.addField(Cls, "f");
    G = B.addField(Cls, "g");
    Static = B.addStaticField(Cls, "s");
    B.addEntryPoint(B.addMethod(Object, "main", 0, true));
  }

  const CutShortcutPlan::MethodPlan &plan(MethodId M,
                                          CutMode Mode = CutMode::All) {
    Prog = B.build();
    Plan = computeCutShortcutPlan(*Prog, Mode);
    return Plan.method(M);
  }

  ProgramBuilder B;
  TypeId Cls;
  FieldId F, G, Static;
  std::unique_ptr<Program> Prog;
  CutShortcutPlan Plan;
};

TEST_F(CutPlanFixture, CoveredStoreIsCut) {
  MethodId M = B.addMethod(Cls, "set", 1, false);
  B.addStore(M, B.thisVar(M), F, B.formal(M, 0));
  const CutShortcutPlan::MethodPlan &MP = plan(M);
  ASSERT_EQ(MP.StoreCuts.size(), 1u);
  EXPECT_EQ(MP.StoreCuts[0].StoreIdx, 0u);
  EXPECT_EQ(MP.StoreCuts[0].FormalIdx, 0u);
  EXPECT_EQ(MP.StoreCuts[0].Fld, F);
  EXPECT_TRUE(Plan.isStoreCut(M, 0));
  EXPECT_FALSE(MP.RetCut); // No return variable.
  EXPECT_EQ(Plan.numStoreCuts(), 1u);
}

TEST_F(CutPlanFixture, DirtyFormalOrForeignBaseVetoesStoreCut) {
  MethodId M = B.addMethod(Cls, "set", 1, false);
  // p0 is redefined inside the body: the call edge's actual no longer
  // covers what the store writes.
  B.addAlloc(M, B.formal(M, 0), Cls);
  B.addStore(M, B.thisVar(M), F, B.formal(M, 0));
  // Stores through a non-this base are never cut.
  VarId L = B.addLocal(M, "l");
  B.addAlloc(M, L, Cls);
  B.addStore(M, L, G, B.formal(M, 0));
  EXPECT_TRUE(plan(M).StoreCuts.empty());
}

TEST_F(CutPlanFixture, ReturnedFormalIsCutAsRetArg) {
  MethodId M = B.addMethod(Cls, "id", 1, false);
  B.setReturn(M, B.formal(M, 0));
  const CutShortcutPlan::MethodPlan &MP = plan(M);
  EXPECT_TRUE(MP.RetCut);
  EXPECT_EQ(MP.RetArgs, std::vector<uint32_t>{0u});
  EXPECT_TRUE(MP.RetAllocs.empty());
  EXPECT_TRUE(MP.RetLoads.empty());
}

TEST_F(CutPlanFixture, ReturnedAllocMoveAndThisLoadAreAllCovered) {
  MethodId M = B.addMethod(Cls, "mk", 2, false);
  VarId R = B.addLocal(M, "r");
  HeapId H = B.addAlloc(M, R, Cls);
  B.addMove(M, R, B.formal(M, 1));
  B.addLoad(M, R, B.thisVar(M), F);
  B.setReturn(M, R);
  const CutShortcutPlan::MethodPlan &MP = plan(M);
  ASSERT_TRUE(MP.RetCut);
  EXPECT_EQ(MP.RetArgs, std::vector<uint32_t>{1u});
  EXPECT_EQ(MP.RetAllocs, std::vector<HeapId>{H});
  EXPECT_EQ(MP.RetLoads, std::vector<FieldId>{F});
}

TEST_F(CutPlanFixture, UncoverableReturnDefsVetoTheRetCut) {
  // A cast definition is type-filtered; no per-edge shortcut covers it.
  MethodId M1 = B.addMethod(Cls, "viaCast", 1, false);
  VarId R1 = B.addLocal(M1, "r");
  B.addCast(M1, R1, B.formal(M1, 0), Cls);
  B.setReturn(M1, R1);
  // A move from a non-formal local.
  MethodId M2 = B.addMethod(Cls, "viaLocal", 1, false);
  VarId L = B.addLocal(M2, "l");
  VarId R2 = B.addLocal(M2, "r");
  B.addAlloc(M2, L, Cls);
  B.addMove(M2, R2, L);
  B.setReturn(M2, R2);
  // A call-return binding depends on downstream state.
  MethodId M3 = B.addMethod(Cls, "viaCall", 0, false);
  VarId R3 = B.addLocal(M3, "r");
  B.addVCall(M3, B.thisVar(M3), B.getSig("id", 1), {B.thisVar(M3)}, R3);
  B.setReturn(M3, R3);
  // Returning `this` itself.
  MethodId M4 = B.addMethod(Cls, "self", 0, false);
  B.setReturn(M4, B.thisVar(M4));
  // A static-field load is global state.
  MethodId M5 = B.addMethod(Cls, "viaSLoad", 0, false);
  VarId R5 = B.addLocal(M5, "r");
  B.addSLoad(M5, R5, Static);
  B.setReturn(M5, R5);
  Prog = B.build();
  CutShortcutPlan P = computeCutShortcutPlan(*Prog, CutMode::All);
  EXPECT_FALSE(P.method(M1).RetCut);
  EXPECT_FALSE(P.method(M2).RetCut);
  EXPECT_FALSE(P.method(M3).RetCut);
  EXPECT_FALSE(P.method(M4).RetCut);
  EXPECT_FALSE(P.method(M5).RetCut);
  EXPECT_EQ(P.numRetCuts(), 0u);
}

TEST_F(CutPlanFixture, VirtualOnlyModeKeepsStaticReturns) {
  // S-cs cuts only virtual boundaries; a static factory keeps its generic
  // merged return flow while cs cuts it.
  MethodId S = B.addMethod(Cls, "mkStatic", 0, true);
  VarId R = B.addLocal(S, "r");
  B.addAlloc(S, R, Cls);
  B.setReturn(S, R);
  Prog = B.build();
  EXPECT_TRUE(computeCutShortcutPlan(*Prog, CutMode::All).method(S).RetCut);
  EXPECT_FALSE(
      computeCutShortcutPlan(*Prog, CutMode::VirtualOnly).method(S).RetCut);
}

} // namespace
