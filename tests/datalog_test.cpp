//===- tests/datalog_test.cpp - Engine unit tests -------------------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//

#include "datalog/Engine.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <set>

namespace {

using namespace pt::dl;

/// Collects a relation's settled rows as sorted vectors for comparison.
std::set<std::vector<Value>> rowsOf(const Relation &R) {
  std::set<std::vector<Value>> Out;
  for (size_t I = 0; I < R.settledRows(); ++I)
    Out.insert(std::vector<Value>(R.row(I), R.row(I) + R.arity()));
  return Out;
}

TEST(Relation, InsertDeduplicates) {
  Relation R("r", 2);
  EXPECT_TRUE(R.insert({1, 2}));
  EXPECT_FALSE(R.insert({1, 2}));
  EXPECT_TRUE(R.insert({2, 1}));
  EXPECT_EQ(R.size(), 2u);
}

TEST(Relation, PromoteMovesPendingToDelta) {
  Relation R("r", 1);
  R.insert({7});
  EXPECT_EQ(R.settledRows(), 0u);
  EXPECT_EQ(R.promote(), 1u);
  EXPECT_EQ(R.settledRows(), 1u);
  auto [B, E] = R.rowRange(Range::Delta);
  EXPECT_EQ(E - B, 1u);
  // Second promote with nothing pending: delta becomes empty.
  EXPECT_EQ(R.promote(), 0u);
  EXPECT_TRUE(R.deltaEmpty());
}

TEST(Relation, DedupSpansSettledAndPending) {
  Relation R("r", 1);
  R.insert({1});
  R.promote();
  EXPECT_FALSE(R.insert({1})); // already settled
  R.insert({2});
  EXPECT_FALSE(R.insert({2})); // already pending
}

TEST(Relation, IndexedScanFindsMatches) {
  Relation R("edge", 2);
  R.insert({1, 2});
  R.insert({1, 3});
  R.insert({2, 3});
  R.promote();
  Value Key[1] = {1};
  size_t Count = 0;
  R.scan(Range::All, 0b01, Key, [&](const Value *Row) {
    EXPECT_EQ(Row[0], 1u);
    ++Count;
  });
  EXPECT_EQ(Count, 2u);
}

TEST(Relation, ScanDeltaOnlySeesNewRows) {
  Relation R("r", 1);
  R.insert({1});
  R.promote();
  R.insert({2});
  R.promote();
  size_t Count = 0;
  R.scan(Range::Delta, 0, nullptr, [&](const Value *Row) {
    EXPECT_EQ(Row[0], 2u);
    ++Count;
  });
  EXPECT_EQ(Count, 1u);
  Count = 0;
  R.scan(Range::All, 0, nullptr, [&](const Value *) { ++Count; });
  EXPECT_EQ(Count, 2u);
}

// A scan keeps iterating its index while the callback scans the same
// relation under masks that have no index yet, as a self-join does.
// Building those indexes must not move the outer one (ASan caught a
// use-after-free here when the indexes lived in a growing vector).
TEST(Relation, NestedScansUnderNewMasksKeepTheOuterIndex) {
  Relation R("r", 3);
  for (Value I = 0; I < 40; ++I)
    R.insert({I % 4, I % 5, I});
  R.promote();
  size_t Pairs = 0;
  Value OuterKey[1] = {1};
  R.scan(Range::All, 0b001, OuterKey, [&](const Value *Row) {
    for (uint32_t Mask : {0b010u, 0b100u, 0b110u, 0b011u, 0b101u}) {
      Value Key[2];
      uint32_t N = 0;
      for (uint32_t C = 0; C < 3; ++C)
        if (Mask & (1u << C))
          Key[N++] = Row[C];
      R.scan(Range::All, Mask, Key, [&](const Value *) { ++Pairs; });
    }
  });
  // Ten outer rows; each matches 8 rows on column 1, itself on column 2
  // and the (1, 2), (0, 2) pairs, and 2 rows on columns (0, 1).
  EXPECT_EQ(Pairs, 10u * (8 + 1 + 1 + 2 + 1));
}

TEST(Engine, TransitiveClosure) {
  Engine E;
  Relation &Edge = E.relation("edge", 2);
  Relation &Path = E.relation("path", 2);
  // path(x,y) <- edge(x,y).
  {
    Rule R;
    R.Name = "base";
    R.NumVars = 2;
    R.Head = Atom(Path, {Term::var(0), Term::var(1)});
    R.Body.push_back(Atom(Edge, {Term::var(0), Term::var(1)}));
    E.addRule(std::move(R));
  }
  // path(x,z) <- path(x,y), edge(y,z).
  {
    Rule R;
    R.Name = "step";
    R.NumVars = 3;
    R.Head = Atom(Path, {Term::var(0), Term::var(2)});
    R.Body.push_back(Atom(Path, {Term::var(0), Term::var(1)}));
    R.Body.push_back(Atom(Edge, {Term::var(1), Term::var(2)}));
    E.addRule(std::move(R));
  }
  // Chain 0->1->2->3 plus a cycle 3->0.
  Edge.insert({0, 1});
  Edge.insert({1, 2});
  Edge.insert({2, 3});
  Edge.insert({3, 0});
  EngineStats Stats = E.run();
  EXPECT_FALSE(Stats.Aborted);
  // Full closure on a 4-cycle: all 16 pairs.
  EXPECT_EQ(Path.size(), 16u);
}

TEST(Engine, ConstantsInBodyFilter) {
  Engine E;
  Relation &In = E.relation("in", 2);
  Relation &Out = E.relation("out", 1);
  // out(y) <- in(7, y).
  Rule R;
  R.NumVars = 1;
  R.Head = Atom(Out, {Term::var(0)});
  R.Body.push_back(Atom(In, {Term::constant(7), Term::var(0)}));
  E.addRule(std::move(R));
  In.insert({7, 1});
  In.insert({8, 2});
  In.insert({7, 3});
  E.run();
  auto Rows = rowsOf(Out);
  EXPECT_EQ(Rows.size(), 2u);
  EXPECT_TRUE(Rows.count({1}));
  EXPECT_TRUE(Rows.count({3}));
}

TEST(Engine, RepeatedVariableActsAsEquality) {
  Engine E;
  Relation &In = E.relation("in", 2);
  Relation &Diag = E.relation("diag", 1);
  // diag(x) <- in(x, x).
  Rule R;
  R.NumVars = 1;
  R.Head = Atom(Diag, {Term::var(0)});
  R.Body.push_back(Atom(In, {Term::var(0), Term::var(0)}));
  E.addRule(std::move(R));
  In.insert({1, 1});
  In.insert({1, 2});
  In.insert({3, 3});
  E.run();
  auto Rows = rowsOf(Diag);
  EXPECT_EQ(Rows.size(), 2u);
  EXPECT_TRUE(Rows.count({1}));
  EXPECT_TRUE(Rows.count({3}));
}

TEST(Engine, FunctorComputesHeadValues) {
  Engine E;
  Relation &In = E.relation("in", 1);
  Relation &Out = E.relation("out", 2);
  // out(x, x+100) <- in(x).
  Rule R;
  R.NumVars = 2;
  R.Head = Atom(Out, {Term::var(0), Term::var(1)});
  R.Body.push_back(Atom(In, {Term::var(0)}));
  FunctorApp F;
  F.Fn = [](const Value *Args) { return Args[0] + 100; };
  F.Args = {Term::var(0)};
  F.ResultVar = 1;
  R.Functors.push_back(std::move(F));
  E.addRule(std::move(R));
  In.insert({1});
  In.insert({2});
  E.run();
  auto Rows = rowsOf(Out);
  EXPECT_TRUE(Rows.count({1, 101}));
  EXPECT_TRUE(Rows.count({2, 102}));
  EXPECT_EQ(Rows.size(), 2u);
}

TEST(Engine, ChainedFunctors) {
  Engine E;
  Relation &In = E.relation("in", 1);
  Relation &Out = E.relation("out", 1);
  // out(g(f(x))) <- in(x) with f = +1, g = *2.
  Rule R;
  R.NumVars = 3;
  R.Head = Atom(Out, {Term::var(2)});
  R.Body.push_back(Atom(In, {Term::var(0)}));
  FunctorApp F1;
  F1.Fn = [](const Value *A) { return A[0] + 1; };
  F1.Args = {Term::var(0)};
  F1.ResultVar = 1;
  FunctorApp F2;
  F2.Fn = [](const Value *A) { return A[0] * 2; };
  F2.Args = {Term::var(1)};
  F2.ResultVar = 2;
  R.Functors.push_back(std::move(F1));
  R.Functors.push_back(std::move(F2));
  E.addRule(std::move(R));
  In.insert({10});
  E.run();
  EXPECT_TRUE(rowsOf(Out).count({22}));
}

TEST(Engine, RecursionThroughFunctorsTerminatesWhenBounded) {
  // next(x) values are clamped, so the IDB saturates.
  Engine E;
  Relation &N = E.relation("n", 1);
  Rule R;
  R.NumVars = 2;
  R.Head = Atom(N, {Term::var(1)});
  R.Body.push_back(Atom(N, {Term::var(0)}));
  FunctorApp F;
  F.Fn = [](const Value *A) { return A[0] >= 10 ? 10 : A[0] + 1; };
  F.Args = {Term::var(0)};
  F.ResultVar = 1;
  R.Functors.push_back(std::move(F));
  E.addRule(std::move(R));
  N.insert({0});
  EngineStats Stats = E.run();
  EXPECT_FALSE(Stats.Aborted);
  EXPECT_EQ(N.size(), 11u); // 0..10
}

TEST(Engine, TupleBudgetAborts) {
  // Unbounded counter; the budget must stop it.
  Engine E;
  Relation &N = E.relation("n", 1);
  Rule R;
  R.NumVars = 2;
  R.Head = Atom(N, {Term::var(1)});
  R.Body.push_back(Atom(N, {Term::var(0)}));
  FunctorApp F;
  F.Fn = [](const Value *A) { return A[0] + 1; };
  F.Args = {Term::var(0)};
  F.ResultVar = 1;
  R.Functors.push_back(std::move(F));
  E.addRule(std::move(R));
  N.insert({0});
  EngineOptions Opts;
  Opts.MaxTuples = 100;
  EngineStats Stats = E.run(Opts);
  EXPECT_TRUE(Stats.Aborted);
  EXPECT_LE(N.size(), 200u);
}

TEST(Engine, MultipleRulesFeedEachOther) {
  // Mutual recursion: even/odd over a successor relation.
  Engine E;
  Relation &Succ = E.relation("succ", 2);
  Relation &Even = E.relation("even", 1);
  Relation &Odd = E.relation("odd", 1);
  {
    Rule R; // odd(y) <- even(x), succ(x, y).
    R.NumVars = 2;
    R.Head = Atom(Odd, {Term::var(1)});
    R.Body.push_back(Atom(Even, {Term::var(0)}));
    R.Body.push_back(Atom(Succ, {Term::var(0), Term::var(1)}));
    E.addRule(std::move(R));
  }
  {
    Rule R; // even(y) <- odd(x), succ(x, y).
    R.NumVars = 2;
    R.Head = Atom(Even, {Term::var(1)});
    R.Body.push_back(Atom(Odd, {Term::var(0)}));
    R.Body.push_back(Atom(Succ, {Term::var(0), Term::var(1)}));
    E.addRule(std::move(R));
  }
  for (Value I = 0; I < 10; ++I)
    Succ.insert({I, I + 1});
  Even.insert({0});
  E.run();
  EXPECT_EQ(Even.size(), 6u); // 0,2,4,6,8,10
  EXPECT_EQ(Odd.size(), 5u);  // 1,3,5,7,9
}

TEST(Engine, RelationLookupIsStable) {
  Engine E;
  Relation &A = E.relation("a", 2);
  Relation &B = E.relation("a", 2);
  EXPECT_EQ(&A, &B);
  EXPECT_EQ(E.find("a"), &A);
  EXPECT_EQ(E.find("missing"), nullptr);
  EXPECT_EQ(E.numRelations(), 1u);
}

TEST(Engine, EmptyRunTerminatesImmediately) {
  Engine E;
  E.relation("r", 1);
  EngineStats Stats = E.run();
  EXPECT_FALSE(Stats.Aborted);
  EXPECT_EQ(Stats.DerivedTuples, 0u);
}

/// Property test: on random digraphs, the engine's transitive closure
/// must equal an independently computed one (DFS per node).
class ClosureFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ClosureFuzz, MatchesIndependentReachability) {
  pt::Rng R(GetParam());
  const uint32_t N = 12;
  std::vector<std::pair<Value, Value>> Edges;
  uint32_t NumEdges = 8 + static_cast<uint32_t>(R.below(20));
  for (uint32_t I = 0; I < NumEdges; ++I)
    Edges.push_back({static_cast<Value>(R.below(N)),
                     static_cast<Value>(R.below(N))});

  // Engine side.
  Engine E;
  Relation &Edge = E.relation("edge", 2);
  Relation &Path = E.relation("path", 2);
  {
    Rule Base;
    Base.NumVars = 2;
    Base.Head = Atom(Path, {Term::var(0), Term::var(1)});
    Base.Body.push_back(Atom(Edge, {Term::var(0), Term::var(1)}));
    E.addRule(std::move(Base));
  }
  {
    Rule Step;
    Step.NumVars = 3;
    Step.Head = Atom(Path, {Term::var(0), Term::var(2)});
    Step.Body.push_back(Atom(Path, {Term::var(0), Term::var(1)}));
    Step.Body.push_back(Atom(Edge, {Term::var(1), Term::var(2)}));
    E.addRule(std::move(Step));
  }
  for (auto [A, B] : Edges)
    Edge.insert({A, B});
  E.run();

  // Independent reference: per-source DFS over the edge list.
  std::vector<std::vector<uint32_t>> Adj(N);
  for (auto [A, B] : Edges)
    Adj[A].push_back(B);
  std::set<std::vector<Value>> Expected;
  for (uint32_t Src = 0; Src < N; ++Src) {
    std::vector<bool> Seen(N, false);
    std::vector<uint32_t> Stack;
    for (uint32_t Next : Adj[Src])
      Stack.push_back(Next);
    while (!Stack.empty()) {
      uint32_t Cur = Stack.back();
      Stack.pop_back();
      if (Seen[Cur])
        continue;
      Seen[Cur] = true;
      Expected.insert({Src, Cur});
      for (uint32_t Next : Adj[Cur])
        Stack.push_back(Next);
    }
  }
  EXPECT_EQ(rowsOf(Path), Expected);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ClosureFuzz,
                         ::testing::Range<uint64_t>(1, 25));

/// Property test: same-generation on random trees, checked against a
/// depth-based reference.
class SameGenFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SameGenFuzz, MatchesDepthEquality) {
  pt::Rng R(GetParam());
  const uint32_t N = 14;
  // Random forest: parent of node i (> 0) is some node < i.
  std::vector<uint32_t> Parent(N, 0);
  std::vector<uint32_t> Depth(N, 0);
  for (uint32_t I = 1; I < N; ++I) {
    Parent[I] = static_cast<uint32_t>(R.below(I));
    Depth[I] = Depth[Parent[I]] + 1;
  }

  Engine E;
  Relation &Par = E.relation("parent", 2); // (child, parent)
  Relation &Sg = E.relation("sg", 2);
  // sg(x, x) <- parent(x, p).   (same node; seeds the recursion)
  {
    Rule B2;
    B2.NumVars = 2;
    B2.Head = Atom(Sg, {Term::var(0), Term::var(0)});
    B2.Body.push_back(Atom(Par, {Term::var(0), Term::var(1)}));
    E.addRule(std::move(B2));
  }
  // sg(x, y) <- parent(x, px), sg(px, py), parent(y, py).
  {
    Rule Step;
    Step.NumVars = 4;
    Step.Head = Atom(Sg, {Term::var(0), Term::var(2)});
    Step.Body.push_back(Atom(Par, {Term::var(0), Term::var(1)}));
    Step.Body.push_back(Atom(Sg, {Term::var(1), Term::var(3)}));
    Step.Body.push_back(Atom(Par, {Term::var(2), Term::var(3)}));
    E.addRule(std::move(Step));
  }
  for (uint32_t I = 1; I < N; ++I)
    Par.insert({I, Parent[I]});
  E.run();

  // Reference: sg(x, y) iff depth(x) == depth(y), both have parents, and
  // the depth-k ancestors chain matches the recursion (same ancestor at
  // the top).  For a forest rooted at 0 the recursion derives exactly:
  // pairs of equal depth >= 1 whose ancestors pair up at every level.
  std::set<std::vector<Value>> Expected;
  auto Ancestor = [&](uint32_t X, uint32_t K) {
    while (K--)
      X = Parent[X];
    return X;
  };
  for (uint32_t X = 1; X < N; ++X)
    for (uint32_t Y = 1; Y < N; ++Y) {
      if (Depth[X] != Depth[Y])
        continue;
      // Valid iff ancestors pair up at some level whose common ancestor
      // still has a parent: the recursion bottoms out at sg(a, a), whose
      // base rule requires parent(a, _) — the root cannot anchor it.
      bool Ok = false;
      for (uint32_t L = 0; L + 1 <= Depth[X]; ++L)
        if (Ancestor(X, L) == Ancestor(Y, L)) {
          Ok = true;
          break;
        }
      if (Ok)
        Expected.insert({X, Y});
    }
  EXPECT_EQ(rowsOf(Sg), Expected);
}

INSTANTIATE_TEST_SUITE_P(Sweep, SameGenFuzz,
                         ::testing::Range<uint64_t>(1, 15));

} // namespace
