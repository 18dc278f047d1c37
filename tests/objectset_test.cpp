//===- tests/objectset_test.cpp - Hybrid points-to set unit tests ---------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
// ObjectSet is the solver's per-node points-to set; its contract — stable
// insertion positions, exact promotion at the inline boundary, idempotent
// insert in both representations — is what keeps the solver's replay and
// delta-propagation paths snapshot-free.  These tests pin that contract
// down, cross-checking against std::unordered_set on randomized workloads.
//
//===----------------------------------------------------------------------===//

#include "support/ObjectSet.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <unordered_set>
#include <vector>

namespace {

using namespace pt;

TEST(ObjectSet, EmptySet) {
  ObjectSet S;
  EXPECT_TRUE(S.empty());
  EXPECT_EQ(S.size(), 0u);
  EXPECT_FALSE(S.contains(0));
  EXPECT_FALSE(S.contains(12345));
  EXPECT_FALSE(S.isBitmap());
}

TEST(ObjectSet, InsertReportsNewness) {
  ObjectSet S;
  EXPECT_TRUE(S.insert(7));
  EXPECT_FALSE(S.insert(7)); // idempotent in inline mode
  EXPECT_TRUE(S.insert(9));
  EXPECT_EQ(S.size(), 2u);
  EXPECT_TRUE(S.contains(7));
  EXPECT_TRUE(S.contains(9));
  EXPECT_FALSE(S.contains(8));
}

TEST(ObjectSet, PromotionBoundary) {
  // Exactly InlineLimit elements stay inline; the next distinct element
  // flips the representation.  Duplicates must not trigger promotion.
  ObjectSet S;
  for (uint32_t I = 0; I < ObjectSet::InlineLimit; ++I)
    EXPECT_TRUE(S.insert(I * 100));
  EXPECT_FALSE(S.isBitmap());
  EXPECT_EQ(S.size(), ObjectSet::InlineLimit);

  // Re-inserting existing elements keeps the set inline.
  for (uint32_t I = 0; I < ObjectSet::InlineLimit; ++I)
    EXPECT_FALSE(S.insert(I * 100));
  EXPECT_FALSE(S.isBitmap());

  // The (InlineLimit+1)-th distinct element promotes.
  EXPECT_TRUE(S.insert(999999));
  EXPECT_TRUE(S.isBitmap());
  EXPECT_EQ(S.size(), ObjectSet::InlineLimit + 1);

  // Everything inserted before the promotion is still present after it.
  for (uint32_t I = 0; I < ObjectSet::InlineLimit; ++I)
    EXPECT_TRUE(S.contains(I * 100));
  EXPECT_TRUE(S.contains(999999));
  EXPECT_FALSE(S.contains(50));
}

TEST(ObjectSet, IdempotentInsertAfterPromotion) {
  ObjectSet S;
  for (uint32_t I = 0; I <= ObjectSet::InlineLimit; ++I)
    S.insert(I);
  ASSERT_TRUE(S.isBitmap());
  uint32_t Size = S.size();
  for (uint32_t I = 0; I <= ObjectSet::InlineLimit; ++I)
    EXPECT_FALSE(S.insert(I));
  EXPECT_EQ(S.size(), Size);
}

TEST(ObjectSet, PositionalStabilityAcrossPromotion) {
  // at(Pos) must return the Pos-th *inserted* element forever — the solver
  // replays sets by position while they grow, including across the
  // inline->bitmap promotion.
  ObjectSet S;
  std::vector<uint32_t> Inserted;
  Rng R(31);
  while (Inserted.size() < 400) {
    uint32_t V = static_cast<uint32_t>(R.below(100000));
    if (S.insert(V)) {
      Inserted.push_back(V);
      // Every already-inserted element keeps its position.
      for (uint32_t P = 0; P < Inserted.size(); ++P)
        ASSERT_EQ(S.at(P), Inserted[P]);
    }
  }
  EXPECT_TRUE(S.isBitmap());
}

TEST(ObjectSet, MovedAfterPromotion) {
  // The solver's node array moves its sets when it grows; a promoted set
  // must carry its bitmap along, keep every position, and stay usable.
  ObjectSet S;
  std::vector<uint32_t> Inserted;
  for (uint32_t I = 0; I < 3 * ObjectSet::InlineLimit; ++I) {
    ASSERT_TRUE(S.insert(I * 37 + 5));
    Inserted.push_back(I * 37 + 5);
  }
  ASSERT_TRUE(S.isBitmap());
  size_t Bytes = S.memoryBytes();

  ObjectSet Moved(std::move(S));
  EXPECT_TRUE(Moved.isBitmap());
  EXPECT_EQ(Moved.memoryBytes(), Bytes);
  ASSERT_EQ(Moved.size(), Inserted.size());
  for (uint32_t P = 0; P < Inserted.size(); ++P) {
    EXPECT_EQ(Moved.at(P), Inserted[P]);
    EXPECT_TRUE(Moved.contains(Inserted[P]));
  }
  EXPECT_FALSE(Moved.insert(Inserted.back()));
  EXPECT_TRUE(Moved.insert(1000000));
  EXPECT_EQ(Moved.at(static_cast<uint32_t>(Inserted.size())), 1000000u);

  ObjectSet Assigned;
  Assigned.insert(1);
  Assigned = std::move(Moved);
  EXPECT_TRUE(Assigned.isBitmap());
  EXPECT_FALSE(Assigned.contains(1));
  EXPECT_TRUE(Assigned.contains(1000000));
  EXPECT_EQ(Assigned.size(), Inserted.size() + 1);

  // A vector of sets reallocating moves every element, as Solver::Node's
  // array does.
  std::vector<ObjectSet> Sets(1);
  for (uint32_t V = 0; V <= ObjectSet::InlineLimit; ++V)
    Sets[0].insert(V);
  for (int I = 0; I < 100; ++I)
    Sets.emplace_back();
  ASSERT_TRUE(Sets[0].isBitmap());
  for (uint32_t V = 0; V <= ObjectSet::InlineLimit; ++V) {
    EXPECT_EQ(Sets[0].at(V), V);
    EXPECT_FALSE(Sets[0].insert(V));
  }
}

TEST(ObjectSet, MemoryBytesInlineAndPromoted) {
  ObjectSet S;
  EXPECT_EQ(S.memoryBytes(), 0u);
  // Inline: only the order buffer, which holds at least the elements.
  for (uint32_t I = 0; I < ObjectSet::InlineLimit; ++I)
    S.insert(I);
  size_t Inline = S.memoryBytes();
  EXPECT_GE(Inline, ObjectSet::InlineLimit * sizeof(uint32_t));
  EXPECT_LT(Inline, 4 * ObjectSet::InlineLimit * sizeof(uint32_t));

  // Promoted: the order buffer plus one 512-bit chunk and its directory
  // entry, at least.
  S.insert(ObjectSet::InlineLimit);
  ASSERT_TRUE(S.isBitmap());
  size_t Promoted = S.memoryBytes();
  EXPECT_GE(Promoted, (ObjectSet::InlineLimit + 1) * sizeof(uint32_t) +
                          512 / 8 + sizeof(int32_t));

  // A second chunk far away costs another chunk, not the range between.
  S.insert(1u << 20);
  EXPECT_GE(S.memoryBytes(), Promoted + 512 / 8);
  EXPECT_LT(S.memoryBytes(), Promoted + 64 * 1024);
}

TEST(ObjectSet, DeltaIteration) {
  // The solver's difference propagation: a cursor into [0, size()) sees
  // exactly the suffix of facts inserted since the cursor last caught up,
  // each exactly once, even when inserts interleave with scanning.
  ObjectSet S;
  uint32_t Cursor = 0;
  std::vector<uint32_t> Seen;

  auto Drain = [&] {
    while (Cursor < S.size())
      Seen.push_back(S.at(Cursor++));
  };

  for (uint32_t V : {5u, 3u, 9u})
    S.insert(V);
  Drain();
  EXPECT_EQ(Seen, (std::vector<uint32_t>{5, 3, 9}));

  // New facts (plus duplicates, which must not reappear in the delta).
  S.insert(3);
  S.insert(70);
  S.insert(5);
  S.insert(2000); // crosses nothing yet; still inline
  Drain();
  EXPECT_EQ(Seen, (std::vector<uint32_t>{5, 3, 9, 70, 2000}));

  // Push far past the promotion boundary; the delta suffix must cover
  // every new element exactly once, in insertion order.
  for (uint32_t I = 0; I < 100; ++I)
    S.insert(10000 + I);
  ASSERT_TRUE(S.isBitmap());
  Drain();
  ASSERT_EQ(Seen.size(), 105u);
  for (uint32_t I = 0; I < 100; ++I)
    EXPECT_EQ(Seen[5 + I], 10000 + I);
  EXPECT_EQ(Cursor, S.size());
}

TEST(ObjectSet, SparseIdsFarApart) {
  // The chunked directory must handle ids spread across distant pages
  // without materializing the range in between.
  ObjectSet S;
  std::vector<uint32_t> Ids = {0,       1,        511,      512,
                               513,     1u << 16, 1u << 20, (1u << 20) + 1,
                               3000000, 3000511};
  for (uint32_t V : Ids)
    EXPECT_TRUE(S.insert(V));
  for (uint32_t I = 0; I < 5; ++I)
    EXPECT_TRUE(S.insert(100 + I)); // force promotion past InlineLimit
  for (uint32_t V : Ids)
    EXPECT_TRUE(S.contains(V));
  EXPECT_FALSE(S.contains(2));
  EXPECT_FALSE(S.contains(514));
  EXPECT_FALSE(S.contains(2999999));
  EXPECT_FALSE(S.contains((1u << 20) + 2));
  // Sparse population stays sparse: ten distant ids must cost far less
  // than a dense bitmap over [0, 3000511].
  EXPECT_LT(S.memoryBytes(), 64 * 1024u);
}

TEST(ObjectSet, RandomizedVsUnorderedSet) {
  Rng R(77);
  ObjectSet S;
  std::unordered_set<uint32_t> Ref;
  for (int I = 0; I < 20000; ++I) {
    uint32_t V = static_cast<uint32_t>(R.below(5000));
    EXPECT_EQ(S.insert(V), Ref.insert(V).second);
  }
  EXPECT_EQ(S.size(), Ref.size());
  for (uint32_t V = 0; V < 5000; ++V)
    EXPECT_EQ(S.contains(V), Ref.count(V) != 0);

  // forEach visits each element exactly once.
  std::unordered_set<uint32_t> Visited;
  S.forEach([&](uint32_t V) { EXPECT_TRUE(Visited.insert(V).second); });
  EXPECT_EQ(Visited, Ref);
}

} // namespace
