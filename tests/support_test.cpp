//===- tests/support_test.cpp - Unit tests for src/support ----------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/Cancel.h"
#include "support/Hashing.h"
#include "support/Ids.h"
#include "support/Json.h"
#include "support/Rng.h"
#include "support/StringPool.h"
#include "support/TableWriter.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <unordered_set>

namespace {

using namespace pt;

TEST(Ids, DefaultIsInvalid) {
  VarId V;
  EXPECT_FALSE(V.isValid());
  EXPECT_EQ(V, VarId::invalid());
}

TEST(Ids, FromIndexRoundTrips) {
  HeapId H = HeapId::fromIndex(42);
  EXPECT_TRUE(H.isValid());
  EXPECT_EQ(H.index(), 42u);
}

TEST(Ids, ComparisonAndOrdering) {
  MethodId A = MethodId::fromIndex(1);
  MethodId B = MethodId::fromIndex(2);
  EXPECT_NE(A, B);
  EXPECT_LT(A, B);
  EXPECT_EQ(A, MethodId(1));
}

TEST(Ids, DistinctTagTypesDoNotMix) {
  // Compile-time property: VarId and HeapId are unrelated types.  This test
  // documents it; the static_assert is the actual check.
  static_assert(!std::is_same_v<VarId, HeapId>);
  SUCCEED();
}

TEST(Ids, HashableInUnorderedContainers) {
  std::unordered_set<TypeId> Set;
  Set.insert(TypeId::fromIndex(3));
  Set.insert(TypeId::fromIndex(3));
  Set.insert(TypeId::fromIndex(4));
  EXPECT_EQ(Set.size(), 2u);
}

TEST(StringPool, InternReturnsSameIdForSameText) {
  StringPool Pool;
  StrId A = Pool.intern("hello");
  StrId B = Pool.intern("hello");
  EXPECT_EQ(A, B);
  EXPECT_EQ(Pool.size(), 1u);
}

TEST(StringPool, DistinctTextsGetDistinctIds) {
  StringPool Pool;
  StrId A = Pool.intern("a");
  StrId B = Pool.intern("b");
  EXPECT_NE(A, B);
  EXPECT_EQ(Pool.text(A), "a");
  EXPECT_EQ(Pool.text(B), "b");
}

TEST(StringPool, FindDoesNotIntern) {
  StringPool Pool;
  EXPECT_FALSE(Pool.find("missing").isValid());
  EXPECT_EQ(Pool.size(), 0u);
  StrId A = Pool.intern("present");
  EXPECT_EQ(Pool.find("present"), A);
}

TEST(StringPool, StableTextReferencesAcrossGrowth) {
  StringPool Pool;
  StrId First = Pool.intern("first");
  const std::string *Ptr = &Pool.text(First);
  // Force growth: many short (SSO) strings.
  for (int I = 0; I < 10000; ++I) {
    // Appended: `"s" + std::to_string(I)` trips GCC 12's false
    // -Wrestrict.
    std::string S = "s";
    S += std::to_string(I);
    Pool.intern(S);
  }
  EXPECT_EQ(&Pool.text(First), Ptr);
  EXPECT_EQ(Pool.text(First), "first");
  // Every earlier string still resolves.
  EXPECT_EQ(Pool.find("s123"), Pool.intern("s123"));
  EXPECT_EQ(Pool.size(), 10001u);
}

TEST(Hashing, PackPairRoundTrips) {
  uint64_t P = packPair(0xdeadbeef, 0xfeedface);
  EXPECT_EQ(unpackHi(P), 0xdeadbeefu);
  EXPECT_EQ(unpackLo(P), 0xfeedfaceu);
}

TEST(Hashing, Mix64Nontrivial) {
  // Sequential inputs should produce well-spread outputs.
  std::set<uint64_t> Outputs;
  for (uint64_t I = 0; I < 1000; ++I)
    Outputs.insert(mix64(I));
  EXPECT_EQ(Outputs.size(), 1000u);
}

TEST(Hashing, HashWordsSensitiveToOrder) {
  uint32_t A[3] = {1, 2, 3};
  uint32_t B[3] = {3, 2, 1};
  EXPECT_NE(hashWords(A, 3), hashWords(B, 3));
}

TEST(Hashing, HashWordsSensitiveToLength) {
  uint32_t A[3] = {1, 2, 0};
  EXPECT_NE(hashWords(A, 2), hashWords(A, 3));
}

TEST(Json, EscapeTable) {
  // The one escape table every JSON writer shares (trace, SARIF, checker
  // JSONL, serve replies): two-character escapes, \u00XX for the other
  // control bytes, everything else verbatim.
  EXPECT_EQ(json::escape("plain"), "plain");
  EXPECT_EQ(json::escape(""), "");
  EXPECT_EQ(json::escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json::escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json::escape("a\nb"), "a\\nb");
  EXPECT_EQ(json::escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(json::escape(std::string("a\x01") + "b"), "a\\u0001b");
  EXPECT_EQ(json::escape("a\x01" "b\tc\rd"), "a\\u0001b\\tc\\rd");
  EXPECT_EQ(json::escape("\x7f\xc3\xa9"), "\x7f\xc3\xa9"); // UTF-8 passes.
  std::string Out = "x";
  json::appendEscaped(Out, "\"q\"");
  EXPECT_EQ(Out, "x\\\"q\\\"");
}

TEST(Rng, Deterministic) {
  Rng A(12345);
  Rng B(12345);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Rng, SeedsDiffer) {
  Rng A(1);
  Rng B(2);
  int Same = 0;
  for (int I = 0; I < 64; ++I)
    Same += A.next() == B.next();
  EXPECT_LT(Same, 4);
}

TEST(Rng, BelowStaysInRange) {
  Rng R(7);
  for (int I = 0; I < 10000; ++I)
    EXPECT_LT(R.below(17), 17u);
}

TEST(Rng, BelowCoversRange) {
  Rng R(9);
  std::set<uint64_t> Seen;
  for (int I = 0; I < 2000; ++I)
    Seen.insert(R.below(7));
  EXPECT_EQ(Seen.size(), 7u);
}

TEST(Rng, RangeInclusive) {
  Rng R(11);
  bool SawLo = false, SawHi = false;
  for (int I = 0; I < 5000; ++I) {
    uint64_t V = R.range(3, 5);
    EXPECT_GE(V, 3u);
    EXPECT_LE(V, 5u);
    SawLo |= V == 3;
    SawHi |= V == 5;
  }
  EXPECT_TRUE(SawLo);
  EXPECT_TRUE(SawHi);
}

TEST(Rng, ChancePercentExtremes) {
  Rng R(13);
  for (int I = 0; I < 100; ++I) {
    EXPECT_FALSE(R.chancePercent(0));
    EXPECT_TRUE(R.chancePercent(100));
  }
}

TEST(Rng, UnitInHalfOpenInterval) {
  Rng R(17);
  for (int I = 0; I < 10000; ++I) {
    double U = R.unit();
    EXPECT_GE(U, 0.0);
    EXPECT_LT(U, 1.0);
  }
}

TEST(TableWriter, AlignsColumns) {
  TableWriter T;
  T.setHeader({"name", "value"});
  T.addRow({"a", "1"});
  T.addRow({"long-name", "22"});
  std::ostringstream OS;
  T.print(OS);
  std::string Out = OS.str();
  EXPECT_NE(Out.find("name"), std::string::npos);
  EXPECT_NE(Out.find("long-name"), std::string::npos);
  // Right-aligned numeric column: " 1" (padded to width of "value").
  EXPECT_NE(Out.find("    1"), std::string::npos);
}

TEST(TableWriter, CsvHasNoPadding) {
  TableWriter T;
  T.setHeader({"a", "b"});
  T.addRow({"x", "1"});
  T.addSeparator();
  T.addRow({"y", "2"});
  std::ostringstream OS;
  T.printCsv(OS);
  EXPECT_EQ(OS.str(), "a,b\nx,1\ny,2\n");
}

TEST(TableWriter, RowCountIgnoresSeparators) {
  TableWriter T;
  T.addRow({"x"});
  T.addSeparator();
  T.addRow({"y"});
  EXPECT_EQ(T.rowCount(), 2u);
}

TEST(Formatting, FormatFixed) {
  EXPECT_EQ(formatFixed(3.14159, 2), "3.14");
  EXPECT_EQ(formatFixed(2.0, 0), "2");
}

TEST(Formatting, FormatFixedOrDash) {
  EXPECT_EQ(formatFixedOrDash(1.5, 1), "1.5");
  EXPECT_EQ(formatFixedOrDash(-1.0, 1), "-");
}

TEST(Timer, StopwatchAdvances) {
  Stopwatch W;
  volatile uint64_t Sink = 0;
  for (int I = 0; I < 100000; ++I)
    Sink = Sink + I;
  EXPECT_GE(W.elapsedMs(), 0.0);
  EXPECT_GE(W.elapsedSeconds(), 0.0);
}

TEST(Timer, UnlimitedDeadlineNeverExpires) {
  Deadline D;
  EXPECT_TRUE(D.unlimited());
  EXPECT_FALSE(D.expired());
}

TEST(Timer, TinyDeadlineExpires) {
  Deadline D(1);
  volatile uint64_t Sink = 0;
  while (!D.expired())
    Sink = Sink + 1;
  EXPECT_TRUE(D.expired());
}

TEST(Cancel, FreshTokenNotCancelled) {
  CancelToken T;
  EXPECT_FALSE(T.cancelled());
  T.cancel();
  EXPECT_TRUE(T.cancelled());
}

TEST(Cancel, DeadlineTripsAndRearms) {
  CancelToken T;
  T.setDeadlineMs(1);
  volatile uint64_t Sink = 0;
  while (!T.cancelled())
    Sink = Sink + 1;
  EXPECT_TRUE(T.cancelled());
  // Re-arming relative to now un-trips an expired (but not flagged) token.
  T.setDeadlineMs(60000);
  EXPECT_FALSE(T.cancelled());
  T.setDeadlineMs(0); // disarm
  EXPECT_FALSE(T.cancelled());
}

// Regression: the pre-daemon token kept an expired deadline armed across
// reset(), so every run after the first expiry aborted instantly.  A
// resident server re-arms one guard per request; the second deadline must
// time out on its own schedule, not the first one's.
TEST(Cancel, SecondDeadlineFiresAfterReset) {
  CancelToken T;
  T.setDeadlineMs(1);
  volatile uint64_t Sink = 0;
  while (!T.cancelled())
    Sink = Sink + 1;
  T.reset();
  EXPECT_FALSE(T.cancelled()) << "reset must disarm the spent deadline";
  T.setDeadlineMs(60000);
  EXPECT_FALSE(T.cancelled()) << "second arming must start from now";
  T.setDeadlineMs(1);
  while (!T.cancelled())
    Sink = Sink + 1;
  EXPECT_TRUE(T.cancelled()) << "second deadline must still fire";
}

TEST(Cancel, ParentTripPropagatesAndSurvivesReset) {
  CancelToken Parent;
  CancelToken Child(&Parent);
  EXPECT_FALSE(Child.cancelled());
  Parent.cancel();
  EXPECT_TRUE(Child.cancelled());
  // reset() clears only the child's own state: a drained process stays
  // drained for every per-request token chained under it.
  Child.reset();
  EXPECT_TRUE(Child.cancelled());
  Child.setParent(nullptr);
  EXPECT_FALSE(Child.cancelled());
}

} // namespace
