//===- tests/threadpool_test.cpp - parallel loop --------------------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
// The support/Parallel.h loop the variant matrix fans its cells out on:
// every index runs exactly once at any width, one thread runs inline and
// in order, a throwing call reaches the caller, and --threads=0 resolves
// to the hardware thread count.
//
//===----------------------------------------------------------------------===//

#include "support/Parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

namespace {

using namespace pt;

TEST(ParallelFor, CoversRangeAtAnyWidth) {
  // 0 = one worker per hardware thread; 300 exceeds the range.
  for (unsigned Threads : {0u, 1u, 2u, 5u, 300u}) {
    std::vector<std::atomic<int>> Hits(257);
    parallelFor(Hits.size(), Threads,
                [&Hits](size_t I) { Hits[I].fetch_add(1); });
    for (auto &H : Hits)
      EXPECT_EQ(H.load(), 1) << "threads=" << Threads;
  }
}

TEST(ParallelFor, OneThreadRunsInlineInOrder) {
  std::vector<size_t> Order;
  const std::thread::id Caller = std::this_thread::get_id();
  parallelFor(64, 1, [&](size_t I) {
    EXPECT_EQ(std::this_thread::get_id(), Caller);
    Order.push_back(I);
  });
  ASSERT_EQ(Order.size(), 64u);
  for (size_t I = 0; I < Order.size(); ++I)
    EXPECT_EQ(Order[I], I);
}

TEST(ParallelFor, ExceptionReachesTheCallerAfterTheJoin) {
  for (unsigned Threads : {1u, 4u}) {
    std::atomic<int> Calls{0};
    EXPECT_THROW(parallelFor(100, Threads,
                             [&Calls](size_t I) {
                               Calls.fetch_add(1);
                               if (I == 10)
                                 throw std::runtime_error("cell failed");
                             }),
                 std::runtime_error)
        << "threads=" << Threads;
    EXPECT_GE(Calls.load(), 11) << "threads=" << Threads;
  }
}

TEST(ParallelFor, EmptyRangeRunsNothing) {
  std::atomic<int> Calls{0};
  parallelFor(0, 4, [&Calls](size_t) { Calls.fetch_add(1); });
  EXPECT_EQ(Calls.load(), 0);
}

TEST(ParallelFor, ResolveThreadsMapsZeroToHardware) {
  EXPECT_EQ(resolveThreads(0), hardwareThreads());
  EXPECT_EQ(resolveThreads(1), 1u);
  EXPECT_EQ(resolveThreads(7), 7u);
  EXPECT_GE(hardwareThreads(), 1u);
}

} // namespace
