//===- support/Parallel.h - Parallel loop over independent jobs -*- C++ -*-===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A plain parallel loop for the harnesses' independent jobs (one whole
/// Table 1 cell each): workers claim indices from one shared atomic
/// counter until the range is exhausted.  No job submits more work, so
/// there is no queue, no stealing and no termination detection; the
/// caller joins the workers.  Also the one interpretation of a
/// user-facing --threads value, shared by every tool.
///
//===----------------------------------------------------------------------===//

#ifndef HYBRIDPT_SUPPORT_PARALLEL_H
#define HYBRIDPT_SUPPORT_PARALLEL_H

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace pt {

/// Hardware concurrency with a floor of one.
inline unsigned hardwareThreads() {
  unsigned N = std::thread::hardware_concurrency();
  return N == 0 ? 1 : N;
}

/// Canonical interpretation of a user-facing --threads value: 0 means
/// one worker per hardware thread, anything else is taken literally.
/// Every --threads flag (hybridpt, table1_main) resolves through this,
/// in pta/Flags.cpp, so the default cannot drift per tool (docs/PERF.md).
inline unsigned resolveThreads(unsigned Requested) {
  return Requested == 0 ? hardwareThreads() : Requested;
}

/// Runs \p Fn(i) for every i in [0, N) across \p Threads workers (0 = one
/// per hardware thread) and returns when all calls have finished.  With
/// one thread the calls happen inline, in order.  If a call throws, no
/// further indices are claimed, and the first exception is rethrown once
/// every worker has been joined.
template <typename Callback>
void parallelFor(size_t N, unsigned Threads, Callback &&Fn) {
  size_t Workers = std::min<size_t>(resolveThreads(Threads), N);
  if (Workers <= 1) {
    for (size_t I = 0; I < N; ++I)
      Fn(I);
    return;
  }
  std::atomic<size_t> Next{0};
  std::mutex ErrorMu;
  std::exception_ptr Error;
  auto Drain = [&] {
    try {
      for (size_t I; (I = Next.fetch_add(1, std::memory_order_relaxed)) < N;)
        Fn(I);
    } catch (...) {
      Next.store(N, std::memory_order_relaxed);
      std::lock_guard<std::mutex> Lock(ErrorMu);
      if (!Error)
        Error = std::current_exception();
    }
  };
  std::vector<std::thread> Pool;
  Pool.reserve(Workers - 1);
  for (size_t W = 1; W < Workers; ++W)
    Pool.emplace_back(Drain);
  Drain();
  for (std::thread &T : Pool)
    T.join();
  if (Error)
    std::rethrow_exception(Error);
}

} // namespace pt

#endif // HYBRIDPT_SUPPORT_PARALLEL_H
