//===- serve/Server.h - Resident analysis server ----------------*- C++ -*-===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fault-tolerant core of the resident analysis daemon
/// (docs/SERVING.md).  A \c Server owns the current program epoch, a
/// bounded admission queue drained by a worker pool, and the LRU result
/// cache; the front doors (stdio NDJSON, unix socket — see
/// tools/hybridpt_serve.cpp) feed request lines in and pass a reply sink
/// out, so every transport shares one robustness story:
///
///  - **Strict admission.**  Malformed lines are answered with structured
///    error replies without consuming a queue slot.  A full queue sheds
///    the request ("overloaded" + retry_after_ms) instead of growing
///    without bound; a draining server rejects new work ("draining") while
///    in-flight requests complete.
///  - **Per-request guards.**  Every work request runs under its own
///    re-armable \c CancelToken (deadline from the request or the server
///    default) chained to the process token, plus solver time/fact/memory
///    budgets.  A budget-blown solve descends the fallback ladder and the
///    reply says so ("degraded": requested vs landed policy); cancellation
///    never ladders (docs/ROBUSTNESS.md) and yields a "cancelled" error.
///  - **Epoch snapshots.**  Requests capture their epoch at admission;
///    reload swaps the epoch and clears the cache atomically while
///    in-flight requests finish against the old program (serve/Epoch.h).
///  - **Fault injection.**  A \c RequestFaultPlan maps admitted-request
///    ordinals to solver fault plans; a faulted request bypasses the cache
///    in both directions (never reads a clean answer, never poisons the
///    cache) so its neighbors stay bit-identical to batch runs.
///
//===----------------------------------------------------------------------===//

#ifndef HYBRIDPT_SERVE_SERVER_H
#define HYBRIDPT_SERVE_SERVER_H

#include "pta/Pipeline.h"
#include "pta/Trace.h"
#include "serve/Epoch.h"
#include "serve/Protocol.h"
#include "support/Cancel.h"
#include "support/FaultPlan.h"
#include "support/Timer.h"

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace pt::serve {

/// Tuning knobs of one server instance.
struct ServerOptions {
  /// Program to load as epoch 1 (benchmark name or PTIR file).
  std::string ProgramSpec;
  /// The analysis a request gets by default (pta/Pipeline.h): the policy
  /// used when a request names none, the solver budgets (0 = unlimited,
  /// overridable per request) and the fallback ladder, on by default so a
  /// budget-blown solve descends instead of failing.
  AnalysisConfig Analysis = {"2obj+H", {}, /*Ladder=*/true, {}};
  /// Worker threads draining the admission queue.
  unsigned Workers = 2;
  /// Admission queue bound; a full queue sheds ("overloaded").
  size_t QueueLimit = 64;
  /// Result cache capacity in entries.
  size_t CacheEntries = 32;
  /// Default per-request wall-clock deadline (0 = none).
  uint64_t DefaultDeadlineMs = 0;
  /// Suggested client back-off stamped on shed replies.
  uint64_t RetryAfterMs = 50;
  /// Per-request fault schedule (testing; docs/ROBUSTNESS.md).
  RequestFaultPlan Faults;
  /// Request-latency trace sink; may be null.
  trace::TraceRecorder *Trace = nullptr;
  /// Process-wide cancel token (SIGINT); chained under every per-request
  /// token so one trip cancels all in-flight work.  May be null.
  const CancelToken *ProcessCancel = nullptr;
};

/// The resident server core.  Thread-safe: front doors may call
/// \c handleLine concurrently from any number of transport threads.
class Server {
public:
  /// Reply sink: receives one complete JSON line (no trailing newline).
  /// Must be thread-safe — workers call it from the pool.
  using ReplyFn = std::function<void(const std::string &)>;

  explicit Server(ServerOptions Opts);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Loads epoch 1 and spawns the workers.  False + \p Error on failure.
  bool start(std::string &Error);

  /// Handles one request line: replies inline (errors, health, drain,
  /// reload, shed) or enqueues work.  Returns false when the line was a
  /// drain request — the transport should stop reading and call
  /// \c drain().
  bool handleLine(std::string_view Line, ReplyFn Reply);

  /// Stops admitting new work and blocks until the queue is empty and all
  /// in-flight requests have replied.
  void drain();

  /// Drains and joins the workers.  Idempotent; the destructor calls it.
  void shutdown();

  bool draining() const;
  uint64_t epochId() const;

  struct Stats {
    uint64_t Admitted = 0; ///< Work requests accepted into the queue.
    uint64_t Replied = 0;  ///< Work requests answered (ok or error).
    uint64_t Shed = 0;     ///< Rejected on a full queue.
    uint64_t Errors = 0;   ///< Non-ok work replies (incl. cancelled).
    uint64_t Degraded = 0; ///< Ok replies that landed a ladder rung.
    uint64_t Faulted = 0;  ///< Requests that ran under an injected plan.
  };
  Stats stats() const;
  ResultCache::Stats cacheStats() const { return Cache.stats(); }

private:
  struct Job {
    Request Req;
    ReplyFn Reply;
    std::shared_ptr<const Epoch> Ep;
    uint64_t Ordinal = 0; ///< Admission ordinal (fault-plan key).
    double AdmitMs = 0.0;
    double DispatchMs = 0.0;
  };

  /// Outcome of one executed work request, folded into the reply.
  struct Outcome {
    bool Ok = false;
    ErrorCode Code = ErrorCode::Internal;
    std::string Error;
    std::vector<std::string> Lines;
    std::string Policy;       ///< Policy the answer describes.
    std::string FallbackFrom; ///< Non-empty on a degraded answer.
    bool CacheHit = false;
    bool Faulted = false;
  };

  void workerLoop();
  void execute(Job &Job);
  Outcome runWork(const Job &Job, CancelToken &Tok, const FaultPlan *Fault);

  /// The solve behind points-to/callgraph/lint: cache-aware, in-flight
  /// deduplicated, ladder-enabled.  On failure fills \p Out's error
  /// fields and returns nullptr.
  std::shared_ptr<const CacheEntry> solveCell(const Job &Job,
                                              const std::string &Policy,
                                              CancelToken &Tok,
                                              const FaultPlan *Fault,
                                              Outcome &Out);

  Outcome runPointsTo(const Job &Job, CancelToken &Tok,
                      const FaultPlan *Fault);
  Outcome runCallGraph(const Job &Job, CancelToken &Tok,
                       const FaultPlan *Fault);
  Outcome runLint(const Job &Job, CancelToken &Tok, const FaultPlan *Fault);
  Outcome runCompare(const Job &Job, CancelToken &Tok,
                     const FaultPlan *Fault);

  std::string handleHealth(const Request &Req);
  std::string handleReload(const Request &Req);

  /// The daemon's analysis defaults under \p Req's budget overrides,
  /// solving \p Policy.
  AnalysisConfig analysisConfig(const Request &Req, const std::string &Policy,
                                CancelToken &Tok,
                                const FaultPlan *Fault) const;
  std::string requestedPolicy(const Request &Req) const {
    return Req.Policy.empty() ? Opts.Analysis.Policy : Req.Policy;
  }

  ServerOptions Opts;
  Stopwatch Clock;
  ResultCache Cache;

  mutable std::mutex Mu;
  std::condition_variable QueueCv; ///< Workers wait for jobs.
  std::condition_variable IdleCv;  ///< drain() waits for quiescence.
  std::deque<Job> Queue;
  std::vector<std::thread> Pool;
  std::shared_ptr<const Epoch> Current;
  uint64_t NextEpochId = 1;
  uint64_t WorkOrdinal = 0;
  size_t InFlight = 0;
  bool Draining = false;
  bool Stopping = false;
  bool Started = false;
  Stats Counters;

  /// In-flight solve dedup: a second request for a key being solved waits
  /// for the first instead of burning a worker on the same fixpoint.
  std::mutex GateMu;
  std::condition_variable GateCv;
  std::set<std::string> SolvingKeys;
};

} // namespace pt::serve

#endif // HYBRIDPT_SERVE_SERVER_H
