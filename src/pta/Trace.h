//===- pta/Trace.h - Solver trace recording and export ----------*- C++ -*-===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The observability sink for solver runs: a thread-safe \c TraceRecorder
/// that collects phase/cell spans (parse, fact-gen, solve, metrics, one
/// span per matrix cell) and solver heartbeats, streams them as JSONL to
/// \c --trace-out while the run is live, and exports the whole timeline as
/// a Chrome trace-event file (\c chrome://tracing / Perfetto) so a Table 1
/// matrix run renders as a flame view of cells across worker threads.
///
/// Everything is pull-free: the solver pushes heartbeats at its own pace
/// (every N worklist steps or T milliseconds, see \c SolverOptions), spans
/// are RAII (\c TraceRecorder::Span), and a null recorder pointer makes
/// every call site a no-op — hot paths never test more than one pointer.
///
/// JSONL schema and the counter glossary live in docs/OBSERVABILITY.md.
///
//===----------------------------------------------------------------------===//

#ifndef HYBRIDPT_PTA_TRACE_H
#define HYBRIDPT_PTA_TRACE_H

#include "support/Telemetry.h"
#include "support/Timer.h"

#include <cstdint>
#include <fstream>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

namespace pt::trace {

/// One solver heartbeat: a point-in-time snapshot of the fixpoint loop.
struct Heartbeat {
  std::string Label;     ///< Cell label, e.g. "luindex/2obj+H".
  uint64_t Step = 0;     ///< Worklist steps taken so far.
  uint64_t WorklistDepth = 0;
  uint64_t Nodes = 0;    ///< Interned solver nodes.
  uint64_t Facts = 0;    ///< Points-to facts inserted.
  uint64_t Objects = 0;  ///< Interned (heap, hctx) objects.
  uint64_t MemoryBytes = 0; ///< Live container bytes (ObjectSet + FlatMap).
  bool Final = false;    ///< Emitted at end of solve (or on abort).
  /// abortReasonName() of the run's abort on the final heartbeat of an
  /// aborted run; empty otherwise (serialized as "abort_reason").
  std::string Abort;
  telemetry::SolverCounters Totals; ///< Cumulative counters.
  telemetry::SolverCounters Deltas; ///< Change since the prior heartbeat.
  double TMs = 0.0;      ///< Recorder-relative time; filled on record.
};

/// One served request's latency record (docs/SERVING.md): what the daemon
/// streams per answered request instead of solver heartbeats — requests
/// mostly hit warm caches, so the interesting signal is admission-to-reply
/// latency, not worklist progress.
struct RequestRecord {
  uint64_t Id = 0;          ///< Client-chosen request id.
  std::string Kind;         ///< "points-to", "lint", "reload", ...
  std::string Policy;       ///< Policy the answer describes ("" if n/a).
  uint64_t EpochId = 0;     ///< Epoch the answer was computed against.
  std::string Outcome;      ///< "ok", "degraded", "error", "shed".
  std::string Code;         ///< Error code for error/shed outcomes.
  bool CacheHit = false;    ///< Answered from the epoch's result cache.
  double QueueMs = 0.0;     ///< Admission-to-dispatch wait.
  double LatencyMs = 0.0;   ///< Admission-to-reply total.
};

/// Thread-safe trace sink shared by one harness run.
class TraceRecorder {
public:
  TraceRecorder();
  ~TraceRecorder();

  TraceRecorder(const TraceRecorder &) = delete;
  TraceRecorder &operator=(const TraceRecorder &) = delete;

  /// Starts streaming JSONL records to \p Path (truncates).  Returns
  /// false and sets \p Error when the file cannot be opened.
  bool openJsonl(const std::string &Path, std::string &Error);

  /// Mirrors every heartbeat as a one-line progress report on \p OS
  /// (typically stderr) — the long-cell liveness signal.
  void enableProgress(std::ostream &OS);

  /// Milliseconds since recorder construction (the trace epoch).
  double nowMs() const { return Epoch.elapsedMs(); }

  /// Records a span open/close pair on the calling thread's timeline.
  /// Prefer the RAII \c Span wrapper.
  void beginSpan(std::string_view Name, std::string_view Cat);
  void endSpan(std::string_view Name, std::string_view Cat, double StartMs);

  /// Records a heartbeat (streams a JSONL line, remembers it as the
  /// label's latest, mirrors to the progress stream when enabled).
  void heartbeat(Heartbeat HB);

  /// Records a cell's final aggregate counters.
  void counters(std::string_view Label,
                const telemetry::SolverCounters &Counters);

  /// Records one served request (streams a {"type":"request",...} JSONL
  /// line; mirrored to the progress stream when enabled).
  void request(const RequestRecord &R);

  /// Records one fallback-ladder transition for \p Label: rung \p From
  /// aborted for \p Reason after \p SolveMs and the ladder moved on to
  /// \p To ("" = ladder exhausted).  See docs/ROBUSTNESS.md.
  void ladder(std::string_view Label, std::string_view From,
              std::string_view To, std::string_view Reason, double SolveMs);

  /// Copies the most recent heartbeat recorded under \p Label; false when
  /// none was seen (e.g. telemetry compiled out).
  bool lastHeartbeat(std::string_view Label, Heartbeat &Out) const;

  /// Writes the accumulated timeline as a Chrome trace-event JSON file
  /// (begin/end pairs per span, counter series per heartbeat label).
  bool writeChromeTrace(const std::string &Path, std::string &Error) const;

  size_t numSpans() const;
  size_t numHeartbeats() const;

  /// RAII span; a null recorder makes it a no-op.
  class Span {
  public:
    Span(TraceRecorder *Rec, std::string_view Name, std::string_view Cat)
        : Rec(Rec), Name(Name), Cat(Cat) {
      if (Rec) {
        StartMs = Rec->nowMs();
        Rec->beginSpan(this->Name, this->Cat);
      }
    }
    ~Span() {
      if (Rec)
        Rec->endSpan(Name, Cat, StartMs);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    TraceRecorder *Rec;
    std::string Name;
    std::string Cat;
    double StartMs = 0.0;
  };

private:
  enum class Phase : uint8_t { Begin, End, Counter };

  /// One Chrome trace event, recorded in real time so per-thread begin/end
  /// sequences are well-nested by construction.
  struct Event {
    Phase Ph;
    std::string Name;
    std::string Cat;
    uint32_t Tid;
    double TsMs;
    std::string ArgsJson; ///< Preformatted {"k":v,...}; empty = no args.
  };

  /// Sequential id for the calling thread (first use registers).
  /// Caller must hold Mu.
  uint32_t tidLocked();

  /// Appends one JSONL line (caller must hold Mu).
  void writeLineLocked(const std::string &Line);

  Stopwatch Epoch;
  mutable std::mutex Mu;
  std::vector<Event> Events;
  std::unordered_map<std::string, Heartbeat> LastByLabel;
  std::unordered_map<std::thread::id, uint32_t> TidByThread;
  size_t HeartbeatCount = 0;
  size_t SpanCount = 0;
  std::ofstream Jsonl;
  bool JsonlOpen = false;
  std::ostream *Progress = nullptr;
};

} // namespace pt::trace

#endif // HYBRIDPT_PTA_TRACE_H
