//===- pta/Trace.cpp -------------------------------------------------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//

#include "pta/Trace.h"

#include "support/Json.h"

#include <cstdio>
#include <sstream>

using namespace pt;
using namespace pt::trace;

namespace {

/// {"rule_alloc":1,...} over all counters.
std::string countersJson(const telemetry::SolverCounters &C) {
  std::ostringstream OS;
  OS << '{';
  bool First = true;
  telemetry::forEachCounter(C, [&](const char *Name, uint64_t V) {
    if (!First)
      OS << ',';
    First = false;
    OS << '"' << Name << "\":" << V;
  });
  OS << '}';
  return OS.str();
}

/// Compact human form for progress lines: 1234 -> "1.2K", etc.
std::string humanCount(uint64_t N) {
  char Buf[32];
  if (N >= 1000000000)
    std::snprintf(Buf, sizeof(Buf), "%.1fG", static_cast<double>(N) / 1e9);
  else if (N >= 1000000)
    std::snprintf(Buf, sizeof(Buf), "%.1fM", static_cast<double>(N) / 1e6);
  else if (N >= 1000)
    std::snprintf(Buf, sizeof(Buf), "%.1fK", static_cast<double>(N) / 1e3);
  else
    std::snprintf(Buf, sizeof(Buf), "%llu",
                  static_cast<unsigned long long>(N));
  return Buf;
}

std::string formatDouble(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.3f", V);
  return Buf;
}

} // namespace

TraceRecorder::TraceRecorder() = default;

TraceRecorder::~TraceRecorder() {
  std::lock_guard<std::mutex> Lock(Mu);
  if (JsonlOpen)
    Jsonl.flush();
}

bool TraceRecorder::openJsonl(const std::string &Path, std::string &Error) {
  std::lock_guard<std::mutex> Lock(Mu);
  Jsonl.open(Path, std::ios::trunc);
  if (!Jsonl) {
    Error = "cannot write '" + Path + "'";
    return false;
  }
  JsonlOpen = true;
  Jsonl << "{\"type\":\"meta\",\"version\":1,\"telemetry\":"
        << (telemetry::SolverCounters::enabled() ? "true" : "false")
        << ",\"time_unit\":\"ms\"}\n";
  return true;
}

void TraceRecorder::enableProgress(std::ostream &OS) {
  std::lock_guard<std::mutex> Lock(Mu);
  Progress = &OS;
}

uint32_t TraceRecorder::tidLocked() {
  auto [It, Inserted] = TidByThread.try_emplace(
      std::this_thread::get_id(),
      static_cast<uint32_t>(TidByThread.size()));
  (void)Inserted;
  return It->second;
}

void TraceRecorder::writeLineLocked(const std::string &Line) {
  if (!JsonlOpen)
    return;
  Jsonl << Line << '\n';
  // Flush every record: the stream exists to observe runs that may never
  // finish, so buffered-but-unwritten lines defeat the purpose.
  Jsonl.flush();
}

void TraceRecorder::beginSpan(std::string_view Name, std::string_view Cat) {
  std::lock_guard<std::mutex> Lock(Mu);
  Events.push_back({Phase::Begin, std::string(Name), std::string(Cat),
                    tidLocked(), nowMs(), {}});
}

void TraceRecorder::endSpan(std::string_view Name, std::string_view Cat,
                            double StartMs) {
  std::lock_guard<std::mutex> Lock(Mu);
  double End = nowMs();
  uint32_t Tid = tidLocked();
  Events.push_back({Phase::End, std::string(Name), std::string(Cat), Tid,
                    End, {}});
  ++SpanCount;
  std::ostringstream OS;
  OS << "{\"type\":\"span\",\"name\":\"" << json::escape(Name)
     << "\",\"cat\":\"" << json::escape(Cat) << "\",\"tid\":" << Tid
     << ",\"t_start_ms\":" << formatDouble(StartMs)
     << ",\"t_end_ms\":" << formatDouble(End)
     << ",\"dur_ms\":" << formatDouble(End - StartMs) << '}';
  writeLineLocked(OS.str());
}

void TraceRecorder::heartbeat(Heartbeat HB) {
  std::lock_guard<std::mutex> Lock(Mu);
  HB.TMs = nowMs();
  uint32_t Tid = tidLocked();
  ++HeartbeatCount;

  // Chrome counter series: one event per heartbeat, keyed by label.
  {
    std::ostringstream Args;
    Args << "{\"facts\":" << HB.Facts << ",\"worklist\":" << HB.WorklistDepth
         << ",\"memory_mb\":"
         << formatDouble(static_cast<double>(HB.MemoryBytes) / 1e6) << '}';
    Events.push_back({Phase::Counter, HB.Label, "heartbeat", Tid, HB.TMs,
                      Args.str()});
  }

  std::ostringstream OS;
  OS << "{\"type\":\"heartbeat\",\"label\":\"" << json::escape(HB.Label)
     << "\",\"tid\":" << Tid << ",\"t_ms\":" << formatDouble(HB.TMs)
     << ",\"step\":" << HB.Step << ",\"worklist\":" << HB.WorklistDepth
     << ",\"nodes\":" << HB.Nodes << ",\"facts\":" << HB.Facts
     << ",\"objects\":" << HB.Objects
     << ",\"memory_bytes\":" << HB.MemoryBytes
     << ",\"final\":" << (HB.Final ? "true" : "false");
  if (!HB.Abort.empty())
    OS << ",\"abort_reason\":\"" << json::escape(HB.Abort) << '"';
  OS << ",\"delta\":" << countersJson(HB.Deltas)
     << ",\"total\":" << countersJson(HB.Totals) << '}';
  writeLineLocked(OS.str());

  if (Progress) {
    // Render the whole line first and emit it as ONE stream insertion:
    // stderr is typically unbuffered, so piecewise insertions become
    // separate writes that interleave across cells at --threads > 1 (Mu
    // only serializes this recorder, not other writers of the fd).
    std::ostringstream Line;
    Line << "[hb] " << HB.Label << ": t=" << formatDouble(HB.TMs / 1000.0)
         << "s steps=" << humanCount(HB.Step)
         << " wl=" << humanCount(HB.WorklistDepth)
         << " facts=" << humanCount(HB.Facts)
         << " nodes=" << humanCount(HB.Nodes) << " mem="
         << formatDouble(static_cast<double>(HB.MemoryBytes) / 1e6) << "MB"
         << (HB.Final ? " (final)" : "");
    if (!HB.Abort.empty())
      Line << " abort=" << HB.Abort;
    Line << '\n';
    *Progress << Line.str() << std::flush;
  }

  LastByLabel[HB.Label] = std::move(HB);
}

void TraceRecorder::counters(std::string_view Label,
                             const telemetry::SolverCounters &Counters) {
  std::lock_guard<std::mutex> Lock(Mu);
  std::ostringstream OS;
  OS << "{\"type\":\"counters\",\"label\":\"" << json::escape(Label)
     << "\",\"tid\":" << tidLocked() << ",\"t_ms\":" << formatDouble(nowMs())
     << ",\"counters\":" << countersJson(Counters) << '}';
  writeLineLocked(OS.str());
}

void TraceRecorder::request(const RequestRecord &R) {
  std::lock_guard<std::mutex> Lock(Mu);
  std::ostringstream OS;
  OS << "{\"type\":\"request\",\"id\":" << R.Id << ",\"kind\":\""
     << json::escape(R.Kind) << "\",\"policy\":\"" << json::escape(R.Policy)
     << "\",\"epoch\":" << R.EpochId << ",\"outcome\":\""
     << json::escape(R.Outcome) << '"';
  if (!R.Code.empty())
    OS << ",\"code\":\"" << json::escape(R.Code) << '"';
  OS << ",\"cache_hit\":" << (R.CacheHit ? "true" : "false")
     << ",\"tid\":" << tidLocked() << ",\"t_ms\":" << formatDouble(nowMs())
     << ",\"queue_ms\":" << formatDouble(R.QueueMs)
     << ",\"latency_ms\":" << formatDouble(R.LatencyMs) << '}';
  writeLineLocked(OS.str());
  if (Progress) {
    std::ostringstream Line;
    Line << "[req] #" << R.Id << ' ' << R.Kind << ' ' << R.Outcome << " in "
         << formatDouble(R.LatencyMs) << "ms"
         << (R.CacheHit ? " (cached)" : "") << '\n';
    *Progress << Line.str() << std::flush;
  }
}

void TraceRecorder::ladder(std::string_view Label, std::string_view From,
                           std::string_view To, std::string_view Reason,
                           double SolveMs) {
  std::lock_guard<std::mutex> Lock(Mu);
  std::ostringstream OS;
  OS << "{\"type\":\"ladder\",\"label\":\"" << json::escape(Label)
     << "\",\"tid\":" << tidLocked() << ",\"t_ms\":" << formatDouble(nowMs())
     << ",\"from\":\"" << json::escape(From) << "\",\"to\":\""
     << json::escape(To) << "\",\"reason\":\"" << json::escape(Reason)
     << "\",\"solve_ms\":" << formatDouble(SolveMs) << '}';
  writeLineLocked(OS.str());
  if (Progress) {
    // Same single-write discipline as the heartbeat lines above.
    std::ostringstream Line;
    Line << "[ladder] " << Label << ": " << From << " aborted (" << Reason
         << ") after " << formatDouble(SolveMs) << "ms";
    if (To.empty())
      Line << ", ladder exhausted";
    else
      Line << ", falling back to " << To;
    Line << '\n';
    *Progress << Line.str() << std::flush;
  }
}

bool TraceRecorder::lastHeartbeat(std::string_view Label,
                                  Heartbeat &Out) const {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = LastByLabel.find(std::string(Label));
  if (It == LastByLabel.end())
    return false;
  Out = It->second;
  return true;
}

size_t TraceRecorder::numSpans() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return SpanCount;
}

size_t TraceRecorder::numHeartbeats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return HeartbeatCount;
}

bool TraceRecorder::writeChromeTrace(const std::string &Path,
                                     std::string &Error) const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::ofstream OS(Path, std::ios::trunc);
  if (!OS) {
    Error = "cannot write '" + Path + "'";
    return false;
  }
  // Events are emitted in recorded order: per (pid, tid) the begin/end
  // sequence is exactly the call order of the RAII spans, so nesting is
  // well-formed by construction.  Timestamps are microseconds (the trace
  // event format's unit).
  OS << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool First = true;
  for (const Event &E : Events) {
    if (!First)
      OS << ",\n";
    First = false;
    const char *Ph = E.Ph == Phase::Begin ? "B"
                     : E.Ph == Phase::End ? "E"
                                          : "C";
    OS << "{\"name\":\"" << json::escape(E.Name) << "\",\"cat\":\""
       << json::escape(E.Cat) << "\",\"ph\":\"" << Ph
       << "\",\"pid\":1,\"tid\":" << E.Tid
       << ",\"ts\":" << formatDouble(E.TsMs * 1000.0);
    if (!E.ArgsJson.empty())
      OS << ",\"args\":" << E.ArgsJson;
    OS << '}';
  }
  OS << "\n]}\n";
  if (!OS) {
    Error = "short write to '" + Path + "'";
    return false;
  }
  return true;
}
