//===- benchmark/hybridpt_bench.cpp - End-to-end + per-layer benchmark ----===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// hybridpt-bench: the repository's benchmark (benchmark/README.md).  Four
/// workloads drive the analysis along its user paths and report end-to-end
/// metrics from untraced runs plus per-layer metrics from a traced run:
///
///   table1-heavy  bloat, chart and xalan under the fourteen Table 1
///                 policies, one thread: createPolicy -> solveProgram ->
///                 computeMetrics per cell.
///   lint-sarif    the `hybridpt-lint --provenance --format sarif` path
///                 over every benchmark but bloat (PTIR text -> parse -> taint
///                 instrumentation -> provenance solve -> checkers ->
///                 derivation flows -> SARIF into a hashing sink).
///   serve-warm    hybridpt-serve on xalan, closed loop with 2 requests
///                 outstanding over a seeded points-to/lint/callgraph/
///                 compare/health mix; everything is a cache hit.
///   serve-churn   the same stream with a reload every 100 requests, so
///                 every epoch re-solves cold.
///
/// Every layer is timed from outside: spans wrap this file's calls into
/// each module's public functions (the daemon is timed through its own
/// request records).  Outputs are checked: Table 1 cells and lint reports
/// against benchmark/expected/, daemon replies against an in-process
/// serve::Canon recompute.  Any failure makes the exit status nonzero.
///
///   hybridpt-bench --workload NAME [--seed N] [--seconds S]
///                  [--trace-out FILE] [--json OUT] [--serve-bin PATH]
///                  [--expected-dir DIR] [--commit SHA] [--update-expected]
///   hybridpt-bench --smoke [--serve-bin PATH] [--expected-dir DIR]
///   hybridpt-bench --self-test
///
/// With --trace-out the run measures twice, untraced and then traced: the
/// end-to-end metrics come from the untraced phase, the per-layer metrics
/// and the tracing overhead from the traced one.
///
//===----------------------------------------------------------------------===//

#include "checks/Driver.h"
#include "checks/Flow.h"
#include "checks/Sarif.h"
#include "context/PolicyRegistry.h"
#include "ir/Program.h"
#include "irtext/TextFormat.h"
#include "pta/Metrics.h"
#include "pta/Solver.h"
#include "serve/Canon.h"
#include "serve/Epoch.h"
#include "serve/Protocol.h"
#include "support/Hashing.h"
#include "support/Json.h"
#include "support/Timer.h"
#include "taint/Taint.h"
#include "workloads/Profiles.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fcntl.h>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <poll.h>
#include <random>
#include <sched.h>
#include <sstream>
#include <streambuf>
#include <string>
#include <sys/resource.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace pt;

namespace {

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

/// The benchmark's one percentile rule: linear interpolation between the
/// closest ranks of the sorted samples, rank = p * (n - 1) (Hyndman-Fan
/// type 7, numpy's default).  An empty sample set reads 0.
double percentile(const std::vector<double> &Sorted, double P) {
  if (Sorted.empty())
    return 0.0;
  double Rank = P * static_cast<double>(Sorted.size() - 1);
  size_t Lo = static_cast<size_t>(Rank);
  size_t Hi = std::min(Lo + 1, Sorted.size() - 1);
  return Sorted[Lo] + (Sorted[Hi] - Sorted[Lo]) * (Rank - double(Lo));
}

/// Count, min, p50, p99 and max of one sample set.
struct Summary {
  size_t Count = 0;
  double Min = 0, P50 = 0, P99 = 0, Max = 0;
};

Summary summarize(std::vector<double> Samples) {
  Summary S;
  std::sort(Samples.begin(), Samples.end());
  S.Count = Samples.size();
  if (Samples.empty())
    return S;
  S.Min = Samples.front();
  S.Max = Samples.back();
  S.P50 = percentile(Samples, 0.50);
  S.P99 = percentile(Samples, 0.99);
  return S;
}

double median(std::vector<double> Samples) { return summarize(Samples).P50; }

/// A streaming 64-bit fingerprint whose value does not depend on how the
/// input is chunked: bytes are packed into little-endian 64-bit words and
/// folded with hashCombine, then the length seals the digest.
class Hasher {
public:
  void update(const char *Data, size_t N) {
    Len += N;
    while (N && Fill) {
      put(static_cast<unsigned char>(*Data++));
      --N;
    }
    for (; N >= 8; Data += 8, N -= 8) {
      uint64_t W;
      std::memcpy(&W, Data, 8);
      H = hashCombine(H, W);
    }
    while (N--)
      put(static_cast<unsigned char>(*Data++));
  }
  void update(const std::string &S) { update(S.data(), S.size()); }

  uint64_t digest() const {
    return hashCombine(Fill ? hashCombine(H, Word) : H, Len);
  }

private:
  void put(unsigned char C) {
    Word |= static_cast<uint64_t>(C) << (8 * Fill);
    if (++Fill == 8) {
      H = hashCombine(H, Word);
      Word = 0;
      Fill = 0;
    }
  }

  uint64_t H = 0x6a09e667f3bcc908ULL;
  uint64_t Word = 0;
  unsigned Fill = 0;
  uint64_t Len = 0;
};

std::string hex64(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

/// An output sink that keeps nothing: it counts and fingerprints what is
/// written, so a SARIF log of tens of megabytes is never held in memory.
class HashingBuf : public std::streambuf {
public:
  uint64_t bytes() const { return Bytes; }
  uint64_t digest() const { return Hash.digest(); }

protected:
  std::streamsize xsputn(const char *S, std::streamsize N) override {
    Hash.update(S, static_cast<size_t>(N));
    Bytes += static_cast<uint64_t>(N);
    return N;
  }
  int_type overflow(int_type C) override {
    if (traits_type::eq_int_type(C, traits_type::eof()))
      return traits_type::not_eof(C);
    char Ch = traits_type::to_char_type(C);
    xsputn(&Ch, 1);
    return C;
  }

private:
  Hasher Hash;
  uint64_t Bytes = 0;
};

/// Shortest decimal that round-trips, so every measured digit survives.
std::string fmtNum(double V) {
  char Buf[64];
  auto R = std::to_chars(Buf, Buf + sizeof(Buf), V);
  return std::string(Buf, R.ptr);
}

double peakRssMb(const struct rusage &RU) {
  return static_cast<double>(RU.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// Span recorder for one measured phase.  A disabled tracer records nothing;
/// the workloads' end-to-end numbers never depend on it.  Spans are kept in
/// memory and written when the run ends.
class Tracer {
public:
  struct Span {
    uint32_t Parent = 0; ///< 1-based index of the enclosing span; 0 = root.
    uint64_t Op = 0;     ///< Cell, benchmark lint or request id.
    std::string Stage;   ///< "setup" or "measure".
    int Pass = 0;        ///< Setup round or measured pass.
    std::string Name;    ///< "<layer>.<call>", e.g. "pta.solve".
    std::string Label;   ///< "bloat/2obj+H", "xalan", "lint", ...
    double StartMs = 0, EndMs = 0;
    std::string Attrs;   ///< Extra JSON members (",\"k\":v"), may be empty.
  };

  explicit Tracer(bool On) : On(On) {}

  bool on() const { return On; }
  double nowMs() const { return Clock.elapsedMs(); }

  uint32_t open(std::string_view Name, std::string_view Label) {
    Span S;
    S.Parent = Cur;
    S.Op = Op;
    S.Stage = Stage;
    S.Pass = Pass;
    S.Name = Name;
    S.Label = Label;
    S.StartMs = nowMs();
    Spans.push_back(std::move(S));
    Cur = static_cast<uint32_t>(Spans.size());
    return Cur;
  }
  void close(uint32_t Id) {
    Spans[Id - 1].EndMs = nowMs();
    Cur = Spans[Id - 1].Parent;
  }
  void add(Span S) { Spans.push_back(std::move(S)); }

  /// Median over the stage's passes of the per-pass sum (or, with
  /// \p Longest, maximum) of \p Name's span durations, restricted to labels
  /// starting with \p LabelPrefix.  Passes without such a span count as 0.
  double perPass(std::string_view StageName, std::string_view Name,
                 bool Longest = false,
                 std::string_view LabelPrefix = {}) const {
    std::map<int, double> Acc;
    for (const Span &S : Spans) {
      if (S.Stage != StageName)
        continue;
      double &A = Acc[S.Pass];
      if (S.Name != Name || S.Label.compare(0, LabelPrefix.size(),
                                            LabelPrefix) != 0)
        continue;
      double Ms = S.EndMs - S.StartMs;
      A = Longest ? std::max(A, Ms) : A + Ms;
    }
    std::vector<double> V;
    for (const auto &KV : Acc)
      V.push_back(KV.second);
    return median(V);
  }

  /// Writes one JSON line per span, with its self time (duration minus the
  /// time its children cover), and returns the per-layer self-time totals.
  bool write(const std::string &Path, std::map<std::string, double> &SelfMs,
             std::string &Error) const {
    std::vector<double> ChildMs(Spans.size(), 0.0);
    for (const Span &S : Spans)
      if (S.Parent)
        ChildMs[S.Parent - 1] += S.EndMs - S.StartMs;
    std::ofstream OS(Path);
    if (!OS) {
      Error = "cannot write '" + Path + "'";
      return false;
    }
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      double Self = S.EndMs - S.StartMs - ChildMs[I];
      std::string Layer = S.Name.substr(0, S.Name.find('.'));
      SelfMs[Layer] += Self;
      OS << "{\"id\":" << I + 1 << ",\"parent\":" << S.Parent
         << ",\"op\":" << S.Op << ",\"stage\":\"" << S.Stage
         << "\",\"pass\":" << S.Pass << ",\"name\":\"" << S.Name
         << "\",\"label\":\"" << json::escape(S.Label)
         << "\",\"start_ms\":" << fmtNum(S.StartMs)
         << ",\"end_ms\":" << fmtNum(S.EndMs)
         << ",\"self_ms\":" << fmtNum(Self) << S.Attrs << "}\n";
    }
    if (!OS) {
      Error = "short write to '" + Path + "'";
      return false;
    }
    return true;
  }

  std::string Stage = "setup";
  int Pass = 0;
  uint64_t Op = 0;

private:
  bool On;
  Stopwatch Clock;
  std::vector<Span> Spans;
  uint32_t Cur = 0;
};

/// RAII span around one layer call; free when tracing is off.
class Scope {
public:
  Scope(Tracer &T, std::string_view Name, std::string_view Label = {})
      : T(T), Id(T.on() ? T.open(Name, Label) : 0) {}
  ~Scope() {
    if (Id)
      T.close(Id);
  }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  Tracer &T;
  uint32_t Id;
};

//===----------------------------------------------------------------------===//
// Metrics, configuration and results
//===----------------------------------------------------------------------===//

struct MetricDef {
  const char *Name;
  const char *Unit;
};

/// What a user of the system sees; every workload reports all of them.  A
/// "request" is the workload's unit of work: a Table 1 cell, one
/// benchmark's lint, or one daemon request.
const MetricDef EndToEndMetrics[] = {
    {"wall_s", "s"},       {"setup_s", "s"},       {"peak_rss_mb", "MB"},
    {"failed_frac", "ratio"}, {"req_per_s", "1/s"}, {"req_p50_ms", "ms"},
    {"req_p99_ms", "ms"},
};

/// Single-layer metrics from the traced phase.  A workload that never calls
/// into a layer reports 0 for it.
const MetricDef LayerMetrics[] = {
    {"workloads.build_ms", "ms"},
    {"irtext.parse_ms", "ms"},
    {"taint.instrument_ms", "ms"},
    {"context.policy_ms", "ms"},
    {"pta.solve_ms", "ms"},
    {"pta.solve_ms.bloat", "ms"},
    {"pta.solve_ms.chart", "ms"},
    {"pta.solve_ms.xalan", "ms"},
    {"pta.solve_max_ms", "ms"},
    {"pta.metrics_ms", "ms"},
    {"pta.worklist_steps", "count"},
    {"pta.facts_inserted", "count"},
    {"pta.facts_replayed", "count"},
    {"pta.fact_dedup_ratio", "ratio"},
    {"pta.edge_dedup_ratio", "ratio"},
    {"pta.peak_bytes_max", "B"},
    {"pta.prov_steps", "count"},
    {"checks.run_ms", "ms"},
    {"checks.flows_ms", "ms"},
    {"checks.sarif_ms", "ms"},
    {"checks.sarif_mb", "MB"},
    {"checks.diags", "count"},
    {"serve.service_ms.p50", "ms"},
    {"serve.transport_ms.p50", "ms"},
    {"serve.reply_kb.lint", "kB"},
    {"serve.reply_kb.points-to", "kB"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.queue_ms.p50", "ms"},
    {"serve.queue_ms.p99", "ms"},
    {"serve.cold_service_ms.p50", "ms"},
    {"serve.reload_ms.p50", "ms"},
    {"serve.kind.points-to.p99_ms", "ms"},
    {"serve.kind.lint.p99_ms", "ms"},
    {"serve.kind.callgraph.p99_ms", "ms"},
    {"serve.kind.compare.p99_ms", "ms"},
    {"serve.kind.health.p99_ms", "ms"},
    {"serve.shed", "count"},
    {"trace.overhead_pct", "%"},
};

const char *const WorkloadNames[] = {"table1-heavy", "lint-sarif",
                                     "serve-warm", "serve-churn"};

/// Set-up is repeated this many times per run; setup_s is the median.  The
/// first round of a batch workload runs on a cold heap and page-faults
/// thousands of times where later rounds reuse freed memory; with five
/// rounds the median is a warm round even when one more is hit by a burst
/// of host load.
constexpr int SetupRounds = 5;

struct Config {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Smoke = false;
  bool UpdateExpected = false;
  std::string TraceOut;
  std::string JsonOut;
  std::string ServeBin;
  std::string ExpectedDir = "benchmark/expected";
  std::string Commit = "unknown";
};

/// What one measured phase of a workload produced.
struct PhaseResult {
  std::map<std::string, double> EndToEnd;
  std::map<std::string, double> Layer;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Failures;

  void fail(const std::string &Why) {
    ++Failed;
    if (Failures.size() < 20)
      Failures.push_back(Why);
  }
};

/// True while another pass should run: the first \p MinPasses always do
/// (one at smoke size), a further one only when the mean pass so far says
/// it ends within --seconds.  Recording expected outputs takes two passes,
/// so the SARIF fingerprint is stored only when it reproduces.
bool wantPass(const Config &C, int Pass, const Stopwatch &Window,
              int MinPasses) {
  if (Pass < (C.Smoke ? 1 : MinPasses) || (C.UpdateExpected && Pass < 2))
    return true;
  double Elapsed = Window.elapsedSeconds();
  return !C.Smoke && Elapsed + Elapsed / Pass <= C.Seconds;
}

/// Drives the passes of a batch workload.  A set-up round runs before each
/// pass, after SetupRounds - MinPasses rounds up front, so the rounds of a
/// multi-pass run see the host at several moments rather than one.  The
/// host's speed moves by a third within seconds: in ten lint-sarif runs
/// that timed both, the median of five rounds run back to back spread 36%,
/// that of five spread over the passes 24%.  \p SetupRound rebuilds the
/// inputs the next pass uses; \p RunPass runs one pass.  Returns the
/// set-up rounds' times in ms.
template <typename SetupFn, typename PassFn>
std::vector<double> runBatch(const Config &C, Tracer &T, int MinPasses,
                             SetupFn SetupRound, PassFn RunPass) {
  std::vector<double> SetupMs;
  auto Round = [&] {
    T.Stage = "setup";
    T.Pass = static_cast<int>(SetupMs.size());
    Stopwatch W;
    {
      Scope S(T, "bench.setup");
      SetupRound();
    }
    SetupMs.push_back(W.elapsedMs());
  };
  for (int I = MinPasses; I < SetupRounds; ++I)
    Round();
  Stopwatch Window;
  for (int Pass = 0; wantPass(C, Pass, Window, MinPasses); ++Pass) {
    Round();
    T.Stage = "measure";
    T.Pass = Pass;
    Scope S(T, "bench.pass");
    RunPass(Pass);
  }
  return SetupMs;
}

/// The end-to-end metrics shared by the two batch workloads.  wall_s is one
/// pass with every operation (cell or benchmark lint) at its median over
/// the passes, so a pass slowed by a burst of host load does not move it.
/// The request metrics are over \p ReqMs, the times of the unit a batch
/// user waits for: one Table 1 row, or one lint of the whole suite.  A
/// single cell or lint was no such unit: the host's speed swings by a third
/// within a second or two, so a percentile over sub-second operations
/// rested on two or three timings that the swings decided.  Over ten runs
/// the median lint spread 20-26% where the passes spread 10-14%.
void batchEndToEnd(PhaseResult &R, const std::vector<double> &SetupMs,
                   const std::map<std::string, std::vector<double>> &OpMs,
                   const std::vector<double> &ReqMs) {
  double PassMs = 0, MeasuredMs = 0;
  for (const auto &KV : OpMs)
    PassMs += median(KV.second);
  for (double Ms : ReqMs)
    MeasuredMs += Ms;
  struct rusage RU;
  ::getrusage(RUSAGE_SELF, &RU);
  Summary Reqs = summarize(ReqMs);
  R.EndToEnd["wall_s"] = PassMs / 1000.0;
  R.EndToEnd["setup_s"] = median(SetupMs) / 1000.0;
  R.EndToEnd["peak_rss_mb"] = peakRssMb(RU);
  R.EndToEnd["req_per_s"] =
      MeasuredMs > 0 ? double(Reqs.Count) / (MeasuredMs / 1000.0) : 0.0;
  R.EndToEnd["req_p50_ms"] = Reqs.P50;
  R.EndToEnd["req_p99_ms"] = Reqs.P99;
}

/// Solver-layer counts summed over the cells of one pass.
struct SolverTotals {
  telemetry::SolverCounters Counters;
  size_t PeakBytesMax = 0;

  void add(const telemetry::SolverCounters &C, size_t PeakBytes) {
#define PT_ADD(Field, Name) Counters.Field += C.Field;
    PT_SOLVER_COUNTERS(PT_ADD)
#undef PT_ADD
    PeakBytesMax = std::max(PeakBytesMax, PeakBytes);
  }

  void report(PhaseResult &R) const {
    const telemetry::SolverCounters &C = Counters;
    auto Ratio = [](uint64_t Hits, uint64_t Fresh) {
      return Hits + Fresh ? double(Hits) / double(Hits + Fresh) : 0.0;
    };
    R.Layer["pta.worklist_steps"] = double(C.WorklistSteps);
    R.Layer["pta.facts_inserted"] = double(C.FactsInserted);
    R.Layer["pta.facts_replayed"] = double(C.FactsReplayed);
    R.Layer["pta.fact_dedup_ratio"] = Ratio(C.FactDedupHits, C.FactsInserted);
    R.Layer["pta.edge_dedup_ratio"] = Ratio(C.EdgeDedupHits, C.EdgesAdded);
    R.Layer["pta.peak_bytes_max"] = double(PeakBytesMax);
  }
};

/// Span-derived solver-layer times common to the batch workloads.
void reportSolveSpans(const Tracer &T, PhaseResult &R) {
  R.Layer["context.policy_ms"] = T.perPass("measure", "context.policy");
  R.Layer["pta.solve_ms"] = T.perPass("measure", "pta.solve");
  for (const char *B : {"bloat", "chart", "xalan"})
    R.Layer[std::string("pta.solve_ms.") + B] = T.perPass(
        "measure", "pta.solve", /*Longest=*/false, std::string(B) + "/");
  R.Layer["pta.solve_max_ms"] =
      T.perPass("measure", "pta.solve", /*Longest=*/true);
  R.Layer["workloads.build_ms"] = T.perPass("setup", "workloads.build");
}

//===----------------------------------------------------------------------===//
// Expected outputs (benchmark/expected/<workload>.json)
//===----------------------------------------------------------------------===//

/// Deterministic outputs keyed by cell ("bloat/2obj+H") or benchmark.  Each
/// entry maps a field name to its value rendered as text.  With
/// --update-expected the observed values are recorded instead of checked.
class Expected {
public:
  using Fields = std::map<std::string, std::string>;

  Expected(std::string Path, bool Update)
      : Path(std::move(Path)), Update(Update) {}

  bool load(std::string &Error) {
    std::ifstream In(Path);
    if (!In) {
      if (Update)
        return true;
      Error = "cannot read expected outputs '" + Path + "'";
      return false;
    }
    std::stringstream Buf;
    Buf << In.rdbuf();
    json::Value Root;
    json::ParseLimits Limits;
    Limits.MaxBytes = 16u << 20;
    Limits.MaxValues = 1u << 20;
    if (!json::parse(Buf.str(), Root, Error, Limits) || !Root.isObject()) {
      Error = "'" + Path + "': " + (Error.empty() ? "not an object" : Error);
      return false;
    }
    for (const auto &[Key, Obj] : Root.Obj) {
      Fields &F = Entries[Key];
      for (const auto &[Name, V] : Obj.Obj) {
        uint64_t N = 0;
        F[Name] = V.isString() ? V.Str
                  : V.asU64(N) ? std::to_string(N)
                               : fmtNum(V.Num);
      }
    }
    return true;
  }

  /// Checks \p Got against the entry under \p Key (or records it); returns
  /// a description of the first mismatch, "" when the outputs agree.
  std::string check(const std::string &Key, const Fields &Got) {
    if (Update) {
      Entries[Key] = Got;
      return "";
    }
    auto It = Entries.find(Key);
    if (It == Entries.end())
      return Key + ": no expected outputs recorded";
    for (const auto &[Name, Want] : It->second) {
      auto G = Got.find(Name);
      std::string Have = G == Got.end() ? "<missing>" : G->second;
      if (Have != Want)
        return Key + ": " + Name + " = " + Have + ", expected " + Want;
    }
    return "";
  }

  /// Drops \p Field from \p Key's recorded entry (update mode).
  void forget(const std::string &Key, const std::string &Field) {
    Entries[Key].erase(Field);
  }

  bool save(std::string &Error) const {
    if (!Update)
      return true;
    std::ofstream OS(Path);
    if (!OS) {
      Error = "cannot write '" + Path + "'";
      return false;
    }
    OS << "{";
    bool FirstKey = true;
    for (const auto &[Key, F] : Entries) {
      OS << (FirstKey ? "\n" : ",\n") << "  \"" << json::escape(Key)
         << "\": {";
      FirstKey = false;
      bool First = true;
      for (const auto &[Name, V] : F) {
        bool Numeric = !V.empty() && V.size() < 16 &&
                       V.find_first_not_of("0123456789") == std::string::npos;
        OS << (First ? "" : ", ") << "\"" << json::escape(Name) << "\": "
           << (Numeric ? V : "\"" + json::escape(V) + "\"");
        First = false;
      }
      OS << "}";
    }
    OS << "\n}\n";
    return static_cast<bool>(OS);
  }

private:
  std::string Path;
  bool Update;
  std::map<std::string, Fields> Entries;
};

//===----------------------------------------------------------------------===//
// table1-heavy
//===----------------------------------------------------------------------===//

PhaseResult runTable1(const Config &C, Tracer &T, Expected &Exp) {
  PhaseResult R;
  const std::vector<std::string> Benches =
      C.Smoke ? std::vector<std::string>{"luindex"}
              : std::vector<std::string>{"bloat", "chart", "xalan"};
  const std::vector<std::string> Policies =
      C.Smoke ? std::vector<std::string>{"2obj+H", "S-2obj+H"}
              : table1PolicyNames();

  std::vector<Benchmark> Progs;
  auto SetupRound = [&] {
    Progs.clear();
    for (const std::string &B : Benches) {
      Scope S(T, "workloads.build", B);
      Progs.push_back(buildBenchmark(B));
    }
  };

  // One pass takes about 15 s, so a run holds one; the window decides.  A
  // request is one benchmark's row, all its policies: what `table1_main
  // BENCH` computes.
  std::map<std::string, std::vector<double>> OpMs;
  std::vector<double> RowMs;
  SolverTotals Totals;
  auto RunPass = [&](int Pass) {
    for (const Benchmark &B : Progs) {
      Stopwatch RW;
      for (const std::string &Policy : Policies) {
        const std::string Label = B.Name + "/" + Policy;
        ++R.Attempted;
        ++T.Op;
        Stopwatch CW;
        PrecisionMetrics M;
        {
          Scope Cell(T, "bench.cell", Label);
          std::unique_ptr<ContextPolicy> Pol;
          {
            Scope S(T, "context.policy", Label);
            Pol = createPolicy(Policy, *B.Prog);
          }
          if (!Pol) {
            R.fail(Label + ": unknown policy");
            continue;
          }
          AnalysisResult Res = [&] {
            Scope S(T, "pta.solve", Label);
            return solveProgram(*B.Prog, *Pol);
          }();
          Scope S(T, "pta.metrics", Label);
          M = computeMetrics(Res);
        }
        OpMs[Label].push_back(CW.elapsedMs());
        if (Pass == 0)
          Totals.add(M.Counters, M.PeakBytes);
        if (M.Aborted) {
          R.fail(Label + ": aborted (" + abortReasonName(M.Reason) + ")");
          continue;
        }
        std::string Bad = Exp.check(
            Label, {{"cs_vpt_facts", std::to_string(M.CsVarPointsTo)},
                    {"cg_edges", std::to_string(M.CallGraphEdges)},
                    {"reachable_methods", std::to_string(M.ReachableMethods)},
                    {"poly_vcalls", std::to_string(M.PolyVCalls)},
                    {"may_fail_casts", std::to_string(M.MayFailCasts)}});
        if (!Bad.empty())
          R.fail(Bad);
      }
      RowMs.push_back(RW.elapsedMs());
    }
  };

  std::vector<double> SetupMs =
      runBatch(C, T, /*MinPasses=*/1, SetupRound, RunPass);
  batchEndToEnd(R, SetupMs, OpMs, RowMs);
  if (T.on()) {
    reportSolveSpans(T, R);
    R.Layer["pta.metrics_ms"] = T.perPass("measure", "pta.metrics");
    Totals.report(R);
  }
  return R;
}

//===----------------------------------------------------------------------===//
// lint-sarif
//===----------------------------------------------------------------------===//

PhaseResult runLint(const Config &C, Tracer &T, Expected &Exp) {
  PhaseResult R;
  // Every benchmark but bloat.  bloat's lint alone took 8 s, too long for
  // the three passes a run needs; table1-heavy keeps bloat.
  std::vector<std::string> Benches = {"luindex"};
  if (!C.Smoke) {
    Benches = benchmarkNames();
    std::erase(Benches, "bloat");
  }
  const std::string Policy = "2obj+H";

  // Set-up is what `hybridpt-lint --taint-spec` does before it analyzes:
  // read the program from PTIR and instrument it.  The PTIR text is
  // printed from the generated benchmark, once per round.
  struct Input {
    std::string Name;
    std::unique_ptr<Program> Prog;
  };
  std::vector<Input> Progs;
  auto SetupRound = [&] {
    Progs.clear();
    for (const std::string &B : Benches) {
      std::string Text;
      {
        Benchmark Bench = [&] {
          Scope S(T, "workloads.build", B);
          return buildBenchmark(B);
        }();
        Scope S(T, "irtext.print", B);
        Text = printProgram(*Bench.Prog);
      }
      ParseResult Parsed = [&] {
        Scope S(T, "irtext.parse", B);
        return parseProgram(Text, B + ".ptir");
      }();
      if (!Parsed.ok()) {
        R.fail(B + ": PTIR does not re-parse: " +
               (Parsed.Errors.empty() ? "" : Parsed.Errors.front()));
        continue;
      }
      Scope S(T, "taint.instrument", B);
      taint::TaintPlan Plan =
          taint::resolve(taint::syntheticSpec(*Parsed.Prog, 1), *Parsed.Prog);
      Progs.push_back({B, taint::instrument(*Parsed.Prog, Plan)});
    }
  };

  // At least three passes of about 7 s, so every benchmark's median is
  // taken over three timings.  A request is one pass: the lint of the
  // whole suite, as a CI job runs it.
  std::map<std::string, std::vector<double>> OpMs;
  std::vector<double> PassMs, SarifBytes, ProvSteps, Diags;
  std::map<std::string, std::string> FirstHash;
  SolverTotals Totals;
  auto RunPass = [&](int Pass) {
    Stopwatch PW;
    double PassBytes = 0, PassSteps = 0, PassDiags = 0;
    for (const Input &In : Progs) {
      ++R.Attempted;
      ++T.Op;
      const std::string Label = In.Name + "/" + Policy;
      Stopwatch OW;
      checks::LintRun Run;
      HashingBuf Sink;
      bool Aborted = false;
      {
        Scope Op(T, "bench.lint", Label);
        std::unique_ptr<ContextPolicy> Pol = [&] {
          Scope S(T, "context.policy", Label);
          return createPolicy(Policy, *In.Prog);
        }();
        prov::Recorder Rec;
        SolverOptions SOpts;
        SOpts.Prov = &Rec;
        AnalysisResult Res = [&] {
          Scope S(T, "pta.solve", Label);
          return solveProgram(*In.Prog, *Pol, SOpts);
        }();
        Aborted = Res.Aborted;
        if (Pass == 0)
          Totals.add(Res.Counters, Res.PeakBytes);
        PassSteps += double(Rec.numSteps());
        {
          Scope S(T, "checks.run", Label);
          Run = checks::runCheckers(Res);
        }
        {
          Scope S(T, "checks.flows", Label);
          checks::attachDerivationFlows(Res, Rec, Run.Diags);
        }
        Scope S(T, "checks.sarif", Label);
        std::ostream OS(&Sink);
        checks::SarifOptions SO;
        SO.PolicyName = Policy;
        checks::writeSarif(OS, *In.Prog, Run.Diags, Run.Rules, SO);
      }
      OpMs[Label].push_back(OW.elapsedMs());
      PassBytes += double(Sink.bytes());
      PassDiags += double(Run.Diags.size());
      if (Aborted || !Run.ok()) {
        R.fail(Label + ": " + (Aborted ? "solver aborted" : Run.Error));
        continue;
      }

      std::map<std::string, uint64_t> PerRule;
      for (const checks::CheckerInfo &Rule : Run.Rules)
        PerRule[Rule.RuleId] = 0;
      for (const checks::Diagnostic &D : Run.Diags)
        ++PerRule[D.RuleId];
      Expected::Fields Got;
      for (const auto &[Rule, N] : PerRule)
        Got["diags." + Rule] = std::to_string(N);
      Got["sarif_bytes"] = std::to_string(Sink.bytes());
      Got["sarif_hash"] = hex64(Sink.digest());
      // The SARIF fingerprint is recorded only when two passes reproduce
      // it; counts are recorded either way.
      auto [It, Fresh] = FirstHash.emplace(In.Name, Got["sarif_hash"]);
      std::string Bad = Exp.check(In.Name, Got);
      if (C.UpdateExpected && !Fresh && It->second != Got["sarif_hash"]) {
        Exp.forget(In.Name, "sarif_hash");
        Exp.forget(In.Name, "sarif_bytes");
      }
      if (!Bad.empty())
        R.fail(Bad);
    }
    PassMs.push_back(PW.elapsedMs());
    SarifBytes.push_back(PassBytes);
    ProvSteps.push_back(PassSteps);
    Diags.push_back(PassDiags);
  };

  std::vector<double> SetupMs =
      runBatch(C, T, /*MinPasses=*/3, SetupRound, RunPass);
  batchEndToEnd(R, SetupMs, OpMs, PassMs);
  if (T.on()) {
    reportSolveSpans(T, R);
    R.Layer["irtext.parse_ms"] = T.perPass("setup", "irtext.parse");
    R.Layer["taint.instrument_ms"] = T.perPass("setup", "taint.instrument");
    R.Layer["checks.run_ms"] = T.perPass("measure", "checks.run");
    R.Layer["checks.flows_ms"] = T.perPass("measure", "checks.flows");
    R.Layer["checks.sarif_ms"] = T.perPass("measure", "checks.sarif");
    R.Layer["checks.sarif_mb"] = median(SarifBytes) / 1e6;
    R.Layer["checks.diags"] = median(Diags);
    R.Layer["pta.prov_steps"] = median(ProvSteps);
    Totals.report(R);
  }
  return R;
}

//===----------------------------------------------------------------------===//
// serve-warm / serve-churn
//===----------------------------------------------------------------------===//

/// One hybridpt-serve child over pipes.  The destructor kills and reaps a
/// child that was not finished cleanly, so no exit path leaks a process.
class Daemon {
public:
  Daemon() = default;
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;
  ~Daemon() {
    if (Pid > 0) {
      ::kill(Pid, SIGKILL);
      int Status = 0;
      ::waitpid(Pid, &Status, 0);
    }
    closeFds();
  }

  bool spawn(const std::vector<std::string> &Argv, std::string &Error,
             const cpu_set_t *Cpus = nullptr) {
    int ToChild[2], FromChild[2];
    if (::pipe2(ToChild, O_CLOEXEC) < 0) {
      Error = "pipe failed";
      return false;
    }
    if (::pipe2(FromChild, O_CLOEXEC) < 0) {
      ::close(ToChild[0]);
      ::close(ToChild[1]);
      Error = "pipe failed";
      return false;
    }
    std::vector<char *> Args;
    for (const std::string &A : Argv)
      Args.push_back(const_cast<char *>(A.c_str()));
    Args.push_back(nullptr);
    pid_t P = ::fork();
    if (P == 0) {
      ::dup2(ToChild[0], STDIN_FILENO);
      ::dup2(FromChild[1], STDOUT_FILENO);
      if (Cpus)
        ::sched_setaffinity(0, sizeof(cpu_set_t), Cpus);
      ::execv(Args[0], Args.data());
      std::perror("hybridpt-bench: execv");
      std::_Exit(127);
    }
    ::close(ToChild[0]);
    ::close(FromChild[1]);
    if (P < 0) {
      ::close(ToChild[1]);
      ::close(FromChild[0]);
      Error = "fork failed";
      return false;
    }
    Pid = P;
    In = ToChild[1];
    Out = FromChild[0];
    Buf.clear();
    Start = Scan = 0;
    return true;
  }

  bool send(const std::string &Line) {
    std::string Data = Line + "\n";
    size_t Off = 0;
    while (Off < Data.size()) {
      ssize_t N = ::write(In, Data.data() + Off, Data.size() - Off);
      if (N < 0) {
        if (errno == EINTR)
          continue;
        return false;
      }
      Off += static_cast<size_t>(N);
    }
    return true;
  }

  enum class Read { Line, Timeout, Eof };

  /// Next reply line; waits at most \p TimeoutMs for more bytes.
  Read next(std::string &Line, int TimeoutMs) {
    for (;;) {
      size_t Nl = Buf.find('\n', Scan);
      if (Nl != std::string::npos) {
        Line.assign(Buf, Start, Nl - Start);
        Start = Scan = Nl + 1;
        if (Start == Buf.size()) {
          Buf.clear();
          Start = Scan = 0;
        } else if (Start > (1u << 20)) {
          Buf.erase(0, Start);
          Scan -= Start;
          Start = 0;
        }
        return Read::Line;
      }
      Scan = Buf.size();
      struct pollfd P = {Out, POLLIN, 0};
      int Ready = ::poll(&P, 1, TimeoutMs);
      if (Ready < 0 && errno == EINTR)
        continue;
      if (Ready == 0)
        return Read::Timeout;
      char Chunk[1 << 16];
      ssize_t N = Ready < 0 ? -1 : ::read(Out, Chunk, sizeof(Chunk));
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        return Read::Eof;
      Buf.append(Chunk, static_cast<size_t>(N));
    }
  }

  /// Closes the daemon's stdin (it drains and exits on EOF), discards what
  /// it still prints, and reaps it.  False when it does not exit cleanly
  /// within \p TimeoutMs.
  bool finish(double TimeoutMs, struct rusage &RU) {
    ::close(In);
    In = -1;
    Stopwatch W;
    std::string Line;
    Read Got;
    while ((Got = next(Line, 200)) != Read::Eof)
      if (Got == Read::Timeout && W.elapsedMs() > TimeoutMs)
        break;
    if (Got != Read::Eof)
      ::kill(Pid, SIGKILL);
    int Status = 0;
    ::wait4(Pid, &Status, 0, &RU);
    Pid = -1;
    closeFds();
    return Got == Read::Eof && WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
  }

private:
  void closeFds() {
    if (In >= 0)
      ::close(In);
    if (Out >= 0)
      ::close(Out);
    In = Out = -1;
  }

  pid_t Pid = -1;
  int In = -1;
  int Out = -1;
  std::string Buf;
  size_t Start = 0, Scan = 0;
};

using serve::kindName;
using serve::RequestKind;

/// Compare requests diff each policy against this baseline.
const char *const CompareBase = "insens";

/// One request of the stream and what came back.
struct Req {
  uint64_t Id = 0;
  RequestKind K = RequestKind::Health;
  size_t Policy = 0;
  size_t Var = 0;
  double SentMs = 0, RecvMs = 0;
  bool Seen = false, Ok = false, CacheHit = false, Degraded = false;
  uint64_t Hash = 0;
  size_t Bytes = 0;
  std::string Code;
};

/// "Class::method/arity::var" paths of the program's locals, in method
/// order, capped — the points-to half of the mix.
std::vector<std::string> varPaths(const Program &P, size_t Cap) {
  std::vector<std::string> Out;
  for (size_t I = 0; I < P.numMethods() && Out.size() < Cap; ++I) {
    const MethodInfo &Info = P.method(MethodId::fromIndex(I));
    const SigInfo &Sig = P.sig(Info.Sig);
    std::string Prefix = std::string(P.text(P.type(Info.Owner).Name)) +
                         "::" + std::string(P.text(Sig.Name)) + "/" +
                         std::to_string(Sig.Arity) + "::";
    for (VarId V : Info.Locals) {
      if (Out.size() >= Cap)
        break;
      Out.push_back(Prefix + std::string(P.text(P.var(V).Name)));
    }
  }
  return Out;
}

std::string quoted(const std::string &S) {
  return "\"" + json::escape(S) + "\"";
}

std::string requestLine(const Req &Q, const std::vector<std::string> &Policies,
                        const std::vector<std::string> &Vars) {
  std::string L = "{\"id\":" + std::to_string(Q.Id) + ",\"kind\":\"" +
                  kindName(Q.K) + "\"";
  const std::string &Pol = Policies[Q.Policy];
  switch (Q.K) {
  case RequestKind::PointsTo:
    L += ",\"policy\":" + quoted(Pol) + ",\"var\":" + quoted(Vars[Q.Var]);
    break;
  case RequestKind::Lint:
  case RequestKind::CallGraph:
    L += ",\"policy\":" + quoted(Pol);
    break;
  case RequestKind::Compare:
    L += ",\"base\":" + quoted(CompareBase) + ",\"refined\":" + quoted(Pol);
    break;
  default: // health and reload carry no fields
    break;
  }
  return L + "}";
}

/// The head of one reply plus a fingerprint of its answer lines.  The
/// daemon renders `..."count":N,"lines":[...]}` last, so the head before
/// `,"count":` is a small JSON object and the rest is hashed unparsed.
struct Reply {
  uint64_t Id = 0;
  bool Ok = false, CacheHit = false, Degraded = false;
  std::string Code;
  uint64_t Hash = 0;
  std::string Error;
};

Reply parseReply(const std::string &Line) {
  Reply Out;
  size_t Count = Line.find(",\"count\":");
  std::string Head =
      Count == std::string::npos ? Line : Line.substr(0, Count) + "}";
  json::Value V;
  json::ParseLimits Limits;
  Limits.MaxStringBytes = 1u << 20;
  if (!json::parse(Head, V, Out.Error, Limits) || !V.isObject()) {
    Out.Error = "unparseable reply: " + Line.substr(0, 160);
    return Out;
  }
  const json::Value *Id = V.find("id");
  if (!Id || !Id->asU64(Out.Id))
    Out.Error = "reply without id: " + Line.substr(0, 160);
  const json::Value *Ok = V.find("ok");
  Out.Ok = Ok && Ok->isBool() && Ok->B;
  const json::Value *Hit = V.find("cache_hit");
  Out.CacheHit = Hit && Hit->isBool() && Hit->B;
  const json::Value *Deg = V.find("degraded");
  Out.Degraded = Deg && Deg->isObject();
  if (const json::Value *Code = V.find("code"); Code && Code->isString())
    Out.Code = Code->Str;
  if (Count != std::string::npos) {
    Hasher H;
    H.update(Line.data() + Count + 1, Line.size() - Count - 1);
    Out.Hash = H.digest();
  }
  return Out;
}

/// Expected answers, recomputed in process through the same serve::Canon
/// renderers the daemon uses, fingerprinted like parseReply.
class Oracle {
public:
  explicit Oracle(const Program &P) : P(P) {}

  uint64_t expect(RequestKind K, const std::string &Policy,
                  const std::string &Var) {
    std::string Key = std::string(kindName(K)) + "|" + Policy +
                      (K == RequestKind::PointsTo ? "|" + Var : "");
    auto It = Hashes.find(Key);
    if (It != Hashes.end())
      return It->second;
    std::vector<std::string> Lines;
    switch (K) {
    case RequestKind::PointsTo:
      Lines = serve::pointsToLines(P, result(Policy), findVarByPath(P, Var));
      break;
    case RequestKind::CallGraph:
      Lines = serve::callGraphLines(computeMetrics(result(Policy)), Policy);
      break;
    case RequestKind::Lint:
      Lines = serve::lintLines(P, checks::runCheckers(result(Policy)).Diags,
                               Policy);
      break;
    case RequestKind::Compare:
      Lines = serve::compareLines(
          checks::comparePolicies(P, CompareBase, Policy));
      break;
    default:
      break;
    }
    std::string Body = "\"count\":" + std::to_string(Lines.size()) +
                       ",\"lines\":[";
    for (size_t I = 0; I < Lines.size(); ++I)
      Body += (I ? ",\"" : "\"") + json::escape(Lines[I]) + "\"";
    Body += "]}";
    Hasher H;
    H.update(Body);
    return Hashes[Key] = H.digest();
  }

private:
  const AnalysisResult &result(const std::string &Policy) {
    auto It = Solved.find(Policy);
    if (It == Solved.end()) {
      auto Pol = createPolicy(Policy, P);
      AnalysisResult Res = solveProgram(P, *Pol);
      It = Solved
               .emplace(Policy,
                        std::make_pair(std::move(Pol), std::move(Res)))
               .first;
    }
    return It->second.second;
  }

  const Program &P;
  std::map<std::string,
           std::pair<std::unique_ptr<ContextPolicy>, AnalysisResult>>
      Solved;
  std::map<std::string, uint64_t> Hashes;
};

/// Daemon-side timing of one request, from its --trace-out records.
struct DaemonRecord {
  double QueueMs = 0, LatencyMs = 0;
  bool CacheHit = false;
};

std::map<uint64_t, DaemonRecord> readDaemonRecords(const std::string &Path,
                                                   std::string &Error) {
  std::map<uint64_t, DaemonRecord> Out;
  std::ifstream In(Path);
  if (!In) {
    Error = "cannot read daemon trace '" + Path + "'";
    return Out;
  }
  std::string Line;
  while (std::getline(In, Line)) {
    json::Value V;
    std::string E;
    if (!json::parse(Line, V, E) || !V.isObject())
      continue;
    const json::Value *Type = V.find("type");
    if (!Type || !Type->isString() || Type->Str != "request")
      continue;
    uint64_t Id = 0;
    const json::Value *IdV = V.find("id");
    const json::Value *Q = V.find("queue_ms");
    const json::Value *L = V.find("latency_ms");
    const json::Value *Hit = V.find("cache_hit");
    if (!IdV || !IdV->asU64(Id) || !Q || !L || !Q->isNumber() ||
        !L->isNumber())
      continue;
    Out[Id] = {Q->Num, L->Num, Hit && Hit->isBool() && Hit->B};
  }
  return Out;
}

/// Pins the closed loop: the client threads to the first CPU this process
/// may use, the daemon to the others, so neither side's threads migrate or
/// preempt each other.  Restores the client's CPU set when destroyed; does
/// nothing with fewer than four CPUs.
class CpuSplit {
public:
  CpuSplit() {
    CPU_ZERO(&Saved);
    CPU_ZERO(&Daemon);
    if (::sched_getaffinity(0, sizeof(Saved), &Saved) != 0 ||
        CPU_COUNT(&Saved) < 4)
      return;
    cpu_set_t Client;
    CPU_ZERO(&Client);
    for (int I = 0; I < CPU_SETSIZE; ++I)
      if (CPU_ISSET(I, &Saved))
        CPU_SET(I, CPU_COUNT(&Client) ? &Daemon : &Client);
    On = ::sched_setaffinity(0, sizeof(Client), &Client) == 0;
  }
  ~CpuSplit() {
    if (On)
      ::sched_setaffinity(0, sizeof(Saved), &Saved);
  }
  CpuSplit(const CpuSplit &) = delete;
  CpuSplit &operator=(const CpuSplit &) = delete;

  /// The daemon's CPUs; null when nothing is pinned.
  const cpu_set_t *daemon() const { return On ? &Daemon : nullptr; }

private:
  cpu_set_t Saved, Daemon;
  bool On = false;
};

PhaseResult runServe(const Config &C, Tracer &T, bool Churn) {
  PhaseResult R;
  CpuSplit Cpus;
  const std::string ProgramName = C.Smoke ? "luindex" : "xalan";
  const std::vector<std::string> Policies =
      C.Smoke ? std::vector<std::string>{"2obj+H", "S-2obj+H"}
              : std::vector<std::string>{"2obj+H", "S-2obj+H", "2type+H"};
  // Two in flight: at four, about half the requests wait behind a
  // megabyte lint reply on the shared pipe, which puts the median in the
  // gap between blocked and unblocked requests (README.md).
  constexpr size_t Outstanding = 2;
  constexpr uint64_t SmokeRequests = 200;
  constexpr uint64_t ReloadEvery = 100;
  const double WatchdogMs = C.Seconds * 1000.0 + 60000.0;

  // The bench's own copy of the program: var paths for the mix and the
  // oracle for verification come from the loader the daemon uses.
  std::string Error;
  std::shared_ptr<const serve::Epoch> Ep;
  {
    T.Stage = "setup";
    T.Pass = 0;
    Scope S(T, "workloads.build", ProgramName);
    Ep = serve::loadEpoch(1, ProgramName, Error);
  }
  if (!Ep) {
    R.fail("cannot load " + ProgramName + ": " + Error);
    return R;
  }
  const std::vector<std::string> Vars = varPaths(*Ep->Prog, 512);

  std::string DaemonTrace;
  std::vector<std::string> Argv = {C.ServeBin, "--program", ProgramName,
                                   "--workers", "2"};
  if (T.on()) {
    DaemonTrace = C.TraceOut + ".serve.jsonl";
    Argv.push_back("--trace-out");
    Argv.push_back(DaemonTrace);
  }

  Daemon D;
  // The first answer of every kind under policies [From, To), one request
  // at a time: concurrent first requests would race on the solve dedup gate
  // and make the time depend on the schedule.
  std::string Line;
  auto Warm = [&](size_t From, size_t To) {
    for (size_t PI = From; PI < To; ++PI)
      for (RequestKind K : {RequestKind::PointsTo, RequestKind::Lint,
                            RequestKind::CallGraph, RequestKind::Compare}) {
        Req Q;
        Q.Id = 1000000 + PI * 4 + size_t(K);
        Q.K = K;
        Q.Policy = PI;
        if (!D.send(requestLine(Q, Policies, Vars)) ||
            D.next(Line, 60000) != Daemon::Read::Line ||
            !parseReply(Line).Ok)
          return false;
      }
    return true;
  };

  // Set-up: spawn to the first answer of every kind under the first
  // policy.  Repeated; the last daemon stays up and is warmed under the
  // other policies too, so the window starts from the state a resident
  // daemon lives in.
  std::vector<double> SetupMs;
  for (int Round = 0; Round < SetupRounds; ++Round) {
    Stopwatch W;
    if (!D.spawn(Argv, Error, Cpus.daemon())) {
      R.fail("spawn: " + Error);
      return R;
    }
    if (!Warm(0, 1)) {
      R.fail("set-up request failed: " + Line.substr(0, 160));
      return R;
    }
    SetupMs.push_back(W.elapsedMs());
    struct rusage Ignored;
    if (Round + 1 < SetupRounds && !D.finish(60000, Ignored)) {
      R.fail("daemon did not exit cleanly after a set-up round");
      return R;
    }
  }
  if (!Warm(1, Policies.size())) {
    R.fail("warm-up request failed: " + Line.substr(0, 160));
    return R;
  }

  // The measured window: a closed loop with `Outstanding` requests in
  // flight, one writer (this thread) and one reader thread.
  std::mutex Mu;
  std::condition_variable Cv;
  std::deque<Req> Reqs;
  size_t InFlight = 0;
  bool ReaderDone = false, StopReader = false;
  std::string ReaderError;
  // Times come from the tracer's clock, so request spans share one
  // timeline with the set-up spans.
  const double WindowStartMs = T.nowMs();

  std::thread Reader([&] {
    std::string L;
    for (;;) {
      Daemon::Read Got = D.next(L, 200);
      if (Got == Daemon::Read::Timeout) {
        std::lock_guard<std::mutex> Lock(Mu);
        if (StopReader || T.nowMs() - WindowStartMs > WatchdogMs)
          break;
        continue;
      }
      if (Got == Daemon::Read::Eof) {
        std::lock_guard<std::mutex> Lock(Mu);
        ReaderError = "daemon closed its output mid-window";
        break;
      }
      double Now = T.nowMs();
      Reply Rp = parseReply(L);
      std::lock_guard<std::mutex> Lock(Mu);
      if (!Rp.Error.empty() || Rp.Id == 0 || Rp.Id > Reqs.size() ||
          Reqs[Rp.Id - 1].Seen) {
        ReaderError = Rp.Error.empty() ? "unexpected reply id " +
                                             std::to_string(Rp.Id)
                                       : Rp.Error;
        break;
      }
      Req &Q = Reqs[Rp.Id - 1];
      Q.Seen = true;
      Q.RecvMs = Now;
      Q.Ok = Rp.Ok;
      Q.CacheHit = Rp.CacheHit;
      Q.Degraded = Rp.Degraded;
      Q.Code = Rp.Code;
      Q.Hash = Rp.Hash;
      Q.Bytes = L.size() + 1;
      --InFlight;
      Cv.notify_all();
    }
    std::lock_guard<std::mutex> Lock(Mu);
    ReaderDone = true;
    Cv.notify_all();
  });

  std::mt19937_64 Rng(C.Seed);
  std::uniform_real_distribution<double> Unit(0.0, 1.0);
  bool SendFailed = false;
  for (uint64_t Id = 1;; ++Id) {
    if (C.Smoke ? Id > SmokeRequests
                : T.nowMs() - WindowStartMs >= C.Seconds * 1000.0)
      break;
    // Every slot draws from the generator, so the warm and churn streams
    // agree on every request that is not a reload.
    Req Q;
    Q.Id = Id;
    double Roll = Unit(Rng);
    Q.Policy = Rng() % Policies.size();
    Q.Var = Rng() % Vars.size();
    Q.K = Roll < 0.50   ? RequestKind::PointsTo
          : Roll < 0.70 ? RequestKind::Lint
          : Roll < 0.90 ? RequestKind::CallGraph
          : Roll < 0.95 ? RequestKind::Compare
                        : RequestKind::Health;
    if (Churn && Id % ReloadEvery == 0)
      Q.K = RequestKind::Reload;
    std::string Text = requestLine(Q, Policies, Vars);
    {
      std::unique_lock<std::mutex> Lock(Mu);
      Cv.wait(Lock, [&] { return InFlight < Outstanding || ReaderDone; });
      if (ReaderDone)
        break;
      Q.SentMs = T.nowMs();
      Reqs.push_back(std::move(Q));
      ++InFlight;
    }
    if (!D.send(Text)) {
      SendFailed = true;
      break;
    }
  }
  {
    std::unique_lock<std::mutex> Lock(Mu);
    Cv.wait(Lock, [&] { return InFlight == 0 || ReaderDone; });
    StopReader = true;
  }
  Reader.join();

  // Shed count from the daemon's own health counters, then a clean exit.
  double Shed = 0;
  if (!SendFailed && D.send("{\"id\":3000000,\"kind\":\"health\"}") &&
      D.next(Line, 60000) == Daemon::Read::Line) {
    json::Value V;
    std::string E;
    const json::Value *S = nullptr;
    if (json::parse(Line, V, E) && (S = V.find("shed")) && S->isNumber())
      Shed = S->Num;
  } else {
    R.fail("daemon did not answer the closing health probe");
  }
  struct rusage RU;
  std::memset(&RU, 0, sizeof(RU));
  if (!D.finish(60000, RU))
    R.fail("daemon did not drain and exit 0");
  if (SendFailed)
    R.fail("daemon stdin closed mid-window");
  if (!ReaderError.empty())
    R.fail(ReaderError);

  // Verification: every reply ok, every clean answer bit-identical to the
  // in-process recompute.
  Oracle Or(*Ep->Prog);
  std::map<std::string, std::vector<double>> LatByKind;
  std::vector<double> Lat, LintKb, PtsKb;
  uint64_t WorkReqs = 0, Hits = 0;
  for (const Req &Q : Reqs) {
    ++R.Attempted;
    std::string What = "request " + std::to_string(Q.Id) + " (" +
                       kindName(Q.K) + ")";
    if (!Q.Seen) {
      R.fail(What + ": no reply");
      continue;
    }
    Lat.push_back(Q.RecvMs - Q.SentMs);
    LatByKind[kindName(Q.K)].push_back(Q.RecvMs - Q.SentMs);
    if (Q.K == RequestKind::Lint)
      LintKb.push_back(double(Q.Bytes) / 1000.0);
    if (Q.K == RequestKind::PointsTo)
      PtsKb.push_back(double(Q.Bytes) / 1000.0);
    if (serve::isWorkKind(Q.K)) {
      ++WorkReqs;
      Hits += Q.CacheHit;
    }
    if (!Q.Ok || Q.Degraded) {
      R.fail(What + ": " + (Q.Ok ? "degraded" : "error " + Q.Code));
      continue;
    }
    if (serve::isWorkKind(Q.K) &&
        Q.Hash != Or.expect(Q.K, Policies[Q.Policy], Vars[Q.Var]))
      R.fail(What + ": reply differs from the in-process recompute");
  }

  // wall_s: median time of one 100-request block, aligned so that under
  // churn every block is one epoch, opened by its reload.
  std::vector<double> BlockMs;
  for (uint64_t First = ReloadEvery; First + ReloadEvery - 1 <= Reqs.size();
       First += ReloadEvery) {
    double End = 0;
    for (uint64_t Id = First; Id < First + ReloadEvery; ++Id)
      End = std::max(End, Reqs[Id - 1].RecvMs);
    BlockMs.push_back(End - Reqs[First - 1].SentMs);
  }
  double SpanMs = 0;
  for (const Req &Q : Reqs)
    SpanMs = std::max(SpanMs, Q.RecvMs);
  if (!Reqs.empty())
    SpanMs -= Reqs.front().SentMs;
  Summary L = summarize(Lat);
  R.EndToEnd["wall_s"] = median(BlockMs) / 1000.0;
  R.EndToEnd["setup_s"] = median(SetupMs) / 1000.0;
  R.EndToEnd["peak_rss_mb"] = peakRssMb(RU);
  R.EndToEnd["req_per_s"] = SpanMs > 0 ? double(L.Count) / (SpanMs / 1000.0)
                                       : 0.0;
  R.EndToEnd["req_p50_ms"] = L.P50;
  R.EndToEnd["req_p99_ms"] = L.P99;

  if (!T.on())
    return R;
  std::map<uint64_t, DaemonRecord> Records =
      readDaemonRecords(DaemonTrace, Error);
  if (!Error.empty())
    R.fail(Error);
  std::vector<double> Service, Transport, Queue, ColdService;
  T.Stage = "measure";
  for (const Req &Q : Reqs) {
    if (!Q.Seen)
      continue;
    Tracer::Span S;
    S.Op = Q.Id;
    S.Stage = "measure";
    S.Name = "serve.request";
    S.Label = kindName(Q.K);
    S.StartMs = Q.SentMs;
    S.EndMs = Q.RecvMs;
    S.Attrs = std::string(",\"cache_hit\":") + (Q.CacheHit ? "true" : "false") +
              ",\"bytes\":" + std::to_string(Q.Bytes);
    auto It = Records.find(Q.Id);
    if (It != Records.end()) {
      const DaemonRecord &DR = It->second;
      double Svc = DR.LatencyMs - DR.QueueMs;
      Service.push_back(Svc);
      Transport.push_back(Q.RecvMs - Q.SentMs - DR.LatencyMs);
      Queue.push_back(DR.QueueMs);
      if (!DR.CacheHit)
        ColdService.push_back(Svc);
      S.Attrs += ",\"queue_ms\":" + fmtNum(DR.QueueMs) +
                 ",\"daemon_ms\":" + fmtNum(DR.LatencyMs);
    } else if (serve::isWorkKind(Q.K)) {
      R.fail("request " + std::to_string(Q.Id) + ": no daemon trace record");
    }
    T.add(std::move(S));
  }
  Summary Qs = summarize(Queue);
  R.Layer["workloads.build_ms"] = T.perPass("setup", "workloads.build");
  R.Layer["serve.service_ms.p50"] = summarize(Service).P50;
  R.Layer["serve.transport_ms.p50"] = summarize(Transport).P50;
  R.Layer["serve.reply_kb.lint"] = median(LintKb);
  R.Layer["serve.reply_kb.points-to"] = median(PtsKb);
  R.Layer["serve.cache_hit_ratio"] =
      WorkReqs ? double(Hits) / double(WorkReqs) : 0.0;
  R.Layer["serve.queue_ms.p50"] = Qs.P50;
  R.Layer["serve.queue_ms.p99"] = Qs.P99;
  R.Layer["serve.cold_service_ms.p50"] = summarize(ColdService).P50;
  R.Layer["serve.reload_ms.p50"] = median(LatByKind["reload"]);
  for (const char *K : {"points-to", "lint", "callgraph", "compare", "health"})
    R.Layer[std::string("serve.kind.") + K + ".p99_ms"] =
        summarize(LatByKind[K]).P99;
  R.Layer["serve.shed"] = Shed;
  return R;
}

//===----------------------------------------------------------------------===//
// Running a workload
//===----------------------------------------------------------------------===//

PhaseResult runPhase(const Config &C, Tracer &T, Expected *Exp) {
  if (C.Workload == "table1-heavy")
    return runTable1(C, T, *Exp);
  if (C.Workload == "lint-sarif")
    return runLint(C, T, *Exp);
  return runServe(C, T, C.Workload == "serve-churn");
}

std::string stampJson(const Config &C) {
  std::ostringstream OS;
  OS << "{\"build_type\":" << quoted(HYBRIDPT_BENCH_BUILD_TYPE)
     << ",\"compiler\":" << quoted(__VERSION__)
     << ",\"nproc\":" << std::thread::hardware_concurrency()
     << ",\"telemetry\":" << (HYBRIDPT_TELEMETRY_ENABLED ? "true" : "false")
     << ",\"provenance\":" << (HYBRIDPT_PROVENANCE_ENABLED ? "true" : "false")
     << ",\"commit\":" << quoted(C.Commit) << "}";
  return OS.str();
}

void printMetric(std::ostream &OS, const MetricDef &M, double V) {
  OS << M.Name << ' ' << fmtNum(V) << ' ' << M.Unit << '\n';
}

std::string metricsJson(const MetricDef *Begin, const MetricDef *End,
                        const std::map<std::string, double> &Values) {
  std::string Out = "{";
  for (const MetricDef *M = Begin; M != End; ++M) {
    auto It = Values.find(M->Name);
    Out += std::string(M == Begin ? "" : ",") + quoted(M->Name) +
           ":{\"value\":" + fmtNum(It == Values.end() ? 0.0 : It->second) +
           ",\"unit\":" + quoted(M->Unit) + "}";
  }
  return Out + "}";
}

/// Runs one workload (untraced, then traced when --trace-out is set),
/// prints its metrics and writes the --json report.  Returns the exit code.
int runWorkload(Config C) {
  // The batch workloads check their outputs against recorded ones.
  std::unique_ptr<Expected> Exp;
  if (C.Workload == "table1-heavy" || C.Workload == "lint-sarif") {
    Exp = std::make_unique<Expected>(
        C.ExpectedDir + "/" + C.Workload + ".json", C.UpdateExpected);
    std::string Error;
    if (!Exp->load(Error)) {
      std::cerr << "hybridpt-bench: " << Error << "\n";
      return 1;
    }
  }

  Tracer Untraced(false);
  PhaseResult E2E = runPhase(C, Untraced, Exp.get());
  PhaseResult Layer;
  const bool Traced = !C.TraceOut.empty();
  if (Traced) {
    Tracer T(true);
    Config TC = C;
    TC.UpdateExpected = false;
    Layer = runPhase(TC, T, Exp.get());
    double Base = E2E.EndToEnd["wall_s"];
    Layer.Layer["trace.overhead_pct"] =
        Base > 0 ? (Layer.EndToEnd["wall_s"] / Base - 1.0) * 100.0 : 0.0;
    std::map<std::string, double> SelfMs;
    std::string Error;
    if (!T.write(C.TraceOut, SelfMs, Error)) {
      std::cerr << "hybridpt-bench: " << Error << "\n";
      return 1;
    }
    for (const auto &[L, Ms] : SelfMs)
      std::cerr << "self time: " << L << " " << fmtNum(Ms) << " ms\n";
  }

  uint64_t Attempted = E2E.Attempted + Layer.Attempted;
  uint64_t Failed = E2E.Failed + Layer.Failed;
  E2E.EndToEnd["failed_frac"] =
      Attempted ? double(Failed) / double(Attempted) : 1.0;
  for (const PhaseResult *P : {&E2E, &Layer})
    for (const std::string &F : P->Failures)
      std::cerr << "FAIL: " << C.Workload << ": " << F << "\n";
  if (Attempted == 0) {
    std::cerr << "FAIL: " << C.Workload << ": nothing was attempted\n";
    ++Failed;
  }

  for (const MetricDef &M : EndToEndMetrics)
    printMetric(std::cout, M, E2E.EndToEnd[M.Name]);
  if (Traced)
    for (const MetricDef &M : LayerMetrics)
      printMetric(std::cout, M, Layer.Layer[M.Name]);

  std::string Error;
  if (Exp && !Exp->save(Error)) {
    std::cerr << "hybridpt-bench: " << Error << "\n";
    return 1;
  }
  if (!C.JsonOut.empty()) {
    std::ofstream OS(C.JsonOut);
    OS << "{\"workload\":" << quoted(C.Workload) << ",\"seed\":" << C.Seed
       << ",\"seconds\":" << fmtNum(C.Seconds)
       << ",\"smoke\":" << (C.Smoke ? "true" : "false")
       << ",\"traced\":" << (Traced ? "true" : "false")
       << ",\"stamp\":" << stampJson(C) << ",\"attempted\":" << Attempted
       << ",\"failed\":" << Failed
       << ",\"correct\":" << (Failed == 0 ? "true" : "false")
       << ",\"end_to_end\":"
       << metricsJson(std::begin(EndToEndMetrics), std::end(EndToEndMetrics),
                      E2E.EndToEnd);
    if (Traced)
      OS << ",\"per_layer\":"
         << metricsJson(std::begin(LayerMetrics), std::end(LayerMetrics),
                        Layer.Layer);
    OS << "}\n";
    if (!OS) {
      std::cerr << "hybridpt-bench: cannot write '" << C.JsonOut << "'\n";
      return 1;
    }
  }
  return Failed == 0 ? 0 : 1;
}

int selfTest() {
  int Bad = 0;
  auto Expect = [&](const char *What, double Got, double Want) {
    if (std::abs(Got - Want) > 1e-9) {
      std::cerr << "self-test: " << What << " = " << Got << ", expected "
                << Want << "\n";
      ++Bad;
    }
  };
  Summary Empty = summarize({});
  Expect("empty count", double(Empty.Count), 0);
  Expect("empty p50", Empty.P50, 0);
  Summary One = summarize({7});
  Expect("single min", One.Min, 7);
  Expect("single p99", One.P99, 7);
  Summary Five = summarize({4, 1, 3, 5, 2});
  Expect("count", double(Five.Count), 5);
  Expect("min", Five.Min, 1);
  Expect("p50", Five.P50, 3);
  Expect("p99", Five.P99, 4.96);
  Expect("max", Five.Max, 5);
  Expect("even p50", summarize({10, 20}).P50, 15);
  std::vector<double> Hundred;
  for (int I = 100; I >= 1; --I)
    Hundred.push_back(I);
  Expect("p99 of 1..100", summarize(Hundred).P99, 99.01);

  const std::string Text = "{\"count\":2,\"lines\":[\"a : A\",\"b : B\"]}";
  Hasher Whole, Bytewise;
  Whole.update(Text);
  for (char Ch : Text)
    Bytewise.update(&Ch, 1);
  Expect("hash is chunking-independent",
         double(Whole.digest() == Bytewise.digest()), 1);
  Hasher Other;
  Other.update(Text + " ");
  Expect("hash separates inputs", double(Whole.digest() != Other.digest()),
         1);
  std::cerr << "self-test: " << (Bad ? "FAILED" : "ok") << "\n";
  return Bad ? 1 : 0;
}

int usage() {
  std::cerr
      << "usage: hybridpt-bench --workload NAME [--seed N] [--seconds S]\n"
         "                      [--trace-out FILE] [--json OUT]\n"
         "                      [--serve-bin PATH] [--expected-dir DIR]\n"
         "                      [--commit SHA] [--update-expected]\n"
         "       hybridpt-bench --smoke [--serve-bin PATH] "
         "[--expected-dir DIR]\n"
         "       hybridpt-bench --self-test\n"
         "workloads: table1-heavy lint-sarif serve-warm serve-churn\n";
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  Config C;
  bool Smoke = false, SelfTest = false;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto Value = [&]() -> std::string {
      if (I + 1 >= argc) {
        std::cerr << "hybridpt-bench: " << Arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++I];
    };
    if (Arg == "--workload")
      C.Workload = Value();
    else if (Arg == "--seed")
      C.Seed = std::strtoull(Value().c_str(), nullptr, 10);
    else if (Arg == "--seconds")
      C.Seconds = std::strtod(Value().c_str(), nullptr);
    else if (Arg == "--trace-out")
      C.TraceOut = Value();
    else if (Arg == "--json")
      C.JsonOut = Value();
    else if (Arg == "--serve-bin")
      C.ServeBin = Value();
    else if (Arg == "--expected-dir")
      C.ExpectedDir = Value();
    else if (Arg == "--commit")
      C.Commit = Value();
    else if (Arg == "--update-expected")
      C.UpdateExpected = true;
    else if (Arg == "--smoke")
      Smoke = true;
    else if (Arg == "--self-test")
      SelfTest = true;
    else
      return usage();
  }

  // Hermetic: a fault plan in the environment would be picked up silently
  // by every solver the benchmark constructs.
  for (const char *Var : {"HYBRIDPT_FAULT_PLAN", "HYBRIDPT_TEST_BREAK",
                          "HYBRIDPT_SERVE_FAULT_PLAN"})
    if (std::getenv(Var)) {
      std::cerr << "hybridpt-bench: refusing to run with " << Var
                << " set\n";
      return 2;
    }
  std::signal(SIGPIPE, SIG_IGN);

  if (C.ServeBin.empty()) {
    std::string Self = argv[0];
    size_t Slash = Self.rfind('/');
    C.ServeBin = (Slash == std::string::npos ? std::string(".")
                                             : Self.substr(0, Slash)) +
                 "/tools/hybridpt-serve";
  }

  if (SelfTest)
    return selfTest();
  if (Smoke) {
    int RC = selfTest();
    C.Smoke = true;
    for (const char *W : WorkloadNames) {
      C.Workload = W;
      C.TraceOut = std::string("bench_smoke.") + W + ".trace.jsonl";
      Stopwatch Watch;
      int WorkloadRC = runWorkload(C);
      std::cerr << "smoke: " << W << (WorkloadRC ? " FAILED" : " ok") << " ("
                << fmtNum(Watch.elapsedSeconds()) << " s)\n";
      RC |= WorkloadRC;
    }
    return RC;
  }
  if (std::find(std::begin(WorkloadNames), std::end(WorkloadNames),
                C.Workload) == std::end(WorkloadNames))
    return usage();
  return runWorkload(C);
}
