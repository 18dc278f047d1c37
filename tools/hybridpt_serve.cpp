//===- tools/hybridpt_serve.cpp - Resident analysis daemon ----------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// hybridpt-serve: the fault-tolerant resident analysis daemon
/// (docs/SERVING.md).  Loads one program as epoch 1 and answers NDJSON
/// requests — one JSON object per line in, one JSON reply line per
/// request out — over stdin/stdout (default) or a unix socket
/// (--listen PATH).
///
/// Signals: SIGTERM starts a graceful drain (stop admitting, finish
/// in-flight work, exit 0); SIGINT trips the process cancel token, which
/// every per-request guard chains under, so in-flight solves abort with
/// structured "cancelled" errors before the daemon exits.  A second
/// signal kills the process (SA_RESETHAND).
///
//===----------------------------------------------------------------------===//

#include "pta/Flags.h"
#include "serve/Server.h"
#include "support/Cancel.h"
#include "support/FaultPlan.h"

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <mutex>
#include <poll.h>
#include <string>
#include <string_view>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace pt;
using namespace pt::serve;

namespace {

void printUsage() {
  std::cout
      << "usage: hybridpt-serve --program <benchmark|file.ptir> [options]\n"
         "\n"
         "Resident NDJSON analysis daemon (docs/SERVING.md).\n"
         "\n"
         "options:\n"
         "  --program SPEC      program to load as epoch 1 (required)\n"
         "  --policy NAME       default context policy (default 2obj+H)\n"
         "  --workers N         worker threads (default 2)\n"
         "  --queue N           admission queue bound (default 64)\n"
         "  --cache N           result cache entries (default 32)\n"
         "  --deadline-ms MS    default per-request deadline (0 = none)\n"
         "  --budget MS         default solver time budget (0 = none)\n"
         "  --max-facts N       default solver fact budget (0 = none)\n"
         "  --max-memory-mb N   default solver memory budget (0 = none)\n"
         "  --retry-after-ms MS back-off hint on shed replies (default 50)\n"
         "  --no-ladder         fail budget-blown solves instead of\n"
         "                      descending the fallback ladder\n"
         "  --fault-plan SPEC   per-request fault schedule, e.g.\n"
         "                      '3=oom-at-step=50;7=cancel-at-step=1'\n"
         "                      (HYBRIDPT_SERVE_FAULT_PLAN when absent)\n"
         "  --trace-out FILE    stream request/heartbeat JSONL telemetry\n"
         "  --listen PATH       serve a unix socket instead of stdio\n";
}

/// Thread-safe line sink over one output FILE (workers reply from the
/// pool, so writes must be serialized and flushed per line).
struct LineWriter {
  std::mutex Mu;
  FILE *Out = nullptr;

  void write(const std::string &Line) {
    std::lock_guard<std::mutex> Lock(Mu);
    std::fwrite(Line.data(), 1, Line.size(), Out);
    std::fputc('\n', Out);
    std::fflush(Out);
  }
};

/// Thread-safe line sink over one socket fd.  Kept alive by shared_ptr in
/// every queued reply closure, so a connection that goes away mid-drain
/// still has a live (if EPIPE-dead) fd to write to — never a crash.
struct FdWriter {
  std::mutex Mu;
  int Fd = -1;

  explicit FdWriter(int Fd) : Fd(Fd) {}
  ~FdWriter() {
    if (Fd >= 0)
      ::close(Fd);
  }

  void write(const std::string &Line) {
    std::lock_guard<std::mutex> Lock(Mu);
    std::string Buf = Line;
    Buf += '\n';
    size_t Off = 0;
    while (Off < Buf.size()) {
      ssize_t N = ::write(Fd, Buf.data() + Off, Buf.size() - Off);
      if (N < 0) {
        if (errno == EINTR)
          continue;
        return; // Client gone (EPIPE with SIGPIPE ignored): drop the reply.
      }
      Off += static_cast<size_t>(N);
    }
  }
};

enum class ReadOutcome { Eof, DrainRequested, Cancelled };

/// Reads NDJSON lines from \p Fd into the server until EOF, a drain
/// request, or a tripped token.  poll()-driven so SIGTERM/SIGINT (whose
/// handlers are installed without SA_RESTART) wake the reader promptly.
///
/// A partial line is held only up to \c ProtocolLimits::MaxLineBytes.
/// Past that the reader answers once with the same bad-request reply a
/// complete oversized line gets, then drops bytes up to the next newline,
/// so a client that never sends one cannot grow the daemon's memory.
ReadOutcome pumpLines(int Fd, Server &S, const Server::ReplyFn &Reply,
                      const CancelToken &DrainTok,
                      const CancelToken &CancelTok) {
  const size_t MaxLineBytes = ProtocolLimits().MaxLineBytes;
  std::string Buf;
  bool Discarding = false; // Inside an oversized line already answered.
  char Chunk[4096];
  for (;;) {
    if (CancelTok.cancelled())
      return ReadOutcome::Cancelled;
    if (DrainTok.cancelled())
      return ReadOutcome::DrainRequested;
    struct pollfd P = {Fd, POLLIN, 0};
    int Ready = ::poll(&P, 1, 200);
    if (Ready < 0) {
      if (errno == EINTR)
        continue;
      return ReadOutcome::Eof;
    }
    if (Ready == 0)
      continue;
    ssize_t N = ::read(Fd, Chunk, sizeof(Chunk));
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return ReadOutcome::Eof;
    }
    if (N == 0)
      return ReadOutcome::Eof;
    Buf.append(Chunk, static_cast<size_t>(N));
    // Consume every complete line through a read cursor; the consumed
    // prefix is dropped once per read, not once per line.
    size_t Head = 0, Pos;
    while ((Pos = Buf.find('\n', Head)) != std::string::npos) {
      std::string_view Line(Buf.data() + Head, Pos - Head);
      Head = Pos + 1;
      if (Discarding) {
        Discarding = false; // The rest of the oversized line ends here.
        continue;
      }
      if (!Line.empty() && Line.back() == '\r')
        Line.remove_suffix(1);
      if (Line.empty())
        continue;
      if (!S.handleLine(Line, Reply))
        return ReadOutcome::DrainRequested;
    }
    Buf.erase(0, Head);
    if (!Discarding && Buf.size() > MaxLineBytes) {
      // Too long to ever parse: handleLine rejects it on length alone.
      S.handleLine(Buf, Reply);
      Discarding = true;
    }
    if (Discarding)
      Buf.clear();
  }
}

int runStdio(Server &S, const CancelToken &DrainTok,
             const CancelToken &CancelTok) {
  LineWriter Out;
  Out.Out = stdout;
  Server::ReplyFn Reply = [&Out](const std::string &L) { Out.write(L); };
  ReadOutcome R =
      pumpLines(STDIN_FILENO, S, Reply, DrainTok, CancelTok);
  // Every exit path drains: admitted work is always answered before the
  // process goes away (replies may land after the drain reply itself).
  S.drain();
  return R == ReadOutcome::Cancelled ? 130 : 0;
}

int runSocket(Server &S, const std::string &Path,
              const CancelToken &DrainTok, const CancelToken &CancelTok) {
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  if (Path.size() >= sizeof(Addr.sun_path)) {
    std::cerr << "hybridpt-serve: socket path too long: " << Path << "\n";
    return 1;
  }
  ::unlink(Path.c_str());
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    std::perror("hybridpt-serve: socket");
    return 1;
  }
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size());
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0 ||
      ::listen(Fd, 16) < 0) {
    std::perror("hybridpt-serve: bind/listen");
    ::close(Fd);
    return 1;
  }
  std::cerr << "hybridpt-serve: listening on " << Path << "\n";

  std::vector<std::thread> Readers;
  bool Drain = false;
  while (!Drain && !CancelTok.cancelled() && !DrainTok.cancelled() &&
         !S.draining()) {
    struct pollfd P = {Fd, POLLIN, 0};
    int Ready = ::poll(&P, 1, 200);
    if (Ready < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    if (Ready == 0)
      continue;
    int Conn = ::accept(Fd, nullptr, nullptr);
    if (Conn < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    Readers.emplace_back([Conn, &S, &DrainTok, &CancelTok] {
      auto W = std::make_shared<FdWriter>(Conn);
      Server::ReplyFn Reply = [W](const std::string &L) { W->write(L); };
      pumpLines(Conn, S, Reply, DrainTok, CancelTok);
    });
  }
  ::close(Fd);
  ::unlink(Path.c_str());
  for (std::thread &T : Readers)
    T.join();
  S.drain();
  return CancelTok.cancelled() ? 130 : 0;
}

} // namespace

int main(int argc, char **argv) {
  ServerOptions Opts;
  SharedFlags Flags;
  Flags.Config = Opts.Analysis;
  std::string FaultSpec, Listen;
  bool HaveFaultSpec = false;

  const unsigned Shared =
      FlagPolicy | FlagBudgets | FlagDeadline | FlagTraceOut;
  ArgParser Args(argc, argv, 1, /*UsageExit=*/2);
  while (Args.next()) {
    if (Args.shared(Shared, Flags))
      continue;
    if (Args.is("--help") || Args.is("-h")) {
      printUsage();
      return 0;
    }
    if (Args.is("--program"))
      Opts.ProgramSpec = Args.value();
    else if (Args.is("--workers"))
      Opts.Workers = Args.number<unsigned>();
    else if (Args.is("--queue"))
      Opts.QueueLimit = Args.number<size_t>();
    else if (Args.is("--cache"))
      Opts.CacheEntries = Args.number<size_t>();
    else if (Args.is("--retry-after-ms"))
      Opts.RetryAfterMs = Args.number<uint64_t>();
    else if (Args.is("--no-ladder"))
      Flags.Config.Ladder = false;
    else if (Args.is("--fault-plan")) {
      FaultSpec = Args.value();
      HaveFaultSpec = true;
    } else if (Args.is("--listen"))
      Listen = Args.value();
    else {
      std::cerr << "hybridpt-serve: unknown option '" << Args.arg() << "'\n";
      printUsage();
      return 2;
    }
  }
  Opts.Analysis = Flags.Config;
  Opts.DefaultDeadlineMs = Flags.DeadlineMs;
  if (Opts.ProgramSpec.empty()) {
    std::cerr << "hybridpt-serve: --program is required\n";
    printUsage();
    return 2;
  }

  if (HaveFaultSpec) {
    std::string Error;
    if (!RequestFaultPlan::parse(FaultSpec, Opts.Faults, Error)) {
      std::cerr << "hybridpt-serve: bad --fault-plan: " << Error << "\n";
      return 2;
    }
  } else {
    Opts.Faults = RequestFaultPlan::fromEnv();
  }

  trace::TraceRecorder Trace;
  if (!Flags.TraceOut.empty()) {
    std::string Error;
    if (!Trace.openJsonl(Flags.TraceOut, Error)) {
      std::cerr << "hybridpt-serve: " << Error << "\n";
      return 1;
    }
    Opts.Trace = &Trace;
  }

  // SIGINT cancels in-flight work (per-request tokens chain under this
  // one); SIGTERM drains gracefully.  Both are installed without
  // SA_RESTART so the poll()-based readers wake immediately.
  CancelToken ProcessCancel;
  CancelToken DrainTok;
  installSignalCancel(SIGINT, ProcessCancel);
  installSignalCancel(SIGTERM, DrainTok);
  std::signal(SIGPIPE, SIG_IGN);
  Opts.ProcessCancel = &ProcessCancel;

  Server S(std::move(Opts));
  std::string Error;
  if (!S.start(Error)) {
    std::cerr << "hybridpt-serve: " << Error << "\n";
    return 1;
  }

  int RC = Listen.empty()
               ? runStdio(S, DrainTok, ProcessCancel)
               : runSocket(S, Listen, DrainTok, ProcessCancel);
  S.shutdown();
  return RC;
}
