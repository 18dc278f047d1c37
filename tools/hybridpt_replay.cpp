//===- tools/hybridpt_replay.cpp - Daemon replay/load driver --------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// hybridpt-replay: fires a seeded, mixed NDJSON request stream at a
/// hybridpt-serve child over pipes and checks the robustness contract
/// (docs/SERVING.md):
///
///  - every request gets exactly one structured reply (never a crash,
///    never a hang — a stalled daemon fails the run on a watchdog);
///  - faulted requests (scheduled via --fault-rate onto the daemon's
///    --fault-plan) land a ladder rung ("degraded") or a structured
///    budget/cancelled error, never poisoning their neighbors;
///  - with --verify, every clean ok reply is bit-identical to a local
///    recomputation through the same canonical renderers the batch CLIs
///    print (serve/Canon.h);
///  - with --overload-check, a burst past the admission queue bound is
///    shed with "overloaded"+retry_after_ms (bounded memory, no OOM),
///    and a SIGTERM afterwards drains cleanly to exit 0.
///
/// Per-kind latency percentiles land in BENCH_serve.json (--out), keyed
/// like every other bench file so tools/check_bench_regression.py can
/// diff serve baselines.
///
//===----------------------------------------------------------------------===//

#include "serve/Canon.h"
#include "serve/Epoch.h"
#include "checks/Driver.h"
#include "ir/Program.h"
#include "irtext/TextFormat.h"
#include "pta/Metrics.h"
#include "pta/Flags.h"
#include "support/Json.h"
#include "support/Timer.h"

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <poll.h>
#include <random>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace pt;
using namespace pt::serve;

namespace {

struct Options {
  std::string Program;
  std::string ServeBin;
  std::string OutPath;
  std::string Policy = "2obj+H";
  std::string BasePolicy = "insens";
  uint64_t Requests = 1000;
  unsigned Concurrency = 4;
  uint64_t Seed = 1;
  double FaultRate = 0.0;
  bool Verify = false;
  bool OverloadCheck = false;
  unsigned Workers = 2;
  uint64_t Queue = 64;
  uint64_t DeadlineMs = 0;
  uint64_t BudgetMs = 0;
};

void printUsage() {
  std::cout
      << "usage: hybridpt-replay --program <benchmark|file.ptir> [options]\n"
         "\n"
         "Seeded replay/load driver for hybridpt-serve (docs/SERVING.md).\n"
         "\n"
         "options:\n"
         "  --serve-bin PATH    hybridpt-serve binary (default: next to\n"
         "                      this binary)\n"
         "  --requests N        stream length (default 1000)\n"
         "  --concurrency N     max outstanding requests (default 4)\n"
         "  --seed N            mix/fault PRNG seed (default 1)\n"
         "  --fault-rate F      fraction of work requests faulted (0..1)\n"
         "  --policy NAME       solve policy (default 2obj+H)\n"
         "  --base-policy NAME  compare baseline (default insens)\n"
         "  --workers N         daemon workers (default 2)\n"
         "  --queue N           daemon admission bound (default 64)\n"
         "  --deadline-ms MS    daemon default deadline\n"
         "  --budget MS         daemon default solve budget\n"
         "  --verify            recompute clean answers locally and demand\n"
         "                      bit-identical lines\n"
         "  --overload-check    burst past the queue bound, expect sheds,\n"
         "                      then SIGTERM-drain to exit 0\n"
         "  --out FILE          write BENCH_serve.json\n";
}

/// One planned request line plus what we expect back.
struct Planned {
  uint64_t Id = 0;
  std::string Kind;
  std::string Line;
  bool Work = false;
  bool Faulted = false;
  std::string Var; // points-to only
};

/// One observed reply.
struct Observed {
  bool Seen = false;
  bool Ok = false;
  bool Degraded = false;
  std::string Code;
  std::vector<std::string> Lines;
  double LatencyMs = 0.0;
};

struct Child {
  pid_t Pid = -1;
  int In = -1;  // write requests here
  int Out = -1; // read replies here
};

bool spawnServe(const std::vector<std::string> &Argv, Child &C,
                std::string &Error) {
  int ToChild[2], FromChild[2];
  if (::pipe(ToChild) < 0 || ::pipe(FromChild) < 0) {
    Error = "pipe failed";
    return false;
  }
  pid_t Pid = ::fork();
  if (Pid < 0) {
    Error = "fork failed";
    return false;
  }
  if (Pid == 0) {
    ::dup2(ToChild[0], STDIN_FILENO);
    ::dup2(FromChild[1], STDOUT_FILENO);
    ::close(ToChild[0]);
    ::close(ToChild[1]);
    ::close(FromChild[0]);
    ::close(FromChild[1]);
    std::vector<char *> Args;
    Args.reserve(Argv.size() + 1);
    for (const std::string &A : Argv)
      Args.push_back(const_cast<char *>(A.c_str()));
    Args.push_back(nullptr);
    ::execv(Args[0], Args.data());
    std::perror("hybridpt-replay: execv");
    std::_Exit(127);
  }
  ::close(ToChild[0]);
  ::close(FromChild[1]);
  C.Pid = Pid;
  C.In = ToChild[1];
  C.Out = FromChild[0];
  return true;
}

bool writeAll(int Fd, const std::string &Data) {
  size_t Off = 0;
  while (Off < Data.size()) {
    ssize_t N = ::write(Fd, Data.data() + Off, Data.size() - Off);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Off += static_cast<size_t>(N);
  }
  return true;
}

/// Enumerates findVarByPath-round-trippable variable paths
/// ("Class::method/arity::var"), capped.
std::vector<std::string> enumerateVarPaths(const Program &P, size_t Cap) {
  std::vector<std::string> Out;
  for (size_t I = 0; I < P.numMethods() && Out.size() < Cap; ++I) {
    MethodId M = MethodId::fromIndex(I);
    const MethodInfo &Info = P.method(M);
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

double percentile(std::vector<double> &Sorted, double P) {
  if (Sorted.empty())
    return 0.0;
  double Rank = P * static_cast<double>(Sorted.size() - 1);
  size_t Lo = static_cast<size_t>(Rank);
  size_t Hi = std::min(Lo + 1, Sorted.size() - 1);
  double Frac = Rank - static_cast<double>(Lo);
  return Sorted[Lo] + (Sorted[Hi] - Sorted[Lo]) * Frac;
}

std::string jsonStr(const std::string &S) {
  return "\"" + json::escape(S) + "\"";
}

/// Reads reply lines from the child, matching them to planned requests and
/// signalling the send window.  Runs on its own thread.
struct ReplyPump {
  int Fd;
  std::map<uint64_t, Planned> *ById;
  std::map<uint64_t, Observed> *Replies;
  std::map<uint64_t, double> *SentAt;
  Stopwatch *Clock;
  std::mutex *Mu;
  std::condition_variable *Cv;
  size_t *Outstanding;
  bool ProtocolError = false;
  std::string Error;

  void run() {
    std::string Buf;
    char Chunk[65536];
    double LastProgress = Clock->elapsedMs();
    for (;;) {
      struct pollfd P = {Fd, POLLIN, 0};
      int Ready = ::poll(&P, 1, 500);
      double Now = Clock->elapsedMs();
      if (Ready == 0) {
        // Watchdog: a daemon that stops replying while requests are
        // outstanding is a hang, which this driver exists to catch.
        bool Waiting;
        {
          std::lock_guard<std::mutex> Lock(*Mu);
          Waiting = *Outstanding > 0;
        }
        if (Waiting && Now - LastProgress > 120000.0) {
          fail("no reply for 120s with requests outstanding");
          return;
        }
        continue;
      }
      if (Ready < 0) {
        if (errno == EINTR)
          continue;
        fail("poll failed on daemon stdout");
        return;
      }
      ssize_t N = ::read(Fd, Chunk, sizeof(Chunk));
      if (N < 0) {
        if (errno == EINTR)
          continue;
        fail("read failed on daemon stdout");
        return;
      }
      if (N == 0)
        return; // EOF: daemon exited.
      LastProgress = Now;
      Buf.append(Chunk, static_cast<size_t>(N));
      size_t Pos;
      while ((Pos = Buf.find('\n')) != std::string::npos) {
        std::string Line = Buf.substr(0, Pos);
        Buf.erase(0, Pos + 1);
        if (!Line.empty())
          handleReply(Line, Now);
      }
    }
  }

  void fail(const std::string &Msg) {
    std::lock_guard<std::mutex> Lock(*Mu);
    ProtocolError = true;
    Error = Msg;
    Cv->notify_all();
  }

  void handleReply(const std::string &Line, double Now) {
    json::Value V;
    std::string Err;
    json::ParseLimits Limits;
    Limits.MaxBytes = 64u << 20; // Big points-to sets are legitimate.
    Limits.MaxValues = 1u << 22;
    Limits.MaxStringBytes = 1u << 20;
    if (!json::parse(Line, V, Err, Limits) || !V.isObject()) {
      fail("unparseable reply line: " + Err + ": " +
           Line.substr(0, 200));
      return;
    }
    const json::Value *IdV = V.find("id");
    uint64_t Id = 0;
    if (!IdV || !IdV->asU64(Id)) {
      fail("reply without numeric id: " + Line.substr(0, 200));
      return;
    }
    Observed Obs;
    Obs.Seen = true;
    const json::Value *OkV = V.find("ok");
    Obs.Ok = OkV && OkV->isBool() && OkV->B;
    // The degraded marker is an object ({"from","landed"}); health replies
    // carry a numeric "degraded" *counter*, which must not match here.
    const json::Value *DegV = V.find("degraded");
    Obs.Degraded = DegV && DegV->isObject();
    if (const json::Value *CodeV = V.find("code"))
      if (CodeV->isString())
        Obs.Code = CodeV->Str;
    if (const json::Value *LinesV = V.find("lines"))
      if (LinesV->isArray())
        for (const json::Value &L : LinesV->Arr)
          if (L.isString())
            Obs.Lines.push_back(L.Str);
    std::lock_guard<std::mutex> Lock(*Mu);
    auto SentIt = SentAt->find(Id);
    if (SentIt == SentAt->end()) {
      ProtocolError = true;
      Error = "reply for an id never sent (or answered twice): " +
              std::to_string(Id);
      Cv->notify_all();
      return;
    }
    Obs.LatencyMs = Now - SentIt->second;
    SentAt->erase(SentIt);
    (*Replies)[Id] = std::move(Obs);
    if (*Outstanding > 0)
      --*Outstanding;
    Cv->notify_all();
  }
};

/// Locally recomputed expectations for --verify, through the same Canon
/// renderers the daemon uses.  Solves lazily, one result per policy.
struct LocalOracle {
  std::shared_ptr<const Epoch> Ep;
  std::string Policy, BasePolicy;
  std::map<std::string, LadderResult> Solved;

  const AnalysisResult &result(const std::string &Name) {
    auto It = Solved.find(Name);
    if (It == Solved.end()) {
      AnalysisConfig Config;
      Config.Policy = Name;
      It = Solved.emplace(Name, analyze(*Ep->Prog, Config)).first;
      if (!It->second.Result) {
        std::cerr << "hybridpt-replay: " << It->second.Error << "\n";
        std::exit(1);
      }
    }
    return *It->second.Result;
  }

  std::vector<std::string> expect(const Planned &Req) {
    const Program &P = *Ep->Prog;
    if (Req.Kind == "points-to")
      return pointsToLines(P, result(Policy),
                           findVarByPath(P, Req.Var));
    if (Req.Kind == "callgraph")
      return callGraphLines(computeMetrics(result(Policy)), Policy);
    if (Req.Kind == "lint") {
      checks::LintRun Run = checks::runCheckers(result(Policy), {});
      return lintLines(P, Run.Diags, Policy);
    }
    if (Req.Kind == "compare")
      return compareLines(checks::comparePolicies(P, BasePolicy, Policy));
    return {};
  }
};

int runOverloadCheck(const Options &Opts, const std::string &VarPath) {
  Child C;
  std::string Error;
  std::vector<std::string> Argv = {
      Opts.ServeBin, "--program", Opts.Program, "--policy", Opts.Policy,
      "--workers",   "1",        "--queue",    std::to_string(Opts.Queue)};
  if (!spawnServe(Argv, C, Error)) {
    std::cerr << "hybridpt-replay: " << Error << "\n";
    return 1;
  }

  // Burst well past the queue bound in one write: the daemon must shed the
  // overflow with structured "overloaded" replies instead of growing the
  // queue (or its memory) without bound.
  uint64_t Burst = Opts.Requests;
  std::string Block;
  for (uint64_t I = 1; I <= Burst; ++I)
    Block += "{\"id\":" + std::to_string(I) +
             ",\"kind\":\"points-to\",\"var\":" + jsonStr(VarPath) + "}\n";
  if (!writeAll(C.In, Block)) {
    std::cerr << "hybridpt-replay: short write to daemon\n";
    return 1;
  }

  // Read one reply per request.
  std::string Buf;
  char Chunk[65536];
  uint64_t Seen = 0, Shed = 0, Ok = 0, OtherErr = 0;
  Stopwatch Clock;
  while (Seen < Burst) {
    if (Clock.elapsedMs() > 300000.0) {
      std::cerr << "hybridpt-replay: overload watchdog expired ("
                << Seen << "/" << Burst << " replies)\n";
      ::kill(C.Pid, SIGKILL);
      return 1;
    }
    struct pollfd P = {C.Out, POLLIN, 0};
    int Ready = ::poll(&P, 1, 500);
    if (Ready <= 0)
      continue;
    ssize_t N = ::read(C.Out, Chunk, sizeof(Chunk));
    if (N <= 0)
      break;
    Buf.append(Chunk, static_cast<size_t>(N));
    size_t Pos;
    while ((Pos = Buf.find('\n')) != std::string::npos) {
      std::string Line = Buf.substr(0, Pos);
      Buf.erase(0, Pos + 1);
      if (Line.empty())
        continue;
      ++Seen;
      if (Line.find("\"ok\":true") != std::string::npos)
        ++Ok;
      else if (Line.find("\"code\":\"overloaded\"") != std::string::npos &&
               Line.find("\"retry_after_ms\":") != std::string::npos)
        ++Shed;
      else
        ++OtherErr;
    }
  }
  std::cerr << "overload: " << Seen << " replies (" << Ok << " ok, "
            << Shed << " shed, " << OtherErr << " other)\n";

  // Graceful SIGTERM drain: daemon answers everything admitted and exits 0.
  ::kill(C.Pid, SIGTERM);
  ::close(C.In);
  while (::read(C.Out, Chunk, sizeof(Chunk)) > 0)
    ;
  ::close(C.Out);
  int Status = 0;
  ::waitpid(C.Pid, &Status, 0);

  bool Pass = true;
  if (Seen != Burst) {
    std::cerr << "FAIL: " << (Burst - Seen) << " request(s) never answered\n";
    Pass = false;
  }
  if (Shed == 0) {
    std::cerr << "FAIL: burst of " << Burst << " past a queue bound of "
              << Opts.Queue << " shed nothing\n";
    Pass = false;
  }
  if (Ok == 0) {
    std::cerr << "FAIL: nothing was admitted during the burst\n";
    Pass = false;
  }
  if (OtherErr != 0) {
    std::cerr << "FAIL: " << OtherErr << " unexpected error replies\n";
    Pass = false;
  }
  if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0) {
    std::cerr << "FAIL: daemon did not exit 0 after SIGTERM drain (status "
              << Status << ")\n";
    Pass = false;
  }
  return Pass ? 0 : 1;
}

} // namespace

int main(int argc, char **argv) {
  Options Opts;
  SharedFlags Flags;
  Flags.Config.Policy = Opts.Policy;
  ArgParser Args(argc, argv, 1, /*UsageExit=*/2);
  while (Args.next()) {
    if (Args.shared(FlagPolicy | FlagBudget | FlagDeadline, Flags))
      continue;
    if (Args.is("--help") || Args.is("-h")) {
      printUsage();
      return 0;
    }
    if (Args.is("--program"))
      Opts.Program = Args.value();
    else if (Args.is("--serve-bin"))
      Opts.ServeBin = Args.value();
    else if (Args.is("--requests"))
      Opts.Requests = Args.number<uint64_t>();
    else if (Args.is("--concurrency"))
      Opts.Concurrency = Args.number<unsigned>();
    else if (Args.is("--seed"))
      Opts.Seed = Args.number<uint64_t>();
    else if (Args.is("--fault-rate"))
      Opts.FaultRate = Args.fraction();
    else if (Args.is("--base-policy"))
      Opts.BasePolicy = Args.value();
    else if (Args.is("--workers"))
      Opts.Workers = Args.number<unsigned>();
    else if (Args.is("--queue"))
      Opts.Queue = Args.number<uint64_t>();
    else if (Args.is("--verify"))
      Opts.Verify = true;
    else if (Args.is("--overload-check"))
      Opts.OverloadCheck = true;
    else if (Args.is("--out"))
      Opts.OutPath = Args.value();
    else {
      std::cerr << "hybridpt-replay: unknown option '" << Args.arg()
                << "'\n";
      printUsage();
      return 2;
    }
  }
  Opts.Policy = Flags.Config.Policy;
  Opts.DeadlineMs = Flags.DeadlineMs;
  Opts.BudgetMs = Flags.Config.Solver.TimeBudgetMs;
  if (Opts.Program.empty()) {
    std::cerr << "hybridpt-replay: --program is required\n";
    return 2;
  }
  if (Opts.ServeBin.empty()) {
    std::string Self = argv[0];
    size_t Slash = Self.rfind('/');
    Opts.ServeBin = (Slash == std::string::npos
                         ? std::string(".")
                         : Self.substr(0, Slash)) +
                    "/hybridpt-serve";
  }
  std::signal(SIGPIPE, SIG_IGN);

  // Load the program locally: var paths for the points-to mix, and the
  // oracle for --verify, both come from the same loader the daemon uses.
  std::string Error;
  std::shared_ptr<const Epoch> Ep = loadEpoch(1, Opts.Program, Error);
  if (!Ep) {
    std::cerr << "hybridpt-replay: " << Error << "\n";
    return 1;
  }
  std::vector<std::string> VarPaths = enumerateVarPaths(*Ep->Prog, 512);
  if (VarPaths.empty()) {
    std::cerr << "hybridpt-replay: program has no local variables to query\n";
    return 1;
  }

  if (Opts.OverloadCheck)
    return runOverloadCheck(Opts, VarPaths.front());

  LocalOracle Oracle;
  Oracle.Ep = Ep;
  Oracle.Policy = Opts.Policy;
  Oracle.BasePolicy = Opts.BasePolicy;

  // Pick the oom fault step so that the native solve blows its budget but
  // the ladder's terminal "insens" rung converges first — a genuinely
  // *degraded* answer, not just an exhausted ladder.  Falls back to a
  // small fixed step (ladder exhausts; still a structured outcome) when
  // the window doesn't exist or counters are compiled out.
  uint64_t OomStep = 60;
  bool OomCanFire = false;
  if (Opts.FaultRate > 0.0) {
    uint64_t Native = Oracle.result(Opts.Policy).Counters.WorklistSteps;
    uint64_t Insens = Oracle.result("insens").Counters.WorklistSteps;
    uint64_t Cushion = Insens + Insens / 2; // warm-start step-count slack
    if (Native > Cushion && Cushion > 0)
      OomStep = Cushion;
    // On a program too small to ever reach OomStep (or with step counters
    // compiled out) an oom fault would silently not fire and the request
    // would complete clean — which the judge rightly rejects.  Schedule
    // cancellations only in that case; they fire at step 1 regardless.
    OomCanFire = Native > OomStep;
  }

  // ---- Plan the stream -------------------------------------------------
  std::mt19937_64 Rng(Opts.Seed);
  std::uniform_real_distribution<double> Unit(0.0, 1.0);
  std::vector<Planned> Plan;
  Plan.reserve(Opts.Requests);
  std::string FaultSpec;
  uint64_t WorkOrdinal = 0, FaultCount = 0;
  for (uint64_t I = 1; I <= Opts.Requests; ++I) {
    Planned Rq;
    Rq.Id = I;
    double Roll = Unit(Rng);
    std::ostringstream OS;
    if (Roll < 0.40) {
      Rq.Kind = "points-to";
      Rq.Var = VarPaths[Rng() % VarPaths.size()];
      OS << "{\"id\":" << I << ",\"kind\":\"points-to\",\"policy\":"
         << jsonStr(Opts.Policy) << ",\"var\":" << jsonStr(Rq.Var) << "}";
    } else if (Roll < 0.65) {
      Rq.Kind = "lint";
      OS << "{\"id\":" << I << ",\"kind\":\"lint\",\"policy\":"
         << jsonStr(Opts.Policy) << "}";
    } else if (Roll < 0.85) {
      Rq.Kind = "callgraph";
      OS << "{\"id\":" << I << ",\"kind\":\"callgraph\",\"policy\":"
         << jsonStr(Opts.Policy) << "}";
    } else if (Roll < 0.90) {
      Rq.Kind = "compare";
      OS << "{\"id\":" << I << ",\"kind\":\"compare\",\"base\":"
         << jsonStr(Opts.BasePolicy) << ",\"refined\":"
         << jsonStr(Opts.Policy) << "}";
    } else if (Roll < 0.95) {
      Rq.Kind = "reload";
      OS << "{\"id\":" << I << ",\"kind\":\"reload\"}";
    } else {
      Rq.Kind = "health";
      OS << "{\"id\":" << I << ",\"kind\":\"health\"}";
    }
    Rq.Work = Rq.Kind == "points-to" || Rq.Kind == "lint" ||
              Rq.Kind == "callgraph" || Rq.Kind == "compare";
    if (Rq.Work) {
      ++WorkOrdinal;
      // Compare runs outside the fault hook (see serve/Server.cpp), so
      // faults are scheduled onto the other work kinds only.
      if (Rq.Kind != "compare" && Unit(Rng) < Opts.FaultRate) {
        Rq.Faulted = true;
        ++FaultCount;
        if (!FaultSpec.empty())
          FaultSpec += ';';
        // Alternate a budget fault (lands a rung or exhausts the ladder)
        // with a cancellation (always a structured "cancelled" error).
        FaultSpec += std::to_string(WorkOrdinal) +
                     (FaultCount % 2 && OomCanFire
                          ? "=oom-at-step=" + std::to_string(OomStep)
                          : "=cancel-at-step=1");
      }
    }
    Rq.Line = OS.str();
    Plan.push_back(std::move(Rq));
  }

  // ---- Spawn the daemon ------------------------------------------------
  std::vector<std::string> Argv = {Opts.ServeBin,
                                   "--program",
                                   Opts.Program,
                                   "--policy",
                                   Opts.Policy,
                                   "--workers",
                                   std::to_string(Opts.Workers),
                                   "--queue",
                                   std::to_string(Opts.Queue)};
  if (Opts.DeadlineMs) {
    Argv.push_back("--deadline-ms");
    Argv.push_back(std::to_string(Opts.DeadlineMs));
  }
  if (Opts.BudgetMs) {
    Argv.push_back("--budget");
    Argv.push_back(std::to_string(Opts.BudgetMs));
  }
  if (!FaultSpec.empty()) {
    Argv.push_back("--fault-plan");
    Argv.push_back(FaultSpec);
  }
  Child C;
  if (!spawnServe(Argv, C, Error)) {
    std::cerr << "hybridpt-replay: " << Error << "\n";
    return 1;
  }

  // ---- Pump ------------------------------------------------------------
  Stopwatch Clock;
  std::mutex Mu;
  std::condition_variable Cv;
  size_t Outstanding = 0;
  std::map<uint64_t, Planned> ById;
  std::map<uint64_t, Observed> Replies;
  std::map<uint64_t, double> SentAt;
  for (const Planned &Rq : Plan)
    ById[Rq.Id] = Rq;

  ReplyPump Pump;
  Pump.Fd = C.Out;
  Pump.ById = &ById;
  Pump.Replies = &Replies;
  Pump.SentAt = &SentAt;
  Pump.Clock = &Clock;
  Pump.Mu = &Mu;
  Pump.Cv = &Cv;
  Pump.Outstanding = &Outstanding;
  std::thread Reader([&Pump] { Pump.run(); });

  size_t Window = std::max(1u, Opts.Concurrency);
  bool SendFailed = false;
  for (const Planned &Rq : Plan) {
    {
      std::unique_lock<std::mutex> Lock(Mu);
      Cv.wait(Lock, [&] {
        return Outstanding < Window || Pump.ProtocolError;
      });
      if (Pump.ProtocolError)
        break;
      SentAt[Rq.Id] = Clock.elapsedMs();
      ++Outstanding;
    }
    if (!writeAll(C.In, Rq.Line + "\n")) {
      SendFailed = true;
      break;
    }
  }
  {
    // Wait for the tail, then EOF the daemon: it drains and exits 0.
    std::unique_lock<std::mutex> Lock(Mu);
    Cv.wait(Lock, [&] { return Outstanding == 0 || Pump.ProtocolError; });
  }
  ::close(C.In);
  Reader.join();
  ::close(C.Out);
  int Status = 0;
  ::waitpid(C.Pid, &Status, 0);

  // ---- Judge -----------------------------------------------------------
  bool Pass = true;
  if (SendFailed) {
    std::cerr << "FAIL: daemon stdin closed mid-stream (crash?)\n";
    Pass = false;
  }
  if (Pump.ProtocolError) {
    std::cerr << "FAIL: " << Pump.Error << "\n";
    Pass = false;
  }
  if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0) {
    std::cerr << "FAIL: daemon crashed or exited nonzero (status " << Status
              << ")\n";
    Pass = false;
  }

  std::map<std::string, std::vector<double>> LatByKind;
  std::map<std::string, uint64_t> ErrByKind, DegByKind;
  uint64_t Missing = 0, FaultedStructured = 0, VerifyFails = 0;
  for (const Planned &Rq : Plan) {
    auto It = Replies.find(Rq.Id);
    if (It == Replies.end() || !It->second.Seen) {
      ++Missing;
      continue;
    }
    const Observed &Obs = It->second;
    LatByKind[Rq.Kind].push_back(Obs.LatencyMs);
    if (!Obs.Ok)
      ++ErrByKind[Rq.Kind];
    if (Obs.Degraded)
      ++DegByKind[Rq.Kind];
    if (Rq.Faulted) {
      // Contract: a faulted request lands a rung (ok+degraded) or yields
      // a structured budget/cancelled error — never a bare failure.
      bool Structured =
          (Obs.Ok && Obs.Degraded) ||
          (!Obs.Ok && (Obs.Code == "budget" || Obs.Code == "cancelled"));
      if (Structured)
        ++FaultedStructured;
      else {
        std::cerr << "FAIL: faulted request " << Rq.Id << " (" << Rq.Kind
                  << ") got outcome ok=" << Obs.Ok << " code='" << Obs.Code
                  << "'\n";
        Pass = false;
      }
      continue;
    }
    if (!Obs.Ok) {
      std::cerr << "FAIL: clean request " << Rq.Id << " (" << Rq.Kind
                << ") errored: code='" << Obs.Code << "'\n";
      Pass = false;
      continue;
    }
    if (Opts.Verify && Rq.Work && !Obs.Degraded) {
      std::vector<std::string> Want = Oracle.expect(Rq);
      if (Want != Obs.Lines) {
        ++VerifyFails;
        if (VerifyFails <= 3)
          std::cerr << "FAIL: request " << Rq.Id << " (" << Rq.Kind
                    << ") drifted from the batch renderers: got "
                    << Obs.Lines.size() << " line(s), want " << Want.size()
                    << "\n";
        Pass = false;
      }
    }
  }
  if (Missing) {
    std::cerr << "FAIL: " << Missing << " request(s) never answered\n";
    Pass = false;
  }

  // ---- Report ----------------------------------------------------------
  std::ostringstream Bench;
  Bench << "{\n  \"harness\": \"hybridpt-replay\",\n"
        << "  \"program\": " << jsonStr(Opts.Program) << ",\n"
        << "  \"requests\": " << Opts.Requests << ",\n"
        << "  \"concurrency\": " << Opts.Concurrency << ",\n"
        << "  \"workers\": " << Opts.Workers << ",\n"
        << "  \"seed\": " << Opts.Seed << ",\n"
        << "  \"fault_rate\": " << Opts.FaultRate << ",\n"
        << "  \"faulted\": " << FaultCount << ",\n"
        << "  \"cells\": [\n";
  bool First = true;
  for (auto &KV : LatByKind) {
    std::vector<double> &L = KV.second;
    std::sort(L.begin(), L.end());
    double Sum = 0.0;
    for (double V : L)
      Sum += V;
    double Avg = L.empty() ? 0.0 : Sum / static_cast<double>(L.size());
    if (!First)
      Bench << ",\n";
    First = false;
    char Row[512];
    std::snprintf(
        Row, sizeof(Row),
        "    {\"benchmark\": %s, \"policy\": \"serve:%s\", "
        "\"count\": %zu, \"errors\": %llu, \"degraded\": %llu, "
        "\"time_ms\": %.3f, \"min_ms\": %.3f, \"p50_ms\": %.3f, "
        "\"p95_ms\": %.3f, \"p99_ms\": %.3f, \"max_ms\": %.3f}",
        jsonStr(Opts.Program).c_str(), KV.first.c_str(), L.size(),
        static_cast<unsigned long long>(ErrByKind[KV.first]),
        static_cast<unsigned long long>(DegByKind[KV.first]), Avg,
        L.empty() ? 0.0 : L.front(), percentile(L, 0.50),
        percentile(L, 0.95), percentile(L, 0.99),
        L.empty() ? 0.0 : L.back());
    Bench << Row;
    std::cerr << "serve:" << KV.first << ": n=" << L.size()
              << " avg=" << Avg << "ms p95=" << percentile(L, 0.95)
              << "ms errors=" << ErrByKind[KV.first]
              << " degraded=" << DegByKind[KV.first] << "\n";
  }
  Bench << "\n  ]\n}\n";
  if (!Opts.OutPath.empty()) {
    std::ofstream Out(Opts.OutPath);
    if (!Out) {
      std::cerr << "hybridpt-replay: cannot write " << Opts.OutPath << "\n";
      return 1;
    }
    Out << Bench.str();
  }
  std::cerr << (Pass ? "PASS" : "FAIL") << ": " << Replies.size() << "/"
            << Opts.Requests << " answered, " << FaultedStructured << "/"
            << FaultCount << " faulted structured\n";
  return Pass ? 0 : 1;
}
