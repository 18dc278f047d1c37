//===- serve/Server.cpp --------------------------------------------------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "checks/Driver.h"
#include "context/PolicyRegistry.h"
#include "ir/Program.h"
#include "irtext/TextFormat.h"
#include "serve/Canon.h"
#include "support/Json.h"

#include <algorithm>
#include <exception>
#include <sstream>

using namespace pt;
using namespace pt::serve;

namespace {

std::string joinChecks(const std::vector<std::string> &Checks) {
  if (Checks.empty())
    return "all";
  std::string Out;
  for (const std::string &C : Checks) {
    if (!Out.empty())
      Out += ',';
    Out += C;
  }
  return Out;
}

void appendLinesJson(std::ostringstream &OS,
                     const std::vector<std::string> &Lines) {
  OS << "\"count\":" << Lines.size() << ",\"lines\":[";
  for (size_t I = 0; I < Lines.size(); ++I)
    OS << (I ? "," : "") << '"' << json::escape(Lines[I]) << '"';
  OS << ']';
}

} // namespace

Server::Server(ServerOptions Opts)
    : Opts(std::move(Opts)), Cache(this->Opts.CacheEntries) {}

Server::~Server() { shutdown(); }

bool Server::start(std::string &Error) {
  std::shared_ptr<const Epoch> Ep = loadEpoch(1, Opts.ProgramSpec, Error);
  if (!Ep)
    return false;
  std::lock_guard<std::mutex> Lock(Mu);
  Current = std::move(Ep);
  NextEpochId = 2;
  unsigned Workers = std::max(1u, Opts.Workers);
  Pool.reserve(Workers);
  for (unsigned I = 0; I < Workers; ++I)
    Pool.emplace_back([this] { workerLoop(); });
  Started = true;
  return true;
}

bool Server::draining() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Draining;
}

uint64_t Server::epochId() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Current ? Current->Id : 0;
}

Server::Stats Server::stats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Counters;
}

void Server::drain() {
  std::unique_lock<std::mutex> Lock(Mu);
  Draining = true;
  IdleCv.wait(Lock, [this] { return Queue.empty() && InFlight == 0; });
}

void Server::shutdown() {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    if (!Started)
      return;
  }
  drain();
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Stopping = true;
  }
  QueueCv.notify_all();
  for (std::thread &T : Pool)
    T.join();
  Pool.clear();
  std::lock_guard<std::mutex> Lock(Mu);
  Started = false;
}

bool Server::handleLine(std::string_view Line, ReplyFn Reply) {
  Request Req;
  ErrorCode Code = ErrorCode::None;
  std::string Error;
  if (!parseRequest(Line, Req, Code, Error)) {
    // Malformed input never crashes and never consumes a queue slot: one
    // structured error reply, then the next request proceeds untouched.
    std::ostringstream OS;
    OS << "{\"id\":" << Req.Id << ",\"ok\":false,\"code\":\""
       << errorCodeName(Code) << "\",\"error\":\"" << json::escape(Error)
       << "\"}";
    Reply(OS.str());
    return true;
  }

  if (Req.Kind == RequestKind::Health) {
    Reply(handleHealth(Req));
    return true;
  }
  if (Req.Kind == RequestKind::Drain) {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      Draining = true;
    }
    std::ostringstream OS;
    OS << "{\"id\":" << Req.Id
       << ",\"ok\":true,\"kind\":\"drain\",\"draining\":true}";
    Reply(OS.str());
    return false;
  }
  if (Req.Kind == RequestKind::Reload) {
    Reply(handleReload(Req));
    return true;
  }

  // Work request: admit or shed.
  Job J;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    if (Draining || Stopping) {
      std::ostringstream OS;
      OS << "{\"id\":" << Req.Id << ",\"ok\":false,\"kind\":\""
         << kindName(Req.Kind) << "\",\"code\":\""
         << errorCodeName(ErrorCode::Draining)
         << "\",\"error\":\"server is draining; no new work admitted\"}";
      Reply(OS.str());
      return true;
    }
    if (Queue.size() >= Opts.QueueLimit) {
      ++Counters.Shed;
      if (Opts.Trace) {
        trace::RequestRecord R;
        R.Id = Req.Id;
        R.Kind = kindName(Req.Kind);
        R.EpochId = Current ? Current->Id : 0;
        R.Outcome = "shed";
        R.Code = errorCodeName(ErrorCode::Overloaded);
        Opts.Trace->request(R);
      }
      std::ostringstream OS;
      OS << "{\"id\":" << Req.Id << ",\"ok\":false,\"kind\":\""
         << kindName(Req.Kind) << "\",\"code\":\""
         << errorCodeName(ErrorCode::Overloaded)
         << "\",\"error\":\"admission queue full ("
         << Opts.QueueLimit << " deep); back off and retry\""
         << ",\"retry_after_ms\":" << Opts.RetryAfterMs << '}';
      Reply(OS.str());
      return true;
    }
    J.Req = std::move(Req);
    J.Reply = std::move(Reply);
    J.Ep = Current;
    J.Ordinal = ++WorkOrdinal;
    J.AdmitMs = Clock.elapsedMs();
    ++Counters.Admitted;
    Queue.push_back(std::move(J));
  }
  QueueCv.notify_one();
  return true;
}

std::string Server::handleHealth(const Request &Req) {
  ResultCache::Stats CS = Cache.stats();
  std::lock_guard<std::mutex> Lock(Mu);
  std::ostringstream OS;
  OS << "{\"id\":" << Req.Id << ",\"ok\":true,\"kind\":\"health\""
     << ",\"epoch\":" << (Current ? Current->Id : 0) << ",\"program\":\""
     << json::escape(Current ? Current->Spec : "") << "\",\"draining\":"
     << (Draining ? "true" : "false") << ",\"workers\":" << Pool.size()
     << ",\"queue_depth\":" << Queue.size()
     << ",\"queue_limit\":" << Opts.QueueLimit
     << ",\"in_flight\":" << InFlight
     << ",\"admitted\":" << Counters.Admitted
     << ",\"replied\":" << Counters.Replied << ",\"shed\":" << Counters.Shed
     << ",\"errors\":" << Counters.Errors
     << ",\"degraded\":" << Counters.Degraded
     << ",\"faulted\":" << Counters.Faulted << ",\"cache\":{\"entries\":"
     << CS.Entries << ",\"capacity\":" << CS.Capacity << ",\"hits\":"
     << CS.Hits << ",\"misses\":" << CS.Misses << ",\"evictions\":"
     << CS.Evictions << "}}";
  return OS.str();
}

std::string Server::handleReload(const Request &Req) {
  std::string Spec = Req.Program;
  uint64_t NewId = 0;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    if (Draining || Stopping) {
      std::ostringstream OS;
      OS << "{\"id\":" << Req.Id << ",\"ok\":false,\"kind\":\"reload\""
         << ",\"code\":\"" << errorCodeName(ErrorCode::Draining)
         << "\",\"error\":\"server is draining; no new work admitted\"}";
      return OS.str();
    }
    if (Spec.empty() && Current)
      Spec = Current->Spec;
    NewId = NextEpochId++;
  }

  // Load outside the lock: parsing can take a while and must not stall
  // admission or health probes.  A failed load leaves the current epoch
  // untouched — the daemon never serves a half-loaded program.
  std::string Error;
  std::shared_ptr<const Epoch> Ep = loadEpoch(NewId, Spec, Error);
  if (!Ep) {
    std::ostringstream OS;
    OS << "{\"id\":" << Req.Id << ",\"ok\":false,\"kind\":\"reload\""
       << ",\"code\":\"" << errorCodeName(ErrorCode::BadProgram)
       << "\",\"error\":\"" << json::escape(Error) << "\"}";
    return OS.str();
  }

  uint64_t Live = 0;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    // Swap-if-newer: two racing reloads resolve to the higher epoch id, so
    // the epoch clock never runs backwards.
    if (!Current || Ep->Id > Current->Id) {
      Current = std::move(Ep);
      Cache.clear(); // Atomic invalidation: the new epoch starts cold.
    }
    Live = Current->Id;
  }
  std::ostringstream OS;
  OS << "{\"id\":" << Req.Id << ",\"ok\":true,\"kind\":\"reload\""
     << ",\"epoch\":" << Live << ",\"program\":\"" << json::escape(Spec)
     << "\"}";
  return OS.str();
}

void Server::workerLoop() {
  for (;;) {
    Job J;
    {
      std::unique_lock<std::mutex> Lock(Mu);
      QueueCv.wait(Lock, [this] { return Stopping || !Queue.empty(); });
      if (Queue.empty()) {
        if (Stopping)
          return;
        continue;
      }
      J = std::move(Queue.front());
      Queue.pop_front();
      ++InFlight;
    }
    J.DispatchMs = Clock.elapsedMs();
    execute(J);
    {
      std::lock_guard<std::mutex> Lock(Mu);
      --InFlight;
    }
    IdleCv.notify_all();
  }
}

AnalysisConfig Server::analysisConfig(const Request &Req,
                                      const std::string &Policy,
                                      CancelToken &Tok,
                                      const FaultPlan *Fault) const {
  AnalysisConfig C = Opts.Analysis;
  C.Policy = Policy;
  SolverOptions &S = C.Solver;
  if (Req.BudgetMs)
    S.TimeBudgetMs = Req.BudgetMs;
  if (Req.MaxFacts)
    S.MaxFacts = Req.MaxFacts;
  if (Req.MaxMemoryMb)
    S.MemoryBudgetBytes = Req.MaxMemoryMb * 1000000;
  S.Cancel = &Tok;
  if (Fault)
    S.Faults = *Fault;
  return C;
}

std::shared_ptr<const CacheEntry>
Server::solveCell(const Job &Job, const std::string &Policy, CancelToken &Tok,
                  const FaultPlan *Fault, Outcome &Out, bool Native) {
  const Program &P = *Job.Ep->Prog;
  const std::string Key =
      "solve/e" + std::to_string(Job.Ep->Id) + "/" + Policy;
  const bool Cacheable = Fault == nullptr;

  // In-flight dedup: the first requester solves, concurrent requesters for
  // the same key wait and read the published entry instead of burning a
  // worker on the same fixpoint.  Faulted requests bypass the gate AND the
  // cache in both directions — they must not read a clean answer, and
  // their (possibly degraded) result must never poison the cache.
  struct Gate {
    Server *S = nullptr;
    const std::string *Key = nullptr;
    ~Gate() {
      if (!S)
        return;
      {
        std::lock_guard<std::mutex> Lock(S->GateMu);
        S->SolvingKeys.erase(*Key);
      }
      S->GateCv.notify_all();
    }
  } Held;

  if (Cacheable) {
    std::unique_lock<std::mutex> Lock(GateMu);
    for (;;) {
      if (std::shared_ptr<const CacheEntry> E = Cache.get(Key)) {
        Out.CacheHit = true;
        return E;
      }
      if (!SolvingKeys.count(Key)) {
        SolvingKeys.insert(Key);
        Held.S = this;
        Held.Key = &Key;
        break;
      }
      GateCv.wait(Lock);
    }
  }

  if (!createPolicy(Policy, P)) {
    Out.Code = ErrorCode::UnknownPolicy;
    Out.Error = "unknown policy '" + Policy + "'";
    return nullptr;
  }

  AnalysisConfig Config = analysisConfig(Job.Req, Policy, Tok, Fault);
  if (Native)
    Config.Ladder = false;
  LadderResult LR = analyze(P, Config);
  if (!LR.Result) {
    Out.Code = ErrorCode::Internal;
    Out.Error = LR.Error;
    return nullptr;
  }
  auto Entry = std::make_shared<CacheEntry>();
  Entry->Ep = Job.Ep;
  Entry->Policy = std::move(LR.Policy);
  Entry->Result = std::move(LR.Result);
  Entry->LandedPolicy = LR.LandedPolicy;
  Entry->FallbackFrom = LR.FallbackFrom;

  if (Entry->Result->Aborted) {
    Out.Abort = Entry->Result->Reason;
    if (Entry->Result->Reason == AbortReason::Cancelled) {
      // Cancellation never ladders (the client wants out, not a coarser
      // answer): structured "cancelled" error.
      Out.Code = ErrorCode::Cancelled;
      Out.Error = "request cancelled (deadline or shutdown)";
    } else {
      Out.Code = ErrorCode::Budget;
      Out.Error = std::string("solver budget exhausted (") +
                  abortReasonName(Entry->Result->Reason) +
                  (Config.Ladder ? "; ladder exhausted)" : ")");
    }
    return nullptr;
  }

  Entry->Metrics = computeMetrics(*Entry->Result);
  // Publish only converged, native, fault-free results: a degraded answer
  // must not satisfy a later request that could afford the real one.
  if (Cacheable && Entry->FallbackFrom.empty())
    Cache.put(Key, Entry);
  return Entry;
}

Server::Outcome Server::runPointsTo(const Job &Job, CancelToken &Tok,
                                    const FaultPlan *Fault) {
  Outcome Out;
  const Program &P = *Job.Ep->Prog;
  VarId V = findVarByPath(P, Job.Req.Var);
  if (!V.isValid()) {
    Out.Code = ErrorCode::UnknownVar;
    Out.Error = "no variable '" + Job.Req.Var + "'";
    return Out;
  }
  std::shared_ptr<const CacheEntry> E =
      solveCell(Job, requestedPolicy(Job.Req), Tok, Fault, Out);
  if (!E)
    return Out;
  Out.Ok = true;
  Out.Policy = E->LandedPolicy;
  Out.FallbackFrom = E->FallbackFrom;
  Out.Lines = pointsToLines(P, *E->Result, V);
  return Out;
}

Server::Outcome Server::runCallGraph(const Job &Job, CancelToken &Tok,
                                     const FaultPlan *Fault) {
  Outcome Out;
  std::shared_ptr<const CacheEntry> E =
      solveCell(Job, requestedPolicy(Job.Req), Tok, Fault, Out);
  if (!E)
    return Out;
  Out.Ok = true;
  Out.Policy = E->LandedPolicy;
  Out.FallbackFrom = E->FallbackFrom;
  Out.Lines = callGraphLines(E->Metrics, E->LandedPolicy);
  return Out;
}

Server::Outcome Server::runLint(const Job &Job, CancelToken &Tok,
                                const FaultPlan *Fault) {
  Outcome Out;
  const std::string Policy = requestedPolicy(Job.Req);
  const std::string Key = "lint/e" + std::to_string(Job.Ep->Id) + "/" +
                          Policy + "/" + joinChecks(Job.Req.Checks);
  if (!Fault) {
    if (std::shared_ptr<const CacheEntry> E = Cache.get(Key)) {
      Out.Ok = true;
      Out.CacheHit = true;
      Out.Policy = E->LandedPolicy;
      Out.Lines = E->Lines;
      return Out;
    }
  }
  std::shared_ptr<const CacheEntry> SC =
      solveCell(Job, Policy, Tok, Fault, Out);
  if (!SC)
    return Out;
  checks::LintRun Run = checks::runCheckers(*SC->Result, Job.Req.Checks);
  if (!Run.ok()) {
    Out.Code = ErrorCode::BadRequest;
    Out.Error = Run.Error;
    return Out;
  }
  Out.Ok = true;
  Out.Policy = SC->LandedPolicy;
  Out.FallbackFrom = SC->FallbackFrom;
  Out.Lines = lintLines(*Job.Ep->Prog, Run.Diags, SC->LandedPolicy);
  if (!Fault && SC->FallbackFrom.empty()) {
    auto E = std::make_shared<CacheEntry>();
    E->Ep = Job.Ep;
    E->LandedPolicy = SC->LandedPolicy;
    E->Lines = Out.Lines;
    Cache.put(Key, E);
  }
  return Out;
}

Server::Outcome Server::runCompare(const Job &Job, CancelToken &Tok,
                                   const FaultPlan *Fault) {
  Outcome Out;
  const Program &P = *Job.Ep->Prog;
  for (const std::string &Name : {Job.Req.Base, Job.Req.Refined}) {
    if (!createPolicy(Name, P)) {
      Out.Code = ErrorCode::UnknownPolicy;
      Out.Error = "unknown policy '" + Name + "'";
      return Out;
    }
  }
  const std::string Key = "compare/e" + std::to_string(Job.Ep->Id) + "/" +
                          Job.Req.Base + "/" + Job.Req.Refined + "/" +
                          joinChecks(Job.Req.Checks);
  if (!Fault) {
    if (std::shared_ptr<const CacheEntry> E = Cache.get(Key)) {
      Out.Ok = true;
      Out.CacheHit = true;
      Out.Policy = E->LandedPolicy;
      Out.Lines = E->Lines;
      return Out;
    }
  }
  // Each side is the native solve every other kind reads, so one (epoch,
  // policy) is solved once whatever mix of kinds asks for it.  A ladder
  // rung would not be the comparison the client asked for.
  checks::LintRun Runs[2];
  for (int I = 0; I < 2; ++I) {
    std::shared_ptr<const CacheEntry> SC =
        solveCell(Job, I == 0 ? Job.Req.Base : Job.Req.Refined, Tok, Fault,
                  Out, /*Native=*/true);
    Out.CacheHit = false; // Only the compare entry's own hit counts.
    if (!SC) {
      if (Out.Code == ErrorCode::Budget)
        Out.Error = std::string("comparison aborted (") +
                    abortReasonName(Out.Abort) + ")";
      return Out;
    }
    Runs[I] = checks::runCheckers(*SC->Result, Job.Req.Checks);
    if (!Runs[I].ok())
      break;
  }
  checks::CompareResult CR = checks::compareRuns(
      Job.Req.Base, Job.Req.Refined, std::move(Runs[0]), std::move(Runs[1]));
  if (!CR.ok()) {
    Out.Code = ErrorCode::BadRequest; // An unknown checker id.
    Out.Error = CR.Error;
    return Out;
  }
  Out.Ok = true;
  Out.Policy = Job.Req.Base + "->" + Job.Req.Refined;
  Out.Lines = compareLines(CR);
  if (!Fault) {
    auto E = std::make_shared<CacheEntry>();
    E->Ep = Job.Ep;
    E->LandedPolicy = Out.Policy;
    E->Lines = Out.Lines;
    Cache.put(Key, E);
  }
  return Out;
}

Server::Outcome Server::runWork(const Job &Job, CancelToken &Tok,
                                const FaultPlan *Fault) {
  switch (Job.Req.Kind) {
  case RequestKind::PointsTo:
    return runPointsTo(Job, Tok, Fault);
  case RequestKind::CallGraph:
    return runCallGraph(Job, Tok, Fault);
  case RequestKind::Lint:
    return runLint(Job, Tok, Fault);
  case RequestKind::Compare:
    return runCompare(Job, Tok, Fault);
  default:
    break;
  }
  Outcome Out;
  Out.Code = ErrorCode::Internal;
  Out.Error = "non-work kind reached the worker pool";
  return Out;
}

void Server::execute(Job &J) {
  // Per-request guard: a fresh token chained under the process token, armed
  // with the request's deadline (or the server default).  The token is
  // re-armable by design (support/Cancel.h) but each request gets its own —
  // guards must not leak across requests.
  CancelToken Tok(Opts.ProcessCancel);
  uint64_t DeadlineMs =
      J.Req.DeadlineMs ? J.Req.DeadlineMs : Opts.DefaultDeadlineMs;
  if (DeadlineMs != 0)
    Tok.setDeadlineMs(DeadlineMs);
  const FaultPlan *Fault = Opts.Faults.planForRequest(J.Ordinal);

  Outcome Out;
  try {
    Out = runWork(J, Tok, Fault);
  } catch (const std::exception &E) {
    Out = Outcome{};
    Out.Code = ErrorCode::Internal;
    Out.Error = std::string("unexpected exception: ") + E.what();
  } catch (...) {
    Out = Outcome{};
    Out.Code = ErrorCode::Internal;
    Out.Error = "unexpected non-standard exception";
  }
  Out.Faulted = Fault != nullptr;

  std::ostringstream OS;
  if (Out.Ok) {
    OS << "{\"id\":" << J.Req.Id << ",\"ok\":true,\"kind\":\""
       << kindName(J.Req.Kind) << "\",\"epoch\":" << J.Ep->Id
       << ",\"policy\":\"" << json::escape(Out.Policy) << '"';
    if (!J.Req.Var.empty())
      OS << ",\"var\":\"" << json::escape(J.Req.Var) << '"';
    OS << ",\"cache_hit\":" << (Out.CacheHit ? "true" : "false");
    if (Out.Faulted)
      OS << ",\"faulted\":true";
    if (!Out.FallbackFrom.empty())
      OS << ",\"degraded\":{\"from\":\"" << json::escape(Out.FallbackFrom)
         << "\",\"landed\":\"" << json::escape(Out.Policy) << "\"}";
    OS << ',';
    appendLinesJson(OS, Out.Lines);
    OS << '}';
  } else {
    OS << "{\"id\":" << J.Req.Id << ",\"ok\":false,\"kind\":\""
       << kindName(J.Req.Kind) << "\",\"epoch\":" << J.Ep->Id
       << ",\"code\":\"" << errorCodeName(Out.Code) << '"';
    if (Out.Faulted)
      OS << ",\"faulted\":true";
    OS << ",\"error\":\"" << json::escape(Out.Error) << "\"}";
  }

  double Now = Clock.elapsedMs();
  {
    std::lock_guard<std::mutex> Lock(Mu);
    ++Counters.Replied;
    if (!Out.Ok)
      ++Counters.Errors;
    if (!Out.FallbackFrom.empty())
      ++Counters.Degraded;
    if (Out.Faulted)
      ++Counters.Faulted;
  }
  if (Opts.Trace) {
    trace::RequestRecord R;
    R.Id = J.Req.Id;
    R.Kind = kindName(J.Req.Kind);
    R.Policy = Out.Policy;
    R.EpochId = J.Ep->Id;
    R.Outcome = Out.Ok ? (Out.FallbackFrom.empty() ? "ok" : "degraded")
                       : "error";
    R.Code = Out.Ok ? "" : errorCodeName(Out.Code);
    R.CacheHit = Out.CacheHit;
    R.QueueMs = J.DispatchMs - J.AdmitMs;
    R.LatencyMs = Now - J.AdmitMs;
    Opts.Trace->request(R);
  }
  J.Reply(OS.str());
}
