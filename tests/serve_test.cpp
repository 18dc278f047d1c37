//===- tests/serve_test.cpp - Daemon core tests ---------------------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The resident-daemon robustness contract (docs/SERVING.md), tested
/// in-process against the Server core: strict protocol validation (a
/// malformed line is one structured error reply, never a crash, and the
/// next request is untouched), bounded admission with load-shedding,
/// drain semantics, per-request fault injection that never poisons the
/// cache, epoch reloads, and the JSON / fault-plan / LRU building blocks.
///
//===----------------------------------------------------------------------===//

#include "serve/Canon.h"
#include "serve/Epoch.h"
#include "serve/Protocol.h"
#include "serve/Server.h"
#include "context/PolicyRegistry.h"
#include "ir/Program.h"
#include "pta/Metrics.h"
#include "pta/Solver.h"
#include "support/FaultPlan.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <vector>

namespace {

using namespace pt;
using namespace pt::serve;

//===----------------------------------------------------------------------===//
// support/Json.h
//===----------------------------------------------------------------------===//

json::Value parseOk(const std::string &Text) {
  json::Value V;
  std::string Error;
  EXPECT_TRUE(json::parse(Text, V, Error)) << Error;
  return V;
}

TEST(Json, ParsesScalarsAndNesting) {
  json::Value V = parseOk(
      R"({"a": 1, "b": -2.5, "c": "x\n\"y\"", "d": [true, false, null],)"
      R"( "e": {"nested": [1, 2]}})");
  ASSERT_TRUE(V.isObject());
  uint64_t U = 0;
  ASSERT_TRUE(V.find("a") && V.find("a")->asU64(U));
  EXPECT_EQ(U, 1u);
  EXPECT_DOUBLE_EQ(V.find("b")->Num, -2.5);
  EXPECT_EQ(V.find("c")->Str, "x\n\"y\"");
  ASSERT_TRUE(V.find("d")->isArray());
  EXPECT_EQ(V.find("d")->Arr.size(), 3u);
  EXPECT_TRUE(V.find("e")->find("nested")->isArray());
}

TEST(Json, DuplicateKeyLastWins) {
  json::Value V = parseOk(R"({"k": 1, "k": 2})");
  uint64_t U = 0;
  ASSERT_TRUE(V.find("k")->asU64(U));
  EXPECT_EQ(U, 2u);
}

TEST(Json, RejectsMalformedInput) {
  json::Value V;
  std::string Error;
  for (const char *Bad :
       {"", "{", "tru", "{\"a\":}", "[1,]", "{\"a\":1} trailing",
        "\"unterminated", "{\"a\" 1}", "nan", "1e999"}) {
    EXPECT_FALSE(json::parse(Bad, V, Error)) << "accepted: " << Bad;
    EXPECT_FALSE(Error.empty());
  }
}

TEST(Json, EnforcesLimits) {
  json::Value V;
  std::string Error;
  json::ParseLimits Limits;
  Limits.MaxDepth = 3;
  EXPECT_TRUE(json::parse("[[1]]", V, Error, Limits));
  EXPECT_FALSE(json::parse("[[[[1]]]]", V, Error, Limits));
  Limits = {};
  Limits.MaxBytes = 8;
  EXPECT_FALSE(json::parse(R"({"aaaaaaaa": 1})", V, Error, Limits));
  Limits = {};
  Limits.MaxStringBytes = 4;
  EXPECT_FALSE(json::parse(R"("aaaaaaaa")", V, Error, Limits));
  Limits = {};
  Limits.MaxValues = 4;
  EXPECT_FALSE(json::parse("[1,2,3,4,5,6]", V, Error, Limits));
}

TEST(Json, AsU64RejectsNonIntegers) {
  json::Value V = parseOk(R"({"neg": -1, "frac": 1.5, "big": 1e300})");
  uint64_t U = 0;
  EXPECT_FALSE(V.find("neg")->asU64(U));
  EXPECT_FALSE(V.find("frac")->asU64(U));
  EXPECT_FALSE(V.find("big")->asU64(U));
}

TEST(Json, EscapeRoundTrips) {
  const std::string Nasty = "a\"b\\c\nd\te\x01f";
  json::Value V = parseOk("\"" + json::escape(Nasty) + "\"");
  ASSERT_TRUE(V.isString());
  EXPECT_EQ(V.Str, Nasty);
}

//===----------------------------------------------------------------------===//
// serve/Protocol.h
//===----------------------------------------------------------------------===//

TEST(Protocol, ParsesWorkRequest) {
  Request Req;
  ErrorCode Code = ErrorCode::None;
  std::string Error;
  ASSERT_TRUE(parseRequest(
      R"({"id": 7, "kind": "points-to", "policy": "1call",)"
      R"( "var": "A::m/0::x", "deadline_ms": 250, "ignored": 1})",
      Req, Code, Error))
      << Error;
  EXPECT_EQ(Req.Id, 7u);
  EXPECT_EQ(Req.Kind, RequestKind::PointsTo);
  EXPECT_EQ(Req.Policy, "1call");
  EXPECT_EQ(Req.Var, "A::m/0::x");
  EXPECT_EQ(Req.DeadlineMs, 250u);
}

TEST(Protocol, MalformedLinesGetStructuredCodes) {
  struct Case {
    const char *Line;
    ErrorCode Want;
  } Cases[] = {
      {"not json at all", ErrorCode::BadRequest},
      {R"([1, 2, 3])", ErrorCode::BadRequest},
      {R"({"kind": "health"})", ErrorCode::BadRequest}, // no id
      {R"({"id": "seven", "kind": "health"})", ErrorCode::BadRequest},
      {R"({"id": 1})", ErrorCode::BadRequest}, // no kind
      {R"({"id": 1, "kind": "frobnicate"})", ErrorCode::UnknownKind},
      {R"({"id": 1, "kind": "points-to"})", ErrorCode::BadRequest}, // no var
      {R"({"id": 1, "kind": "compare"})", ErrorCode::BadRequest},
      {R"({"id": 1, "kind": "lint", "checks": "notarray"})",
       ErrorCode::BadRequest},
      {R"({"id": 1, "kind": "lint", "policy": 9})", ErrorCode::BadRequest},
  };
  for (const Case &C : Cases) {
    Request Req;
    ErrorCode Code = ErrorCode::None;
    std::string Error;
    EXPECT_FALSE(parseRequest(C.Line, Req, Code, Error)) << C.Line;
    EXPECT_EQ(Code, C.Want) << C.Line;
    EXPECT_FALSE(Error.empty()) << C.Line;
  }
}

TEST(Protocol, PreservesIdOnFailureWhenParseable) {
  Request Req;
  ErrorCode Code = ErrorCode::None;
  std::string Error;
  EXPECT_FALSE(
      parseRequest(R"({"id": 42, "kind": "frobnicate"})", Req, Code, Error));
  EXPECT_EQ(Req.Id, 42u) << "error replies must echo the request id";
}

TEST(Protocol, EnforcesLineAndChecksLimits) {
  Request Req;
  ErrorCode Code = ErrorCode::None;
  std::string Error;
  ProtocolLimits Limits;
  Limits.MaxLineBytes = 64;
  std::string Long = R"({"id": 1, "kind": "lint", "policy": ")" +
                     std::string(100, 'x') + "\"}";
  EXPECT_FALSE(parseRequest(Long, Req, Code, Error, Limits));
  EXPECT_EQ(Code, ErrorCode::BadRequest);

  Limits = {};
  Limits.MaxChecks = 2;
  EXPECT_FALSE(parseRequest(
      R"({"id": 1, "kind": "lint", "checks": ["a", "b", "c"]})", Req, Code,
      Error, Limits));
  EXPECT_EQ(Code, ErrorCode::BadRequest);
}

//===----------------------------------------------------------------------===//
// support/FaultPlan.h — duplicate rejection and the request schedule
//===----------------------------------------------------------------------===//

TEST(FaultPlanDup, DuplicateDirectiveRejectedWithPinnedMessage) {
  FaultPlan Plan;
  std::string Error;
  EXPECT_FALSE(FaultPlan::parse("oom-at-step=5,oom-at-step=9", Plan, Error));
  EXPECT_EQ(Error, "duplicate fault directive 'oom-at-step': each directive "
                   "may appear at most once per plan");
  EXPECT_FALSE(
      FaultPlan::parse("slow-rule=vcall,slow-rule=load", Plan, Error));
  EXPECT_EQ(Error, "duplicate fault directive 'slow-rule': each directive "
                   "may appear at most once per plan");
  // Distinct directives still compose.
  EXPECT_TRUE(
      FaultPlan::parse("oom-at-step=5,cancel-at-step=9", Plan, Error));
}

TEST(RequestFaultPlan, ParsesAndSchedules) {
  RequestFaultPlan Plan;
  std::string Error;
  ASSERT_TRUE(RequestFaultPlan::parse(
      "9=slow-rule=vcall;5=oom-at-step=100;12=cancel-at-step=1", Plan,
      Error))
      << Error;
  ASSERT_EQ(Plan.Entries.size(), 3u);
  EXPECT_EQ(Plan.Entries[0].Request, 5u) << "entries sorted by ordinal";
  ASSERT_NE(Plan.planForRequest(5), nullptr);
  EXPECT_EQ(Plan.planForRequest(5)->OomAtStep, 100u);
  ASSERT_NE(Plan.planForRequest(12), nullptr);
  EXPECT_EQ(Plan.planForRequest(12)->CancelAtStep, 1u);
  EXPECT_EQ(Plan.planForRequest(6), nullptr);
  EXPECT_EQ(Plan.planForRequest(0), nullptr);
  // Round-trip through spec().
  RequestFaultPlan Again;
  ASSERT_TRUE(RequestFaultPlan::parse(Plan.spec(), Again, Error));
  EXPECT_EQ(Again.spec(), Plan.spec());
}

TEST(RequestFaultPlan, RejectsBadEntries) {
  RequestFaultPlan Plan;
  std::string Error;
  EXPECT_FALSE(RequestFaultPlan::parse("nonsense", Plan, Error));
  EXPECT_FALSE(RequestFaultPlan::parse("0=oom-at-step=1", Plan, Error));
  EXPECT_FALSE(RequestFaultPlan::parse("5=", Plan, Error));
  EXPECT_FALSE(RequestFaultPlan::parse("5=bogus-directive", Plan, Error));
  EXPECT_FALSE(RequestFaultPlan::parse(
      "5=oom-at-step=1;5=cancel-at-step=1", Plan, Error));
  EXPECT_NE(Error.find("duplicate request-fault entry"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// serve/Epoch.h — the LRU result cache
//===----------------------------------------------------------------------===//

std::shared_ptr<const CacheEntry> entryTagged(const std::string &Tag) {
  auto E = std::make_shared<CacheEntry>();
  E->LandedPolicy = Tag;
  return E;
}

TEST(ResultCacheLru, EvictsLeastRecentlyUsed) {
  ResultCache Cache(2);
  Cache.put("a", entryTagged("a"));
  Cache.put("b", entryTagged("b"));
  ASSERT_NE(Cache.get("a"), nullptr); // bump "a" to MRU
  Cache.put("c", entryTagged("c"));   // evicts "b"
  EXPECT_EQ(Cache.get("b"), nullptr);
  ASSERT_NE(Cache.get("a"), nullptr);
  ASSERT_NE(Cache.get("c"), nullptr);
  ResultCache::Stats S = Cache.stats();
  EXPECT_EQ(S.Evictions, 1u);
  EXPECT_EQ(S.Entries, 2u);
}

TEST(ResultCacheLru, ClearDropsEverythingButReadersKeepTheirs) {
  ResultCache Cache(4);
  Cache.put("k", entryTagged("k"));
  std::shared_ptr<const CacheEntry> Held = Cache.get("k");
  Cache.clear();
  EXPECT_EQ(Cache.get("k"), nullptr);
  ASSERT_NE(Held, nullptr) << "in-flight readers keep their entry";
  EXPECT_EQ(Held->LandedPolicy, "k");
}

//===----------------------------------------------------------------------===//
// Server end-to-end (in-process)
//===----------------------------------------------------------------------===//

/// Collects replies from the worker pool and lets tests await them.
struct ReplyBox {
  std::mutex Mu;
  std::condition_variable Cv;
  std::vector<std::string> Replies;

  Server::ReplyFn fn() {
    return [this](const std::string &L) {
      {
        std::lock_guard<std::mutex> Lock(Mu);
        Replies.push_back(L);
      }
      Cv.notify_all();
    };
  }

  /// Blocks until \p N replies arrived (30s watchdog), returns them.
  std::vector<std::string> waitFor(size_t N) {
    std::unique_lock<std::mutex> Lock(Mu);
    Cv.wait_for(Lock, std::chrono::seconds(30),
                [&] { return Replies.size() >= N; });
    return Replies;
  }
};

json::Value reply(const std::string &Line) {
  json::Value V;
  std::string Error;
  json::ParseLimits Limits;
  Limits.MaxBytes = 16u << 20;
  Limits.MaxValues = 1u << 20;
  EXPECT_TRUE(json::parse(Line, V, Error, Limits)) << Error << ": " << Line;
  return V;
}

bool replyOk(const json::Value &V) {
  const json::Value *Ok = V.find("ok");
  return Ok && Ok->isBool() && Ok->B;
}

std::string replyCode(const json::Value &V) {
  const json::Value *Code = V.find("code");
  return Code && Code->isString() ? Code->Str : "";
}

std::vector<std::string> replyLines(const json::Value &V) {
  std::vector<std::string> Out;
  if (const json::Value *Lines = V.find("lines"))
    if (Lines->isArray())
      for (const json::Value &L : Lines->Arr)
        if (L.isString())
          Out.push_back(L.Str);
  return Out;
}

ServerOptions smallServer() {
  ServerOptions Opts;
  Opts.ProgramSpec = "luindex";
  Opts.Analysis.Policy = "2obj+H";
  Opts.Workers = 2;
  return Opts;
}

TEST(ServerE2E, HealthReportsEpochAndCounters) {
  Server S(smallServer());
  std::string Error;
  ASSERT_TRUE(S.start(Error)) << Error;
  ReplyBox Box;
  EXPECT_TRUE(S.handleLine(R"({"id": 1, "kind": "health"})", Box.fn()));
  json::Value V = reply(Box.waitFor(1)[0]);
  EXPECT_TRUE(replyOk(V));
  uint64_t Epoch = 0;
  ASSERT_TRUE(V.find("epoch")->asU64(Epoch));
  EXPECT_EQ(Epoch, 1u);
  EXPECT_EQ(V.find("program")->Str, "luindex");
}

TEST(ServerE2E, CallGraphMatchesBatchRenderer) {
  Server S(smallServer());
  std::string Error;
  ASSERT_TRUE(S.start(Error)) << Error;
  ReplyBox Box;
  EXPECT_TRUE(
      S.handleLine(R"({"id": 2, "kind": "callgraph"})", Box.fn()));
  json::Value V = reply(Box.waitFor(1)[0]);
  ASSERT_TRUE(replyOk(V));

  // Recompute through the exact renderer the batch CLI uses.
  std::shared_ptr<const Epoch> Ep = loadEpoch(1, "luindex", Error);
  ASSERT_NE(Ep, nullptr);
  auto Pol = createPolicy("2obj+H", *Ep->Prog);
  SolverOptions SOpts;
  AnalysisResult R = solveProgram(*Ep->Prog, *Pol, SOpts);
  EXPECT_EQ(replyLines(V),
            callGraphLines(computeMetrics(R), "2obj+H"));
}

TEST(ServerE2E, MalformedCorpusThenCleanAnswer) {
  Server S(smallServer());
  std::string Error;
  ASSERT_TRUE(S.start(Error)) << Error;
  ReplyBox Box;
  const char *Corpus[] = {
      "garbage",
      "{\"id\": 1, \"kind\": \"health\"",            // truncated JSON
      R"({"id": 3, "kind": "frobnicate"})",          // unknown kind
      R"({"id": 4, "kind": "points-to"})",           // missing var
      R"([])",                                       // non-object
      R"({"id": 5, "kind": "lint", "checks": 1})",   // wrong type
  };
  size_t N = 0;
  for (const char *Line : Corpus) {
    EXPECT_TRUE(S.handleLine(Line, Box.fn()));
    ++N;
  }
  std::vector<std::string> Replies = Box.waitFor(N);
  ASSERT_EQ(Replies.size(), N);
  for (const std::string &Line : Replies) {
    json::Value V = reply(Line);
    EXPECT_FALSE(replyOk(V)) << Line;
    EXPECT_FALSE(replyCode(V).empty()) << Line;
  }
  // The daemon is unharmed: the next request answers, bit-identical.
  EXPECT_TRUE(
      S.handleLine(R"({"id": 9, "kind": "callgraph"})", Box.fn()));
  json::Value V = reply(Box.waitFor(N + 1).back());
  EXPECT_TRUE(replyOk(V));
  EXPECT_EQ(replyLines(V).size(), 2u);
}

TEST(ServerE2E, UnknownPolicyAndVarGetStructuredCodes) {
  Server S(smallServer());
  std::string Error;
  ASSERT_TRUE(S.start(Error)) << Error;
  ReplyBox Box;
  EXPECT_TRUE(S.handleLine(
      R"({"id": 1, "kind": "callgraph", "policy": "999obj"})", Box.fn()));
  EXPECT_TRUE(S.handleLine(
      R"({"id": 2, "kind": "points-to", "var": "No::such/0::v"})",
      Box.fn()));
  std::vector<std::string> Replies = Box.waitFor(2);
  ASSERT_EQ(Replies.size(), 2u);
  for (const std::string &Line : Replies) {
    json::Value V = reply(Line);
    EXPECT_FALSE(replyOk(V));
    uint64_t Id = 0;
    ASSERT_TRUE(V.find("id")->asU64(Id));
    EXPECT_EQ(replyCode(V), Id == 1 ? "unknown-policy" : "unknown-var");
  }
}

TEST(ServerE2E, ZeroQueueShedsWithRetryAfter) {
  ServerOptions Opts = smallServer();
  Opts.QueueLimit = 0; // always full: the pure shed path, deterministically
  Opts.RetryAfterMs = 77;
  Server S(std::move(Opts));
  std::string Error;
  ASSERT_TRUE(S.start(Error)) << Error;
  ReplyBox Box;
  EXPECT_TRUE(
      S.handleLine(R"({"id": 1, "kind": "callgraph"})", Box.fn()));
  json::Value V = reply(Box.waitFor(1)[0]);
  EXPECT_FALSE(replyOk(V));
  EXPECT_EQ(replyCode(V), "overloaded");
  uint64_t Retry = 0;
  ASSERT_NE(V.find("retry_after_ms"), nullptr);
  ASSERT_TRUE(V.find("retry_after_ms")->asU64(Retry));
  EXPECT_EQ(Retry, 77u);
  EXPECT_EQ(S.stats().Shed, 1u);
  // Health still answers while work sheds.
  EXPECT_TRUE(S.handleLine(R"({"id": 2, "kind": "health"})", Box.fn()));
  EXPECT_TRUE(replyOk(reply(Box.waitFor(2)[1])));
}

TEST(ServerE2E, DrainStopsAdmissionButAnswersInFlight) {
  Server S(smallServer());
  std::string Error;
  ASSERT_TRUE(S.start(Error)) << Error;
  ReplyBox Box;
  EXPECT_TRUE(
      S.handleLine(R"({"id": 1, "kind": "callgraph"})", Box.fn()));
  EXPECT_FALSE(S.handleLine(R"({"id": 2, "kind": "drain"})", Box.fn()))
      << "a drain request tells the transport to stop reading";
  EXPECT_TRUE(S.draining());
  EXPECT_TRUE(
      S.handleLine(R"({"id": 3, "kind": "callgraph"})", Box.fn()));
  S.drain(); // must complete: the admitted request finishes
  std::vector<std::string> Replies = Box.waitFor(3);
  ASSERT_EQ(Replies.size(), 3u);
  bool SawWork = false, SawRejected = false;
  for (const std::string &Line : Replies) {
    json::Value V = reply(Line);
    uint64_t Id = 0;
    ASSERT_TRUE(V.find("id")->asU64(Id));
    if (Id == 1) {
      EXPECT_TRUE(replyOk(V)) << "admitted work completes during drain";
      SawWork = true;
    } else if (Id == 3) {
      EXPECT_EQ(replyCode(V), "draining");
      SawRejected = true;
    }
  }
  EXPECT_TRUE(SawWork);
  EXPECT_TRUE(SawRejected);
}

TEST(ServerE2E, FaultedRequestErrorsCleanRequestUnpoisoned) {
  ServerOptions Opts = smallServer();
  std::string PlanError;
  // Work ordinal 1 is cancelled at its first solver step; ordinals 2+ run
  // clean and must see neither the fault nor a poisoned cache.
  ASSERT_TRUE(RequestFaultPlan::parse("1=cancel-at-step=1", Opts.Faults,
                                      PlanError))
      << PlanError;
  Opts.Workers = 1; // serialize: ordinal 1 completes before ordinal 2
  Server S(std::move(Opts));
  std::string Error;
  ASSERT_TRUE(S.start(Error)) << Error;
  ReplyBox Box;
  EXPECT_TRUE(
      S.handleLine(R"({"id": 1, "kind": "callgraph"})", Box.fn()));
  EXPECT_TRUE(
      S.handleLine(R"({"id": 2, "kind": "callgraph"})", Box.fn()));
  EXPECT_TRUE(
      S.handleLine(R"({"id": 3, "kind": "callgraph"})", Box.fn()));
  std::vector<std::string> Replies = Box.waitFor(3);
  ASSERT_EQ(Replies.size(), 3u);
  for (const std::string &Line : Replies) {
    json::Value V = reply(Line);
    uint64_t Id = 0;
    ASSERT_TRUE(V.find("id")->asU64(Id));
    if (Id == 1) {
      EXPECT_FALSE(replyOk(V));
      EXPECT_EQ(replyCode(V), "cancelled");
      EXPECT_NE(V.find("faulted"), nullptr);
    } else {
      EXPECT_TRUE(replyOk(V)) << "clean neighbor of a faulted request";
      EXPECT_EQ(replyLines(V).size(), 2u);
      if (Id == 3) {
        const json::Value *Hit = V.find("cache_hit");
        ASSERT_NE(Hit, nullptr);
        EXPECT_TRUE(Hit->B) << "clean result published once, then cached";
      }
    }
  }
  EXPECT_EQ(S.stats().Faulted, 1u);
  EXPECT_EQ(S.stats().Errors, 1u);
}

TEST(ServerE2E, BudgetFaultLandsLadderRungAndSaysSo) {
  // Pick an oom step between the terminal rung's step count and the
  // native policy's, so the native solve aborts but the ladder lands: a
  // genuinely degraded answer.  Skip when the program offers no window.
  std::string Error;
  std::shared_ptr<const Epoch> Ep = loadEpoch(1, "luindex", Error);
  ASSERT_NE(Ep, nullptr) << Error;
  SolverOptions Probe;
  auto Native = createPolicy("2obj+H", *Ep->Prog);
  auto Insens = createPolicy("insens", *Ep->Prog);
  uint64_t NativeSteps =
      solveProgram(*Ep->Prog, *Native, Probe).Counters.WorklistSteps;
  uint64_t InsensSteps =
      solveProgram(*Ep->Prog, *Insens, Probe).Counters.WorklistSteps;
  uint64_t Cushion = InsensSteps + InsensSteps / 2;
  if (NativeSteps == 0 || Cushion == 0 || NativeSteps <= Cushion)
    GTEST_SKIP() << "no oom window (telemetry off or degenerate program)";

  ServerOptions Opts = smallServer();
  std::string PlanError;
  ASSERT_TRUE(RequestFaultPlan::parse(
      "1=oom-at-step=" + std::to_string(Cushion), Opts.Faults, PlanError))
      << PlanError;
  Server S(std::move(Opts));
  ASSERT_TRUE(S.start(Error)) << Error;
  ReplyBox Box;
  EXPECT_TRUE(
      S.handleLine(R"({"id": 1, "kind": "callgraph"})", Box.fn()));
  json::Value V = reply(Box.waitFor(1)[0]);
  ASSERT_TRUE(replyOk(V)) << "budget fault must land a rung, not fail";
  const json::Value *Deg = V.find("degraded");
  ASSERT_NE(Deg, nullptr) << "the reply must say it degraded";
  ASSERT_TRUE(Deg->isObject());
  EXPECT_EQ(Deg->find("from")->Str, "2obj+H");
  EXPECT_FALSE(Deg->find("landed")->Str.empty());
  EXPECT_EQ(S.stats().Degraded, 1u);

  // The degraded answer was NOT cached: a clean follow-up recomputes
  // natively and answers without a degraded marker.
  EXPECT_TRUE(
      S.handleLine(R"({"id": 2, "kind": "callgraph"})", Box.fn()));
  json::Value V2 = reply(Box.waitFor(2)[1]);
  ASSERT_TRUE(replyOk(V2));
  EXPECT_EQ(V2.find("degraded"), nullptr)
      << "degraded results must never satisfy a clean request";
  EXPECT_FALSE(V2.find("cache_hit")->B);
}

TEST(ServerE2E, ReloadSwapsEpochAndFailedReloadLeavesItAlone) {
  Server S(smallServer());
  std::string Error;
  ASSERT_TRUE(S.start(Error)) << Error;
  ReplyBox Box;
  // Reload the same spec: new epoch id, cache cleared.
  EXPECT_TRUE(S.handleLine(R"({"id": 1, "kind": "reload"})", Box.fn()));
  json::Value V = reply(Box.waitFor(1)[0]);
  ASSERT_TRUE(replyOk(V));
  uint64_t Epoch = 0;
  ASSERT_TRUE(V.find("epoch")->asU64(Epoch));
  EXPECT_EQ(Epoch, 2u);
  EXPECT_EQ(S.epochId(), 2u);
  // A reload that fails to load must leave the current epoch untouched.
  EXPECT_TRUE(S.handleLine(
      R"({"id": 2, "kind": "reload", "program": "/no/such/file.ptir"})",
      Box.fn()));
  json::Value V2 = reply(Box.waitFor(2)[1]);
  EXPECT_FALSE(replyOk(V2));
  EXPECT_EQ(replyCode(V2), "bad-program");
  EXPECT_EQ(S.epochId(), 2u);
  // Work against the new epoch answers normally.
  EXPECT_TRUE(
      S.handleLine(R"({"id": 3, "kind": "callgraph"})", Box.fn()));
  json::Value V3 = reply(Box.waitFor(3)[2]);
  EXPECT_TRUE(replyOk(V3));
  ASSERT_TRUE(V3.find("epoch")->asU64(Epoch));
  EXPECT_EQ(Epoch, 2u);
}

TEST(ServerE2E, PerRequestDeadlineCancelsLongSolve) {
  ServerOptions Opts = smallServer();
  std::string PlanError;
  // slow-rule stalls every vcall fire ~50us, making the solve long enough
  // for a 1ms deadline to trip it deterministically.
  ASSERT_TRUE(RequestFaultPlan::parse("1=slow-rule=vcall", Opts.Faults,
                                      PlanError))
      << PlanError;
  Server S(std::move(Opts));
  std::string Error;
  ASSERT_TRUE(S.start(Error)) << Error;
  ReplyBox Box;
  EXPECT_TRUE(S.handleLine(
      R"({"id": 1, "kind": "callgraph", "deadline_ms": 1})", Box.fn()));
  json::Value V = reply(Box.waitFor(1)[0]);
  EXPECT_FALSE(replyOk(V));
  EXPECT_EQ(replyCode(V), "cancelled")
      << "a blown deadline is a structured cancellation, not a ladder";
}

} // namespace