//===- pta/summary/SummarySolver.cpp ---------------------------------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
//
// The compositional SCC engine.  One Partition per call-graph SCC, each a
// mini difference-propagation solver structurally identical to pta/Solver
// over the nodes it owns:
//
//   (var, ctx)      -> partition of the variable's defining method
//   throw (m, ctx)  -> partition of m
//   field (obj, f)  -> partition of the method containing obj's alloc site
//   static f        -> f mod #partitions (static slots are global anyway)
//
// Facts and edges whose endpoints live in different partitions travel as
// messages.  A cross-partition *edge target* is represented by a local
// "portal" node interned under the exact remote key: edges into it use the
// ordinary exact (from, to) dedup and fact replay, and the portal's delta
// processing forwards each newly arriving object to the owner partition as
// a Fact message (the portal's own set dedups repeat sends).  This keeps
// every dedup structure exact — a hashed wide-key dedup could collide and
// silently drop a constraint, which would be unsound.
//
// All message applications are idempotent and the rule system is monotone,
// so the engine terminates at the same unique least fixpoint as the
// worklist solver under any schedule; termination is detected by the
// partition state machine (Idle/Queued/Running + in-flight task counter):
// a message to an Idle partition schedules a drain, a drain goes Idle only
// after observing an empty inbox under the inbox lock, and when no drains
// are in flight every inbox is empty and every worklist drained.
//
//===----------------------------------------------------------------------===//

#include "pta/summary/SummarySolver.h"

#include "context/CutShortcut.h"
#include "context/Policy.h"
#include "ir/Program.h"
#include "pta/Trace.h"
#include "pta/summary/Condense.h"
#include "support/Hashing.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <unordered_map>
#include <vector>

using namespace pt;
using namespace pt::summary;

const char *pt::solverEngineName(SolverEngine E) {
  return E == SolverEngine::Summary ? "summary" : "worklist";
}

bool pt::parseSolverEngine(std::string_view Name, SolverEngine &Out) {
  if (Name == "worklist") {
    Out = SolverEngine::Worklist;
    return true;
  }
  if (Name == "summary") {
    Out = SolverEngine::Summary;
    return true;
  }
  return false;
}

namespace {

// ---------------------------------------------------------------------------
// Global object interner
// ---------------------------------------------------------------------------

/// (heap, hctx) -> dense object id, shared by all partitions so object ids
/// mean the same thing in every message.  Inserts take a mutex; reads are
/// lock-free over chunked storage whose chunks never move, so a partition
/// can resolve an object it learned from a message without synchronizing —
/// the happens-before edge comes with the message (inbox mutex).
class ObjInterner {
public:
  static constexpr uint32_t ChunkShift = 12;
  static constexpr uint32_t ChunkSize = 1u << ChunkShift;
  static constexpr uint32_t MaxChunks = 1u << 16;

  ObjInterner() : Chunks(new std::atomic<uint64_t *>[MaxChunks]()) {}

  ~ObjInterner() {
    for (uint32_t I = 0; I < MaxChunks; ++I)
      delete[] Chunks[I].load(std::memory_order_relaxed);
  }

  /// Interns (\p Heap, \p HCtx); \p Fresh reports a first sighting.
  uint32_t intern(HeapId Heap, HCtxId HCtx, bool &Fresh) {
    std::lock_guard<std::mutex> Lock(Mu);
    uint32_t Obj = NextId;
    auto [Slot, Inserted] =
        Index.tryEmplace(packPair(Heap.index(), HCtx.index()), Obj);
    Fresh = Inserted;
    if (!Inserted)
      return *Slot;
    uint32_t Chunk = Obj >> ChunkShift;
    assert(Chunk < MaxChunks && "object id space overflow");
    uint64_t *Block = Chunks[Chunk].load(std::memory_order_relaxed);
    if (!Block) {
      Block = new uint64_t[ChunkSize];
      Chunks[Chunk].store(Block, std::memory_order_release);
    }
    Block[Obj & (ChunkSize - 1)] = packPair(Heap.index(), HCtx.index());
    ++NextId;
    Count.store(NextId, std::memory_order_release);
    return Obj;
  }

  HeapId heapOf(uint32_t Obj) const { return HeapId(unpackHi(slot(Obj))); }
  HCtxId hctxOf(uint32_t Obj) const { return HCtxId(unpackLo(slot(Obj))); }

  uint32_t size() const { return Count.load(std::memory_order_acquire); }

  /// Exports the id -> (heap, hctx) tables; call only after the sweep.
  void exportTables(std::vector<HeapId> &Heaps,
                    std::vector<HCtxId> &HCtxs) const {
    uint32_t N = size();
    Heaps.reserve(N);
    HCtxs.reserve(N);
    for (uint32_t Obj = 0; Obj < N; ++Obj) {
      uint64_t S = slot(Obj);
      Heaps.push_back(HeapId(unpackHi(S)));
      HCtxs.push_back(HCtxId(unpackLo(S)));
    }
  }

  size_t memoryBytes() const {
    std::lock_guard<std::mutex> Lock(Mu);
    size_t Chunked = 0;
    for (uint32_t I = 0; I < MaxChunks; ++I)
      if (Chunks[I].load(std::memory_order_relaxed))
        Chunked += ChunkSize * sizeof(uint64_t);
    return Chunked + Index.memoryBytes();
  }

private:
  uint64_t slot(uint32_t Obj) const {
    return Chunks[Obj >> ChunkShift].load(std::memory_order_acquire)
        [Obj & (ChunkSize - 1)];
  }

  std::unique_ptr<std::atomic<uint64_t *>[]> Chunks;
  mutable std::mutex Mu;
  FlatMap<uint32_t> Index;
  uint32_t NextId = 0;
  std::atomic<uint32_t> Count{0};
};

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

/// Node-key kinds as they appear in messages (always a real node kind of
/// the owner partition, never a portal).
enum class NK : uint8_t { VarCtx, FieldSlot, StaticSlot, ThrowSlot };

enum class MsgKind : uint8_t {
  Reach,      ///< ensureReachable(A = method, B = ctx).
  Fact,       ///< addFact(node(NKey, A, B), Obj).
  Edge,       ///< addEdge(node(NKey, A, B) -> ref (RefPart, RefKey, RefA,
              ///  RefB)); the source key is local to the receiver.
  ThrowLink,  ///< link throw slot (A = callee m, B = callee ctx) to caller
              ///  frame (RefPart, RefA = caller m, RefB = caller ctx).
  RouteThrow, ///< routeThrow(Obj, A = method, B = ctx).
};

/// Sentinel for Msg::WhyRule: the receiver must not record a derivation
/// step (either provenance is off, or the step was already recorded on the
/// sender side — portal-forwarded facts record at portal-insert time, since
/// the portal's descriptor is the remote fact key).
constexpr uint8_t WhyNone = 0xFF;

struct Msg {
  MsgKind Kind;
  NK NKey = NK::VarCtx;
  NK RefKey = NK::VarCtx;
  uint32_t A = 0;
  uint32_t B = 0;
  uint32_t Obj = 0;
  uint32_t RefPart = 0;
  uint32_t RefA = 0;
  uint32_t RefB = 0;
  // Provenance payload: fact ids are global (the recorder is shared), so
  // they travel across partitions unchanged.  Reach carries (rule, prem);
  // Fact carries the full step; Edge carries the justification the
  // receiver stores in its EdgeWhy map; RouteThrow/ThrowLink carry the
  // throw-fact premise and the call-edge aux.
  uint8_t WhyRule = WhyNone;
  uint32_t WhyPrem = prov::InvalidFact;
  uint32_t WhyAux = prov::InvalidFact;
};

// ---------------------------------------------------------------------------
// Partition solver
// ---------------------------------------------------------------------------

/// Local node kinds: the four solver kinds plus portal stand-ins for
/// remote edge targets (one per remote key shape).
enum class PK : uint8_t {
  VarCtx,
  FieldSlot,
  StaticSlot,
  ThrowSlot,
  PortalVar,
  PortalField,
  PortalStatic,
};

inline bool isPortal(PK K) { return K >= PK::PortalVar; }

/// Exact key for the per-partition MERGE cache.  merge() takes four ids —
/// too wide for a packed FlatMap key, and a *hashed* key could collide and
/// return the wrong context, so this map compares the full tuple.
struct MergeKey {
  uint32_t W[4];
  bool operator==(const MergeKey &O) const {
    return W[0] == O.W[0] && W[1] == O.W[1] && W[2] == O.W[2] &&
           W[3] == O.W[3];
  }
};
struct MergeKeyHash {
  size_t operator()(const MergeKey &K) const {
    return static_cast<size_t>(hashWords(K.W, 4));
  }
};

enum class PState : uint8_t { Idle, Queued, Running };

class Engine;

class Partition {
public:
  Partition(Engine &E, uint32_t Id);

  void apply(const Msg &M);
  void drainWorklist();
  void ensureReachable(MethodId M, CtxId Ctx,
                       prov::Rule Why = prov::Rule::Entry,
                       uint32_t WhyPrem = prov::InvalidFact);

  /// Bytes held by this partition's persistent containers.
  size_t memoryBytes() const;

  /// Copies the telemetry counters into the atomic snapshot array so the
  /// heartbeat thread can read them without a data race.
  void publishCounters() {
    size_t I = 0;
#define PT_PUB(Field, Name)                                                    \
  CounterSnap[I++].store(Counters.Field, std::memory_order_relaxed);
    PT_SOLVER_COUNTERS(PT_PUB)
#undef PT_PUB
    NodesA.store(Nodes.size(), std::memory_order_relaxed);
  }

  Engine &E;
  const uint32_t Id;

  struct CastEdge {
    uint32_t ToNode;
    TypeId Filter;
  };
  struct LoadSub {
    FieldId Fld;
    uint32_t ToNode;
  };
  struct StoreSub {
    FieldId Fld;
    uint32_t FromNode;
  };
  struct DispatchSub {
    InvokeId Invo;
    CtxId CallerCtx;
  };
  /// One exception-escalation link out of a throw slot; \c Part may be a
  /// different partition (fired as a RouteThrow message).  \c WhyAux is
  /// the call-edge fact justifying the link (provenance only).
  struct TLink {
    uint32_t Part;
    uint32_t M;
    uint32_t Ctx;
    uint32_t WhyAux = prov::InvalidFact;
  };

  struct Node {
    ObjectSet Set;
    uint32_t Scanned = 0;
    std::vector<uint32_t> Edges;
    std::vector<CastEdge> CastEdges;
    std::vector<LoadSub> Loads;
    std::vector<StoreSub> Stores;
    std::vector<DispatchSub> Dispatches;
    std::vector<uint64_t> ThrowSubs; ///< Packed (method, ctx) frames.
    std::vector<TLink> ThrowLinks;
    bool Queued = false;
  };
  struct Desc {
    PK Kind;
    uint32_t A;
    uint32_t B;
  };

  std::vector<Node> Nodes;
  std::vector<Desc> Descs;
  /// Owner partition of each portal node (0 for real nodes).
  std::vector<uint32_t> DestPart;

  FlatMap<uint32_t> VarCtxIndex;
  FlatMap<uint32_t> FieldSlotIndex;
  FlatMap<uint32_t> StaticSlotIndex;
  FlatMap<uint32_t> ThrowSlotIndex;
  FlatMap<uint32_t> PortalVarIndex;
  FlatMap<uint32_t> PortalFieldIndex;
  FlatMap<uint32_t> PortalStaticIndex;
  FlatSet EdgeDedup;

  /// Provenance: object-independent justification per (from, to) edge,
  /// value = (aux fact id << 8) | rule, first wins; cast edges keep only
  /// the aux fact (see noteCastEdgeWhy).  Empty when provenance is off.
  FlatMap<uint64_t> EdgeWhy;
  FlatMap<uint32_t> CastEdgeWhy;

  FlatSet ReachableSet;
  std::vector<std::pair<MethodId, CtxId>> ReachableList;
  /// (method, ctx) summary requests already forwarded to other owners —
  /// keeps repeated dispatches from flooding the owner with Reach msgs.
  FlatSet SentReach;

  FlatMap<uint32_t> CallEdgeHead;
  std::vector<uint32_t> CallEdgeNext;
  std::vector<CallGraphEdge> CallEdges;

  std::deque<uint32_t> Worklist;

  // Policy caches: the policy object is shared (and stateful), so calls
  // take the engine's policy mutex; these make repeats lock-free.
  FlatMap<uint32_t> RecordCache;      ///< packPair(heap, ctx) -> hctx.
  FlatMap<uint32_t> MergeStaticCache; ///< packPair(invo, ctx) -> ctx.
  std::unordered_map<MergeKey, uint32_t, MergeKeyHash> MergeCache;
  FlatMap<uint32_t> ObjCache; ///< packPair(heap, hctx) -> global obj id.

  std::mutex InboxMu;
  std::vector<Msg> Inbox;
  PState State = PState::Idle;

  telemetry::SolverCounters Counters;
  uint32_t BudgetTick = 0;
  uint32_t MemPollTick = 0;
  uint64_t Activations = 0;

  // Published for the heartbeat thread (plain members are owned by the
  // single thread currently draining this partition).
  std::atomic<uint64_t> MemBytesA{0};
  std::atomic<uint64_t> BusyUs{0};
  std::atomic<uint64_t> NodesA{0};
  std::unique_ptr<std::atomic<uint64_t>[]> CounterSnap;

private:
  bool aborted() const;
  bool checkBudget() {
    if (!aborted() && (++BudgetTick & 0x3ff) == 0)
      pollGuards();
    return aborted();
  }
  void pollGuards();
  void slowRule(FaultRule Rule);

  uint32_t newNode(Desc D) {
    uint32_t Idx = static_cast<uint32_t>(Nodes.size());
    Nodes.emplace_back();
    Descs.push_back(D);
    DestPart.push_back(0);
    return Idx;
  }
  uint32_t varNode(VarId V, CtxId Ctx);
  uint32_t fieldNode(uint32_t Obj, FieldId Fld);
  uint32_t staticNode(FieldId Fld);
  uint32_t throwNode(MethodId M, CtxId Ctx);
  uint32_t portalNode(NK Key, uint32_t A, uint32_t B, uint32_t Owner);
  uint32_t internNode(NK Key, uint32_t A, uint32_t B);

  uint32_t internObject(HeapId Heap, HCtxId HCtx);

  /// Returns true on a fresh insert (callers record provenance then).
  bool addFact(uint32_t NodeIdx, uint32_t Obj);
  void addEdge(uint32_t From, uint32_t To);
  void addCastEdge(uint32_t From, uint32_t To, TypeId Filter);
  void addThrowLink(uint32_t ThrowNodeIdx, uint32_t CallerPart,
                    uint32_t CallerM, uint32_t CallerCtx,
                    uint32_t WhyAux = prov::InvalidFact);
  void fireThrowLink(const TLink &L, uint32_t Obj,
                     uint32_t WhyPrem = prov::InvalidFact);
  void routeThrow(uint32_t Obj, MethodId M, CtxId Ctx,
                  uint32_t WhyPrem = prov::InvalidFact,
                  uint32_t WhyAux = prov::InvalidFact);
  void dispatch(const DispatchSub &Sub, uint32_t Obj);
  void wireCall(InvokeId Invo, CtxId CallerCtx, MethodId Callee,
                CtxId CalleeCtx, prov::Rule CallWhy = prov::Rule::SCall,
                uint32_t CallPrem = prov::InvalidFact);
  bool insertCallEdge(const CallGraphEdge &E);
  void processDelta(uint32_t NodeIdx);

  /// Requests summary (method, ctx) from its owner (locally or by msg).
  void reach(MethodId M, CtxId Ctx, prov::Rule Why = prov::Rule::Entry,
             uint32_t WhyPrem = prov::InvalidFact);
  /// Delivers \p Obj into (\p V, \p Ctx) wherever that variable lives.
  void factToVar(VarId V, CtxId Ctx, uint32_t Obj,
                 prov::Rule Why = prov::Rule::Entry,
                 uint32_t WhyPrem = prov::InvalidFact,
                 uint32_t WhyAux = prov::InvalidFact);
  /// LOAD consequence field(obj, fld) -> ToNode, with a remote source
  /// shipped to the slot's owner as an Edge message.  \p BaseWhy is the
  /// triggering base-variable fact (provenance aux); \p Why is the edge's
  /// justification rule (Load, or ShortcutRetLoad for cut-shortcut edges
  /// whose aux is the call-edge fact).
  void loadEdge(uint32_t Obj, FieldId Fld, uint32_t ToNode,
                uint32_t BaseWhy = prov::InvalidFact,
                prov::Rule Why = prov::Rule::Load);
  /// STORE consequence FromNode -> field(obj, fld), portal when remote.
  /// \p Why is Store, or ShortcutStore for cut-shortcut edges.
  void storeEdge(uint32_t FromNode, uint32_t Obj, FieldId Fld,
                 uint32_t BaseWhy = prov::InvalidFact,
                 prov::Rule Why = prov::Rule::Store);

  // --- Provenance hooks (zero-cost when HYBRIDPT_PROVENANCE=0) ---
  bool provOn() const; // Defined after Engine (needs E.Opts).
  /// Interns the analysis fact a node/object pair denotes.  Portal nodes
  /// intern the *remote* fact — the portal descriptor is the remote key.
  uint32_t provFact(uint32_t NodeIdx, uint32_t Obj);
  void noteEdgeWhy(uint32_t From, uint32_t To, prov::Rule Why,
                   uint32_t Aux) {
    if (provOn())
      EdgeWhy.tryEmplace(packPair(From, To),
                         (static_cast<uint64_t>(Aux) << 8) |
                             static_cast<uint64_t>(Why));
  }
  /// Cast and sanitize edges share one entry per node pair (same
  /// Reachable aux); each edge's rule follows from its filter.
  void noteCastEdgeWhy(uint32_t From, uint32_t To, uint32_t Aux) {
    if (provOn())
      CastEdgeWhy.tryEmplace(packPair(From, To), Aux);
  }

  /// Cast-edge filter: a valid \p Filter admits subtypes; an invalid one
  /// marks a sanitize edge and admits only untainted allocation sites.
  bool passesCastFilter(uint32_t Obj, TypeId Filter) const;
  /// Records the step for a fresh propagation of \p Obj across an edge;
  /// \p Cast is the edge when it is a cast or sanitize edge.
  void provEdgeStep(uint32_t From, uint32_t To, uint32_t Obj,
                    const CastEdge *Cast = nullptr);

  CtxId policyMerge(HeapId Heap, HCtxId HCtx, InvokeId Invo, CtxId Ctx);
  CtxId policyMergeStatic(InvokeId Invo, CtxId Ctx);
  HCtxId policyRecord(HeapId Heap, CtxId Ctx);
};

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

/// One thread at most drains a given partition at any time; this names the
/// partition the calling thread is draining so local sends stay direct
/// calls (preserving the worklist solver's reentrant instantiation).
thread_local Partition *CurrentPart = nullptr;

class Engine {
public:
  Engine(const Program &Prog, ContextPolicy &Policy, SolverOptions Opts,
         Condensation Cond)
      : Prog(Prog), Policy(Policy), Opts(std::move(Opts)),
        Cond(std::move(Cond)), Budget(this->Opts.TimeBudgetMs) {
    if (!this->Opts.Faults.any())
      this->Opts.Faults = FaultPlan::fromEnv();
    StepFaultArmed = this->Opts.Faults.OomAtStep != 0 ||
                     this->Opts.Faults.CancelAtStep != 0;
    SlowRuleArmed = this->Opts.Faults.SlowRule != FaultRule::None;
    Parts.reserve(this->Cond.NumSCCs);
    for (uint32_t I = 0; I < this->Cond.NumSCCs; ++I)
      Parts.push_back(std::make_unique<Partition>(*this, I));
  }

  AnalysisResult solve(unsigned Threads, SummaryStats *Stats);

  // --- Ownership ---

  uint32_t partOfMethod(MethodId M) const { return Cond.SccOf[M.index()]; }
  uint32_t partOfVar(VarId V) const {
    return Cond.SccOf[Prog.var(V).Owner.index()];
  }
  uint32_t partOfObj(uint32_t Obj) const {
    return Cond.SccOf[Prog.heap(Objs.heapOf(Obj)).InMethod.index()];
  }
  uint32_t partOfStatic(FieldId Fld) const {
    return Fld.index() % Cond.NumSCCs;
  }

  // --- Messaging ---

  void post(uint32_t Part, const Msg &M) {
    Partition &P = *Parts[Part];
    bool Schedule = false;
    {
      std::lock_guard<std::mutex> Lock(P.InboxMu);
      P.Inbox.push_back(M);
      if (P.State == PState::Idle) {
        P.State = PState::Queued;
        Schedule = true;
      }
    }
    if (Schedule)
      schedule(Part);
  }

  // --- Abort / guards ---

  void abortRun(AbortReason Why, bool Injected = false) {
    std::lock_guard<std::mutex> Lock(AbortMu);
    if (AbortSet)
      return;
    AbortSet = true;
    Reason = Why;
    FaultInjected = Injected;
    AbortFlag.store(true, std::memory_order_release);
  }

  bool aborted() const {
    return AbortFlag.load(std::memory_order_relaxed);
  }

  uint64_t totalPublishedMemory() const {
    uint64_t Sum = 0;
    for (const auto &P : Parts)
      Sum += P->MemBytesA.load(std::memory_order_relaxed);
    return Sum;
  }

  void pollStepFaults(uint64_t Step) {
    if (aborted())
      return;
    if (Opts.Faults.OomAtStep != 0 && Step >= Opts.Faults.OomAtStep)
      abortRun(AbortReason::MemoryBudget, /*Injected=*/true);
    else if (Opts.Faults.CancelAtStep != 0 &&
             Step >= Opts.Faults.CancelAtStep)
      abortRun(AbortReason::Cancelled, /*Injected=*/true);
  }

  // --- Heartbeats (any thread; amortized callers) ---

  void maybeHeartbeat() {
    if (!Opts.Trace)
      return;
    if (!HbMu.try_lock())
      return;
    std::lock_guard<std::mutex> Lock(HbMu, std::adopt_lock);
    uint64_t Step = StepCount.load(std::memory_order_relaxed);
    bool Due = Opts.HeartbeatSteps != 0 &&
               Step - LastBeatStep >= Opts.HeartbeatSteps;
    if (!Due && Opts.HeartbeatMs != 0)
      Due = BeatWatch.elapsedMs() >= static_cast<double>(Opts.HeartbeatMs);
    if (Due)
      emitHeartbeatLocked(/*Final=*/false);
  }

  const Program &Prog;
  ContextPolicy &Policy;
  /// Cut-shortcut plan of the policy (null for tuple policies).  Immutable
  /// program structure owned by the policy, so partitions may read it from
  /// any thread without taking PolicyMu.
  const CutShortcutPlan *CutPlan = Policy.cutPlan();
  SolverOptions Opts;
  Condensation Cond;
  ObjInterner Objs;
  std::mutex PolicyMu;
  Deadline Budget;
  std::atomic<uint64_t> FactCount{0};
  std::atomic<uint64_t> StepCount{0};
  bool StepFaultArmed = false;
  bool SlowRuleArmed = false;

private:
  friend class ::Partition;

  void schedule(uint32_t Part) {
    TasksInFlight.fetch_add(1, std::memory_order_acq_rel);
    if (Pool)
      Pool->submit([this, Part] { runTask(Part); });
    else
      ReadyHeap.push(Part);
  }

  void runTask(uint32_t PartId);
  void emitHeartbeatLocked(bool Final);
  telemetry::SolverCounters snapshotCounters() const;
  telemetry::SolverCounters exactCounters() const;
  AnalysisResult harvest();

  std::vector<std::unique_ptr<Partition>> Parts;
  std::atomic<bool> AbortFlag{false};
  std::mutex AbortMu;
  bool AbortSet = false;
  AbortReason Reason = AbortReason::None;
  bool FaultInjected = false;

  std::atomic<uint64_t> TasksInFlight{0};
  std::mutex DoneMu;
  std::condition_variable DoneCv;
  ThreadPool *Pool = nullptr;
  /// Inline (single-thread) mode: ready partitions by ascending id, i.e.
  /// deepest-callee-first — the true bottom-up sweep priority.  Pool mode
  /// approximates the same priority through LIFO own-deque scheduling.
  std::priority_queue<uint32_t, std::vector<uint32_t>,
                      std::greater<uint32_t>>
      ReadyHeap;

  std::mutex HbMu;
  Stopwatch BeatWatch;
  uint64_t LastBeatStep = 0;
  telemetry::SolverCounters LastBeat;
};

bool Partition::aborted() const { return E.aborted(); }

bool Partition::provOn() const { return PT_PROV_ACTIVE(E.Opts.Prov); }

Partition::Partition(Engine &E, uint32_t Id)
    : E(E), Id(Id),
      CounterSnap(
          new std::atomic<uint64_t>[telemetry::numSolverCounters()]()) {}

void Partition::pollGuards() {
  if (E.Budget.expired()) {
    E.abortRun(AbortReason::TimeBudget);
    return;
  }
  if (E.Opts.Cancel && E.Opts.Cancel->cancelled()) {
    E.abortRun(AbortReason::Cancelled);
    return;
  }
  // O(nodes) walk, so amortized to every eighth poll; published for the
  // heartbeat thread and, when a budget is set, summed across partitions.
  if ((++MemPollTick & 0x7) == 0) {
    MemBytesA.store(memoryBytes(), std::memory_order_relaxed);
    if (E.Opts.MemoryBudgetBytes != 0) {
      uint64_t Total = E.totalPublishedMemory();
      // The shared derivation arena is engine-global state; charge it
      // once here, not per partition (memoryBytes() is a lock-free
      // atomic read, safe from any draining thread).
      if (PT_PROV_ACTIVE(E.Opts.Prov))
        Total += E.Opts.Prov->memoryBytes();
      if (Total > E.Opts.MemoryBudgetBytes)
        E.abortRun(AbortReason::MemoryBudget);
    }
  }
  publishCounters();
  E.maybeHeartbeat();
}

void Partition::slowRule(FaultRule Rule) {
  if (!E.SlowRuleArmed || E.Opts.Faults.SlowRule != Rule)
    return;
  Stopwatch W;
  while (W.elapsedMs() < 0.05) {
  }
}

// --- Node interning -------------------------------------------------------

uint32_t Partition::varNode(VarId V, CtxId Ctx) {
  uint64_t Key = packPair(V.index(), Ctx.index());
  uint32_t Idx = static_cast<uint32_t>(Nodes.size());
  auto [Slot, Inserted] = VarCtxIndex.tryEmplace(Key, Idx);
  if (!Inserted)
    return *Slot;
  PT_COUNT(Counters.NodesCreated);
  return newNode({PK::VarCtx, V.index(), Ctx.index()});
}

uint32_t Partition::fieldNode(uint32_t Obj, FieldId Fld) {
  uint64_t Key = packPair(Obj, Fld.index());
  uint32_t Idx = static_cast<uint32_t>(Nodes.size());
  auto [Slot, Inserted] = FieldSlotIndex.tryEmplace(Key, Idx);
  if (!Inserted)
    return *Slot;
  PT_COUNT(Counters.NodesCreated);
  return newNode({PK::FieldSlot, Obj, Fld.index()});
}

uint32_t Partition::staticNode(FieldId Fld) {
  uint32_t Idx = static_cast<uint32_t>(Nodes.size());
  auto [Slot, Inserted] = StaticSlotIndex.tryEmplace(Fld.index(), Idx);
  if (!Inserted)
    return *Slot;
  PT_COUNT(Counters.NodesCreated);
  return newNode({PK::StaticSlot, Fld.index(), 0});
}

uint32_t Partition::throwNode(MethodId M, CtxId Ctx) {
  uint64_t Key = packPair(M.index(), Ctx.index());
  uint32_t Idx = static_cast<uint32_t>(Nodes.size());
  auto [Slot, Inserted] = ThrowSlotIndex.tryEmplace(Key, Idx);
  if (!Inserted)
    return *Slot;
  PT_COUNT(Counters.NodesCreated);
  return newNode({PK::ThrowSlot, M.index(), Ctx.index()});
}

uint32_t Partition::portalNode(NK Key, uint32_t A, uint32_t B,
                               uint32_t Owner) {
  FlatMap<uint32_t> *Index = nullptr;
  uint64_t K = 0;
  PK Kind = PK::PortalVar;
  switch (Key) {
  case NK::VarCtx:
    Index = &PortalVarIndex;
    K = packPair(A, B);
    Kind = PK::PortalVar;
    break;
  case NK::FieldSlot:
    Index = &PortalFieldIndex;
    K = packPair(A, B);
    Kind = PK::PortalField;
    break;
  case NK::StaticSlot:
    Index = &PortalStaticIndex;
    K = A;
    Kind = PK::PortalStatic;
    break;
  case NK::ThrowSlot:
    assert(false && "throw slots are never remote edge targets");
    break;
  }
  uint32_t Idx = static_cast<uint32_t>(Nodes.size());
  auto [Slot, Inserted] = Index->tryEmplace(K, Idx);
  if (!Inserted)
    return *Slot;
  uint32_t N = newNode({Kind, A, B});
  DestPart[N] = Owner;
  return N;
}

uint32_t Partition::internNode(NK Key, uint32_t A, uint32_t B) {
  switch (Key) {
  case NK::VarCtx:
    return varNode(VarId(A), CtxId(B));
  case NK::FieldSlot:
    return fieldNode(A, FieldId(B));
  case NK::StaticSlot:
    return staticNode(FieldId(A));
  case NK::ThrowSlot:
    return throwNode(MethodId(A), CtxId(B));
  }
  return 0; // Unreachable.
}

uint32_t Partition::internObject(HeapId Heap, HCtxId HCtx) {
  uint64_t Key = packPair(Heap.index(), HCtx.index());
  if (uint32_t *Hit = ObjCache.find(Key))
    return *Hit;
  bool Fresh = false;
  uint32_t Obj = E.Objs.intern(Heap, HCtx, Fresh);
  if (Fresh)
    PT_COUNT(Counters.ObjectsInterned);
  ObjCache.tryEmplace(Key, Obj);
  return Obj;
}

// --- Policy caches --------------------------------------------------------

HCtxId Partition::policyRecord(HeapId Heap, CtxId Ctx) {
  uint64_t Key = packPair(Heap.index(), Ctx.index());
  if (uint32_t *Hit = RecordCache.find(Key))
    return HCtxId(*Hit);
  HCtxId R;
  {
    std::lock_guard<std::mutex> Lock(E.PolicyMu);
    R = E.Policy.record(Heap, Ctx);
  }
  RecordCache.tryEmplace(Key, R.index());
  return R;
}

CtxId Partition::policyMergeStatic(InvokeId Invo, CtxId Ctx) {
  uint64_t Key = packPair(Invo.index(), Ctx.index());
  if (uint32_t *Hit = MergeStaticCache.find(Key))
    return CtxId(*Hit);
  CtxId R;
  {
    std::lock_guard<std::mutex> Lock(E.PolicyMu);
    R = E.Policy.mergeStatic(Invo, Ctx);
  }
  MergeStaticCache.tryEmplace(Key, R.index());
  return R;
}

CtxId Partition::policyMerge(HeapId Heap, HCtxId HCtx, InvokeId Invo,
                             CtxId Ctx) {
  MergeKey Key{{Heap.index(), HCtx.index(), Invo.index(), Ctx.index()}};
  auto It = MergeCache.find(Key);
  if (It != MergeCache.end())
    return CtxId(It->second);
  CtxId R;
  {
    std::lock_guard<std::mutex> Lock(E.PolicyMu);
    R = E.Policy.merge(Heap, HCtx, Invo, Ctx);
  }
  MergeCache.emplace(Key, R.index());
  return R;
}

// --- Provenance -----------------------------------------------------------

uint32_t Partition::provFact(uint32_t NodeIdx, uint32_t Obj) {
  prov::Recorder &R = *E.Opts.Prov;
  const Desc &D = Descs[NodeIdx];
  switch (D.Kind) {
  case PK::VarCtx:
  case PK::PortalVar:
    return prov::varPointsTo(R, VarId(D.A), CtxId(D.B), Obj);
  case PK::FieldSlot:
  case PK::PortalField:
    return prov::fieldPointsTo(R, D.A, FieldId(D.B), Obj);
  case PK::StaticSlot:
  case PK::PortalStatic:
    return prov::staticPointsTo(R, FieldId(D.A), Obj);
  case PK::ThrowSlot:
    return prov::throwPointsTo(R, MethodId(D.A), CtxId(D.B), Obj);
  }
  return prov::InvalidFact;
}

void Partition::provEdgeStep(uint32_t From, uint32_t To, uint32_t Obj,
                             const CastEdge *Cast) {
  prov::Rule Rule;
  uint32_t Aux;
  if (Cast) {
    const uint32_t *CastAux = CastEdgeWhy.find(packPair(From, To));
    if (!CastAux)
      return; // Edge predates provenance enablement; skip, stay sound.
    Rule = Cast->Filter.isValid() ? prov::Rule::Cast : prov::Rule::Sanitize;
    Aux = *CastAux;
  } else {
    const uint64_t *Why = EdgeWhy.find(packPair(From, To));
    if (!Why)
      return;
    Rule = static_cast<prov::Rule>(*Why & 0xFF);
    Aux = static_cast<uint32_t>(*Why >> 8);
  }
  E.Opts.Prov->step(provFact(To, Obj), Rule, provFact(From, Obj), Aux);
}

// --- Cross-partition routing ----------------------------------------------

void Partition::reach(MethodId M, CtxId Ctx, prov::Rule Why,
                      uint32_t WhyPrem) {
  uint32_t Owner = E.partOfMethod(M);
  if (Owner == Id) {
    ensureReachable(M, Ctx, Why, WhyPrem);
    return;
  }
  if (!SentReach.insert(packPair(M.index(), Ctx.index())))
    return;
  PT_COUNT(Counters.CrossMsgs);
  Msg Message;
  Message.Kind = MsgKind::Reach;
  Message.A = M.index();
  Message.B = Ctx.index();
  if (provOn()) {
    Message.WhyRule = static_cast<uint8_t>(Why);
    Message.WhyPrem = WhyPrem;
  }
  E.post(Owner, Message);
}

void Partition::factToVar(VarId V, CtxId Ctx, uint32_t Obj, prov::Rule Why,
                          uint32_t WhyPrem, uint32_t WhyAux) {
  uint32_t Owner = E.partOfVar(V);
  if (Owner == Id) {
    uint32_t N = varNode(V, Ctx);
    if (addFact(N, Obj) && provOn())
      E.Opts.Prov->step(provFact(N, Obj), Why, WhyPrem, WhyAux);
    return;
  }
  PT_COUNT(Counters.CrossMsgs);
  Msg Message;
  Message.Kind = MsgKind::Fact;
  Message.NKey = NK::VarCtx;
  Message.A = V.index();
  Message.B = Ctx.index();
  Message.Obj = Obj;
  if (provOn()) {
    Message.WhyRule = static_cast<uint8_t>(Why);
    Message.WhyPrem = WhyPrem;
    Message.WhyAux = WhyAux;
  }
  E.post(Owner, Message);
}

void Partition::loadEdge(uint32_t Obj, FieldId Fld, uint32_t ToNode,
                         uint32_t BaseWhy, prov::Rule Why) {
  uint32_t Owner = E.partOfObj(Obj);
  if (Owner == Id) {
    uint32_t Src = fieldNode(Obj, Fld);
    noteEdgeWhy(Src, ToNode, Why, BaseWhy);
    addEdge(Src, ToNode);
    return;
  }
  // The edge's source (the field slot) lives elsewhere: ship the edge to
  // the owner, naming our local target so it can intern a portal back.
  const Desc &D = Descs[ToNode];
  PT_COUNT(Counters.CrossMsgs);
  Msg Message;
  Message.Kind = MsgKind::Edge;
  Message.NKey = NK::FieldSlot;
  Message.A = Obj;
  Message.B = Fld.index();
  Message.RefPart = Id;
  Message.RefKey = NK::VarCtx;
  Message.RefA = D.A;
  Message.RefB = D.B;
  if (provOn()) {
    Message.WhyRule = static_cast<uint8_t>(Why);
    Message.WhyAux = BaseWhy;
  }
  E.post(Owner, Message);
}

void Partition::storeEdge(uint32_t FromNode, uint32_t Obj, FieldId Fld,
                          uint32_t BaseWhy, prov::Rule Why) {
  uint32_t Owner = E.partOfObj(Obj);
  uint32_t To = Owner == Id ? fieldNode(Obj, Fld)
                            : portalNode(NK::FieldSlot, Obj, Fld.index(),
                                         Owner);
  noteEdgeWhy(FromNode, To, Why, BaseWhy);
  addEdge(FromNode, To);
}

// --- Facts and edges ------------------------------------------------------

bool Partition::addFact(uint32_t NodeIdx, uint32_t Obj) {
  if (aborted())
    return false;
  bool Portal = isPortal(Descs[NodeIdx].Kind);
  // Portal inserts are routing state, not analysis facts: they must not
  // count toward MaxFacts or the fact counters, or the summary engine
  // would hit budgets earlier than the worklist engine on the same cell.
  if (!Portal && E.Opts.MaxFacts != 0 &&
      E.FactCount.load(std::memory_order_relaxed) >= E.Opts.MaxFacts) {
    E.abortRun(AbortReason::FactBudget);
    return false;
  }
  Node &N = Nodes[NodeIdx];
  if (!N.Set.insert(Obj)) {
    if (!Portal)
      PT_COUNT(Counters.FactDedupHits);
    return false;
  }
  if (!Portal) {
    PT_COUNT(Counters.FactsInserted);
    E.FactCount.fetch_add(1, std::memory_order_relaxed);
  }
  if (!N.Queued) {
    N.Queued = true;
    Worklist.push_back(NodeIdx);
  }
  return true;
}

void Partition::addEdge(uint32_t From, uint32_t To) {
  if (From == To)
    return;
  if (!EdgeDedup.insert(packPair(From, To))) {
    PT_COUNT(Counters.EdgeDedupHits);
    return;
  }
  PT_COUNT(Counters.EdgesAdded);
  Nodes[From].Edges.push_back(To);
  uint32_t Count = Nodes[From].Set.size();
  PT_COUNT_ADD(Counters.FactsReplayed, Count);
  for (uint32_t I = 0; I < Count; ++I) {
    uint32_t Obj = Nodes[From].Set.at(I);
    if (addFact(To, Obj) && provOn())
      provEdgeStep(From, To, Obj);
  }
}

bool Partition::passesCastFilter(uint32_t Obj, TypeId Filter) const {
  const HeapInfo &H = E.Prog.heap(E.Objs.heapOf(Obj));
  if (!Filter.isValid())
    return H.TaintTag == 0; // Sanitize edge (SanitizeInstr).
  return E.Prog.isSubtype(H.Type, Filter);
}

void Partition::addCastEdge(uint32_t From, uint32_t To, TypeId Filter) {
  PT_COUNT(Counters.EdgesAdded);
  const CastEdge Ce{To, Filter};
  Nodes[From].CastEdges.push_back(Ce);
  uint32_t Count = Nodes[From].Set.size();
  PT_COUNT_ADD(Counters.FactsReplayed, Count);
  for (uint32_t I = 0; I < Count; ++I) {
    uint32_t Obj = Nodes[From].Set.at(I);
    PT_COUNT(Counters.RuleCast);
    if (passesCastFilter(Obj, Filter))
      if (addFact(To, Obj) && provOn())
        provEdgeStep(From, To, Obj, &Ce);
  }
}

// --- Reachability (the summary body) --------------------------------------

void Partition::ensureReachable(MethodId M, CtxId Ctx, prov::Rule Why,
                                uint32_t WhyPrem) {
  if (aborted())
    return;
  if (!ReachableSet.insert(packPair(M.index(), Ctx.index()))) {
    // Memoized summary: identical abstract input (method, context), reuse.
    PT_COUNT(Counters.SummaryHits);
    return;
  }
  PT_COUNT(Counters.SummaryMisses);
  PT_COUNT(Counters.MethodsInstantiated);
  ReachableList.push_back({M, Ctx});

  uint32_t RFact = prov::InvalidFact;
  if (provOn()) {
    RFact = prov::reachableFact(*E.Opts.Prov, M, Ctx);
    E.Opts.Prov->step(RFact, Why, WhyPrem);
  }

  const Program &Prog = E.Prog;
  const MethodInfo &Body = Prog.method(M);

  for (const AllocInstr &A : Body.Allocs) {
    PT_COUNT(Counters.RuleAlloc);
    slowRule(FaultRule::Alloc);
    HCtxId HCtx = policyRecord(A.Heap, Ctx);
    uint32_t Obj = internObject(A.Heap, HCtx);
    uint32_t VN = varNode(A.Var, Ctx);
    if (addFact(VN, Obj) && provOn())
      E.Opts.Prov->step(provFact(VN, Obj), prov::Rule::Alloc, RFact);
  }

  for (const MoveInstr &Mv : Body.Moves) {
    PT_COUNT(Counters.RuleMove);
    slowRule(FaultRule::Move);
    uint32_t From = varNode(Mv.From, Ctx);
    uint32_t To = varNode(Mv.To, Ctx);
    noteEdgeWhy(From, To, prov::Rule::Move, RFact);
    addEdge(From, To);
  }

  for (const CastInstr &C : Body.Casts) {
    slowRule(FaultRule::Cast);
    uint32_t From = varNode(C.From, Ctx);
    uint32_t To = varNode(C.To, Ctx);
    noteCastEdgeWhy(From, To, RFact);
    addCastEdge(From, To, C.Target);
  }

  // Sanitize edges: intra-method, so both endpoints live in this
  // partition (invalid filter = taint barrier; see passesCastFilter).
  for (const SanitizeInstr &S : Body.Sanitizes) {
    uint32_t From = varNode(S.From, Ctx);
    uint32_t To = varNode(S.To, Ctx);
    noteCastEdgeWhy(From, To, RFact);
    addCastEdge(From, To, TypeId::invalid());
  }

  for (const LoadInstr &L : Body.Loads) {
    slowRule(FaultRule::Load);
    uint32_t Base = varNode(L.Base, Ctx);
    uint32_t To = varNode(L.To, Ctx);
    Nodes[Base].Loads.push_back({L.Fld, To});
    uint32_t Count = Nodes[Base].Set.size();
    for (uint32_t I = 0; I < Count; ++I) {
      uint32_t Obj = Nodes[Base].Set.at(I);
      PT_COUNT(Counters.RuleLoad);
      loadEdge(Obj, L.Fld, To,
               provOn() ? provFact(Base, Obj) : prov::InvalidFact);
    }
  }
  for (uint32_t SI = 0; SI < Body.Stores.size(); ++SI) {
    const StoreInstr &S = Body.Stores[SI];
    if (E.CutPlan && E.CutPlan->isStoreCut(M, SI))
      continue; // Covered store: replaced by per-call-edge shortcut edges.
    slowRule(FaultRule::Store);
    uint32_t Base = varNode(S.Base, Ctx);
    uint32_t From = varNode(S.From, Ctx);
    Nodes[Base].Stores.push_back({S.Fld, From});
    uint32_t Count = Nodes[Base].Set.size();
    for (uint32_t I = 0; I < Count; ++I) {
      uint32_t Obj = Nodes[Base].Set.at(I);
      PT_COUNT(Counters.RuleStore);
      storeEdge(From, Obj, S.Fld,
                provOn() ? provFact(Base, Obj) : prov::InvalidFact);
    }
  }

  for (const SLoadInstr &L : Body.SLoads) {
    PT_COUNT(Counters.RuleStaticLoad);
    slowRule(FaultRule::SLoad);
    uint32_t Owner = E.partOfStatic(L.Fld);
    uint32_t To = varNode(L.To, Ctx);
    if (Owner == Id) {
      uint32_t Src = staticNode(L.Fld);
      noteEdgeWhy(Src, To, prov::Rule::StaticLoad, RFact);
      addEdge(Src, To);
    } else {
      PT_COUNT(Counters.CrossMsgs);
      Msg Message;
      Message.Kind = MsgKind::Edge;
      Message.NKey = NK::StaticSlot;
      Message.A = L.Fld.index();
      Message.RefPart = Id;
      Message.RefKey = NK::VarCtx;
      Message.RefA = L.To.index();
      Message.RefB = Ctx.index();
      if (provOn()) {
        Message.WhyRule = static_cast<uint8_t>(prov::Rule::StaticLoad);
        Message.WhyAux = RFact;
      }
      E.post(Owner, Message);
    }
  }
  for (const SStoreInstr &S : Body.SStores) {
    PT_COUNT(Counters.RuleStaticStore);
    slowRule(FaultRule::SStore);
    uint32_t Owner = E.partOfStatic(S.Fld);
    uint32_t To = Owner == Id
                      ? staticNode(S.Fld)
                      : portalNode(NK::StaticSlot, S.Fld.index(), 0, Owner);
    uint32_t From = varNode(S.From, Ctx);
    noteEdgeWhy(From, To, prov::Rule::StaticStore, RFact);
    addEdge(From, To);
  }

  for (const ThrowInstr &T : Body.Throws) {
    uint32_t VNode = varNode(T.V, Ctx);
    Nodes[VNode].ThrowSubs.push_back(packPair(M.index(), Ctx.index()));
    uint32_t Count = Nodes[VNode].Set.size();
    for (uint32_t I = 0; I < Count; ++I) {
      uint32_t Obj = Nodes[VNode].Set.at(I);
      routeThrow(Obj, M, Ctx,
                 provOn() ? provFact(VNode, Obj) : prov::InvalidFact);
    }
  }

  for (InvokeId Inv : Body.Invokes) {
    const InvokeInfo &Call = Prog.invoke(Inv);
    if (Call.IsStatic) {
      PT_COUNT(Counters.RuleSCall);
      slowRule(FaultRule::SCall);
      if (E.Opts.Faults.DropSCall)
        continue; // Injected bug (support/FaultPlan.h).
      CtxId CalleeCtx = policyMergeStatic(Inv, Ctx);
      wireCall(Inv, Ctx, Call.Target, CalleeCtx, prov::Rule::SCall, RFact);
    } else {
      uint32_t Base = varNode(Call.Base, Ctx);
      Nodes[Base].Dispatches.push_back({Inv, Ctx});
      uint32_t Count = Nodes[Base].Set.size();
      for (uint32_t I = 0; I < Count; ++I)
        dispatch({Inv, Ctx}, Nodes[Base].Set.at(I));
    }
  }
}

// --- Exceptions -----------------------------------------------------------

void Partition::routeThrow(uint32_t Obj, MethodId M, CtxId Ctx,
                           uint32_t WhyPrem, uint32_t WhyAux) {
  if (checkBudget())
    return;
  PT_COUNT(Counters.RuleThrow);
  slowRule(FaultRule::Throw);
  const Program &Prog = E.Prog;
  TypeId ObjType = Prog.heap(E.Objs.heapOf(Obj)).Type;
  const MethodInfo &Body = Prog.method(M);
  // An aux premise (the call edge) means this object escalated out of a
  // callee; otherwise it came from a local THROW.
  bool Escalating = WhyAux != prov::InvalidFact;
  bool Caught = false;
  for (const HandlerInfo &H : Body.Handlers) {
    if (Prog.isSubtype(ObjType, H.CatchType)) {
      uint32_t HN = varNode(H.Var, Ctx);
      if (addFact(HN, Obj) && provOn())
        E.Opts.Prov->step(provFact(HN, Obj),
                          Escalating ? prov::Rule::CatchEscalate
                                     : prov::Rule::CatchBind,
                          WhyPrem, WhyAux);
      Caught = true;
    }
  }
  if (!Caught) {
    uint32_t TN = throwNode(M, Ctx);
    if (addFact(TN, Obj) && provOn())
      E.Opts.Prov->step(provFact(TN, Obj),
                        Escalating ? prov::Rule::ThrowEscalate
                                   : prov::Rule::ThrowRaise,
                        WhyPrem, WhyAux);
  }
}

void Partition::addThrowLink(uint32_t ThrowNodeIdx, uint32_t CallerPart,
                             uint32_t CallerM, uint32_t CallerCtx,
                             uint32_t WhyAux) {
  // Exact dedup by linear scan: links per throw slot are few, and a false
  // hash-dedup hit here would silently drop an escalation path.
  std::vector<TLink> &Links = Nodes[ThrowNodeIdx].ThrowLinks;
  for (const TLink &L : Links)
    if (L.Part == CallerPart && L.M == CallerM && L.Ctx == CallerCtx)
      return;
  Links.push_back({CallerPart, CallerM, CallerCtx, WhyAux});
  uint32_t Count = Nodes[ThrowNodeIdx].Set.size();
  for (uint32_t I = 0; I < Count; ++I) {
    uint32_t Obj = Nodes[ThrowNodeIdx].Set.at(I);
    fireThrowLink({CallerPart, CallerM, CallerCtx, WhyAux}, Obj,
                  provOn() ? provFact(ThrowNodeIdx, Obj)
                           : prov::InvalidFact);
  }
}

void Partition::fireThrowLink(const TLink &L, uint32_t Obj,
                              uint32_t WhyPrem) {
  if (L.Part == Id) {
    routeThrow(Obj, MethodId(L.M), CtxId(L.Ctx), WhyPrem, L.WhyAux);
    return;
  }
  PT_COUNT(Counters.CrossMsgs);
  Msg Message;
  Message.Kind = MsgKind::RouteThrow;
  Message.A = L.M;
  Message.B = L.Ctx;
  Message.Obj = Obj;
  if (provOn()) {
    Message.WhyPrem = WhyPrem;
    Message.WhyAux = L.WhyAux;
  }
  E.post(L.Part, Message);
}

// --- Calls ----------------------------------------------------------------

void Partition::dispatch(const DispatchSub &Sub, uint32_t Obj) {
  if (checkBudget())
    return;
  PT_COUNT(Counters.RuleVCall);
  slowRule(FaultRule::VCall);
  const Program &Prog = E.Prog;
  const InvokeInfo &Call = Prog.invoke(Sub.Invo);
  HeapId Heap = E.Objs.heapOf(Obj);
  HCtxId HCtx = E.Objs.hctxOf(Obj);
  MethodId Callee = Prog.lookup(Prog.heap(Heap).Type, Call.Sig);
  if (!Callee.isValid())
    return;
  CtxId CalleeCtx = policyMerge(Heap, HCtx, Sub.Invo, Sub.CallerCtx);
  const MethodInfo &CalleeInfo = Prog.method(Callee);
  // Provenance: intern (not record) the receiver fact and the call-edge
  // fact here; the call edge's own step lands in wireCall on first insert.
  uint32_t BaseFact = prov::InvalidFact;
  uint32_t CEFact = prov::InvalidFact;
  if (provOn()) {
    BaseFact =
        prov::varPointsTo(*E.Opts.Prov, Call.Base, Sub.CallerCtx, Obj);
    CEFact = prov::callEdgeFact(*E.Opts.Prov, Sub.Invo, Sub.CallerCtx,
                                Callee, CalleeCtx);
  }
  reach(Callee, CalleeCtx, prov::Rule::ReachCall, CEFact);
  factToVar(CalleeInfo.This, CalleeCtx, Obj, prov::Rule::ThisBind, BaseFact,
            CEFact);
  wireCall(Sub.Invo, Sub.CallerCtx, Callee, CalleeCtx, prov::Rule::VCall,
           BaseFact);
  // Receiver-dependent cut shortcuts.  These must be wired here, per
  // (invoke, receiver object): wireCall dedups on the context-free call
  // edge, which under contextless cut policies collapses all receivers of
  // an invoke into one edge.  storeEdge/loadEdge and addEdge dedup, so the
  // occasional dispatch re-fire for the same (Sub, Obj) stays idempotent.
  if (const CutShortcutPlan *CP = E.CutPlan) {
    const CutShortcutPlan::MethodPlan &MP = CP->method(Callee);
    for (const CutShortcutPlan::StoreCut &SC : MP.StoreCuts) {
      if (SC.FormalIdx >= Call.Actuals.size())
        continue;
      uint32_t FromN = varNode(Call.Actuals[SC.FormalIdx], Sub.CallerCtx);
      storeEdge(FromN, Obj, SC.Fld, CEFact, prov::Rule::ShortcutStore);
    }
    if (MP.RetCut && Call.RetTo.isValid()) {
      uint32_t RetN = varNode(Call.RetTo, Sub.CallerCtx);
      for (FieldId F : MP.RetLoads)
        loadEdge(Obj, F, RetN, CEFact, prov::Rule::ShortcutRetLoad);
    }
  }
}

bool Partition::insertCallEdge(const CallGraphEdge &Edge) {
  uint32_t Words[4] = {Edge.Invo.index(), Edge.CallerCtx.index(),
                       Edge.Callee.index(), Edge.CalleeCtx.index()};
  uint64_t H = hashWords(Words, 4);
  uint32_t NewIdx = static_cast<uint32_t>(CallEdges.size());
  auto [Head, Fresh] = CallEdgeHead.tryEmplace(H, NewIdx);
  uint32_t ChainNext = UINT32_MAX;
  if (!Fresh) {
    for (uint32_t I = *Head; I != UINT32_MAX; I = CallEdgeNext[I]) {
      const CallGraphEdge &X = CallEdges[I];
      if (X.Invo == Edge.Invo && X.CallerCtx == Edge.CallerCtx &&
          X.Callee == Edge.Callee && X.CalleeCtx == Edge.CalleeCtx)
        return false;
    }
    ChainNext = *Head;
    *Head = NewIdx;
  }
  PT_COUNT(Counters.CallEdgesInserted);
  CallEdges.push_back(Edge);
  CallEdgeNext.push_back(ChainNext);
  return true;
}

void Partition::wireCall(InvokeId Invo, CtxId CallerCtx, MethodId Callee,
                         CtxId CalleeCtx, prov::Rule CallWhy,
                         uint32_t CallPrem) {
  // The call edge is deduped in the *caller's* partition — every wireCall
  // for an invoke runs where the invoke's method lives, so the dedup stays
  // partition-local and exact.
  if (!insertCallEdge({Invo, CallerCtx, Callee, CalleeCtx}))
    return;
  // A new (call site, callee summary) link: the value-contexts
  // "instantiate summary at call site" event.
  PT_COUNT(Counters.SummaryInstantiations);

  uint32_t CEFact = prov::InvalidFact;
  if (provOn()) {
    CEFact =
        prov::callEdgeFact(*E.Opts.Prov, Invo, CallerCtx, Callee, CalleeCtx);
    E.Opts.Prov->step(CEFact, CallWhy, CallPrem);
  }

  reach(Callee, CalleeCtx, prov::Rule::ReachCall, CEFact);

  const Program &Prog = E.Prog;
  const InvokeInfo &Call = Prog.invoke(Invo);
  const MethodInfo &CalleeInfo = Prog.method(Callee);
  uint32_t CalleePart = E.partOfMethod(Callee);

  size_t NumArgs = std::min(Call.Actuals.size(), CalleeInfo.Formals.size());
  for (size_t I = 0; I < NumArgs; ++I) {
    uint32_t From = varNode(Call.Actuals[I], CallerCtx);
    uint32_t To =
        CalleePart == Id
            ? varNode(CalleeInfo.Formals[I], CalleeCtx)
            : portalNode(NK::VarCtx, CalleeInfo.Formals[I].index(),
                         CalleeCtx.index(), CalleePart);
    noteEdgeWhy(From, To, prov::Rule::ParamBind, CEFact);
    addEdge(From, To);
  }

  // Ret-cut callees drop the generic return edge; per-call-edge shortcut
  // edges (below) carry the same values directly to the caller.
  const CutShortcutPlan::MethodPlan *MP =
      E.CutPlan ? &E.CutPlan->method(Callee) : nullptr;
  bool RetCut = MP && MP->RetCut;
  if (Call.RetTo.isValid() && CalleeInfo.Return.isValid() && !RetCut) {
    if (CalleePart == Id) {
      uint32_t From = varNode(CalleeInfo.Return, CalleeCtx);
      uint32_t To = varNode(Call.RetTo, CallerCtx);
      noteEdgeWhy(From, To, prov::Rule::ReturnBind, CEFact);
      addEdge(From, To);
    } else {
      // Return edges flow callee -> caller: the source lives in the
      // callee's partition, so the edge is shipped there.
      PT_COUNT(Counters.CrossMsgs);
      Msg Message;
      Message.Kind = MsgKind::Edge;
      Message.NKey = NK::VarCtx;
      Message.A = CalleeInfo.Return.index();
      Message.B = CalleeCtx.index();
      Message.RefPart = Id;
      Message.RefKey = NK::VarCtx;
      Message.RefA = Call.RetTo.index();
      Message.RefB = CallerCtx.index();
      if (provOn()) {
        Message.WhyRule = static_cast<uint8_t>(prov::Rule::ReturnBind);
        Message.WhyAux = CEFact;
      }
      E.post(CalleePart, Message);
    }
  }

  if (RetCut && Call.RetTo.isValid()) {
    // Receiver-independent shortcut edges: both endpoints are caller-local
    // variables, so no cross-partition traffic regardless of the callee's
    // partition.
    uint32_t RetN = varNode(Call.RetTo, CallerCtx);
    for (uint32_t Pos : MP->RetArgs) {
      if (Pos >= Call.Actuals.size())
        continue;
      uint32_t FromN = varNode(Call.Actuals[Pos], CallerCtx);
      noteEdgeWhy(FromN, RetN, prov::Rule::ShortcutRetArg, CEFact);
      addEdge(FromN, RetN);
    }
    for (HeapId H : MP->RetAllocs) {
      uint32_t O = internObject(H, policyRecord(H, CalleeCtx));
      if (addFact(RetN, O) && provOn())
        E.Opts.Prov->step(provFact(RetN, O), prov::Rule::ShortcutRetAlloc,
                          CEFact);
    }
  }

  if (CalleePart == Id) {
    addThrowLink(throwNode(Callee, CalleeCtx), Id, Call.InMethod.index(),
                 CallerCtx.index(), CEFact);
  } else {
    PT_COUNT(Counters.CrossMsgs);
    Msg Message;
    Message.Kind = MsgKind::ThrowLink;
    Message.A = Callee.index();
    Message.B = CalleeCtx.index();
    Message.RefPart = Id;
    Message.RefA = Call.InMethod.index();
    Message.RefB = CallerCtx.index();
    if (provOn())
      Message.WhyAux = CEFact;
    E.post(CalleePart, Message);
  }
}

// --- Delta propagation ----------------------------------------------------

void Partition::processDelta(uint32_t NodeIdx) {
  if (isPortal(Descs[NodeIdx].Kind)) {
    // Portal: forward each newly arriving object to the owner partition.
    // The portal's set already deduped repeats, so each (target, object)
    // pair crosses the boundary at most once per portal.
    NK Key = Descs[NodeIdx].Kind == PK::PortalVar      ? NK::VarCtx
             : Descs[NodeIdx].Kind == PK::PortalField ? NK::FieldSlot
                                                      : NK::StaticSlot;
    uint32_t Owner = DestPart[NodeIdx];
    while (true) {
      if (aborted())
        return;
      Node &N = Nodes[NodeIdx];
      if (N.Scanned >= N.Set.size())
        break;
      uint32_t Obj = N.Set.at(N.Scanned++);
      PT_COUNT(Counters.CrossMsgs);
      Msg Message;
      Message.Kind = MsgKind::Fact;
      Message.NKey = Key;
      Message.A = Descs[NodeIdx].A;
      Message.B = Descs[NodeIdx].B;
      Message.Obj = Obj;
      E.post(Owner, Message);
    }
    return;
  }

  // Real node: identical structure to Solver::processDelta — index loops
  // re-reading Nodes each step, since reentrant growth may reallocate.
  while (true) {
    if (aborted())
      return;
    {
      Node &N = Nodes[NodeIdx];
      if (N.Scanned >= N.Set.size())
        break;
    }
    uint32_t Obj = Nodes[NodeIdx].Set.at(Nodes[NodeIdx].Scanned++);

    for (size_t I = 0; I < Nodes[NodeIdx].Dispatches.size(); ++I) {
      DispatchSub Sub = Nodes[NodeIdx].Dispatches[I];
      dispatch(Sub, Obj);
    }
    uint32_t SelfFact =
        provOn() ? provFact(NodeIdx, Obj) : prov::InvalidFact;
    for (size_t I = 0; I < Nodes[NodeIdx].ThrowSubs.size(); ++I) {
      uint64_t Frame = Nodes[NodeIdx].ThrowSubs[I];
      routeThrow(Obj, MethodId(unpackHi(Frame)), CtxId(unpackLo(Frame)),
                 SelfFact);
    }
    for (size_t I = 0; I < Nodes[NodeIdx].ThrowLinks.size(); ++I) {
      TLink L = Nodes[NodeIdx].ThrowLinks[I];
      fireThrowLink(L, Obj, SelfFact);
    }
    for (size_t I = 0; I < Nodes[NodeIdx].Loads.size(); ++I) {
      LoadSub Sub = Nodes[NodeIdx].Loads[I];
      PT_COUNT(Counters.RuleLoad);
      slowRule(FaultRule::Load);
      loadEdge(Obj, Sub.Fld, Sub.ToNode, SelfFact);
    }
    for (size_t I = 0; I < Nodes[NodeIdx].Stores.size(); ++I) {
      StoreSub Sub = Nodes[NodeIdx].Stores[I];
      PT_COUNT(Counters.RuleStore);
      slowRule(FaultRule::Store);
      storeEdge(Sub.FromNode, Obj, Sub.Fld, SelfFact);
    }
    for (size_t I = 0; I < Nodes[NodeIdx].Edges.size(); ++I) {
      uint32_t To = Nodes[NodeIdx].Edges[I];
      if (addFact(To, Obj) && provOn())
        provEdgeStep(NodeIdx, To, Obj);
    }
    for (size_t I = 0; I < Nodes[NodeIdx].CastEdges.size(); ++I) {
      CastEdge Ce = Nodes[NodeIdx].CastEdges[I];
      PT_COUNT(Counters.RuleCast);
      slowRule(FaultRule::Cast);
      if (passesCastFilter(Obj, Ce.Filter))
        if (addFact(Ce.ToNode, Obj) && provOn())
          provEdgeStep(NodeIdx, Ce.ToNode, Obj, &Ce);
    }
  }
}

void Partition::drainWorklist() {
  while (!Worklist.empty()) {
    if (aborted() || checkBudget())
      return;
    uint64_t Step = E.StepCount.fetch_add(1, std::memory_order_relaxed) + 1;
    if (E.StepFaultArmed) {
      E.pollStepFaults(Step);
      if (aborted())
        return;
    }
    uint32_t NodeIdx = Worklist.front();
    Worklist.pop_front();
    PT_COUNT(Counters.WorklistSteps);
    Nodes[NodeIdx].Queued = false;
    processDelta(NodeIdx);
  }
}

void Partition::apply(const Msg &M) {
  if (aborted())
    return;
  switch (M.Kind) {
  case MsgKind::Reach:
    ensureReachable(MethodId(M.A), CtxId(M.B),
                    M.WhyRule == WhyNone
                        ? prov::Rule::Entry
                        : static_cast<prov::Rule>(M.WhyRule),
                    M.WhyPrem);
    break;
  case MsgKind::Fact: {
    uint32_t N = internNode(M.NKey, M.A, M.B);
    bool Fresh = addFact(N, M.Obj);
    // WhyNone marks a portal-forwarded fact: the sender already recorded
    // its step at portal-insert time (portal desc == this fact's key).
    if (Fresh && provOn() && M.WhyRule != WhyNone)
      E.Opts.Prov->step(provFact(N, M.Obj),
                        static_cast<prov::Rule>(M.WhyRule), M.WhyPrem,
                        M.WhyAux);
    break;
  }
  case MsgKind::Edge: {
    uint32_t Src = internNode(M.NKey, M.A, M.B);
    uint32_t Dst = M.RefPart == Id
                       ? internNode(M.RefKey, M.RefA, M.RefB)
                       : portalNode(M.RefKey, M.RefA, M.RefB, M.RefPart);
    if (M.WhyRule != WhyNone)
      noteEdgeWhy(Src, Dst, static_cast<prov::Rule>(M.WhyRule), M.WhyAux);
    addEdge(Src, Dst);
    break;
  }
  case MsgKind::ThrowLink:
    addThrowLink(throwNode(MethodId(M.A), CtxId(M.B)), M.RefPart, M.RefA,
                 M.RefB, M.WhyAux);
    break;
  case MsgKind::RouteThrow:
    routeThrow(M.Obj, MethodId(M.A), CtxId(M.B), M.WhyPrem, M.WhyAux);
    break;
  }
}

size_t Partition::memoryBytes() const {
  size_t Bytes = Nodes.capacity() * sizeof(Node) +
                 Descs.capacity() * sizeof(Desc) +
                 DestPart.capacity() * sizeof(uint32_t);
  for (const Node &N : Nodes) {
    Bytes += N.Set.memoryBytes();
    Bytes += N.Edges.capacity() * sizeof(uint32_t);
    Bytes += N.CastEdges.capacity() * sizeof(CastEdge);
    Bytes += N.Loads.capacity() * sizeof(LoadSub);
    Bytes += N.Stores.capacity() * sizeof(StoreSub);
    Bytes += N.Dispatches.capacity() * sizeof(DispatchSub);
    Bytes += N.ThrowSubs.capacity() * sizeof(uint64_t);
    Bytes += N.ThrowLinks.capacity() * sizeof(TLink);
  }
  Bytes += VarCtxIndex.memoryBytes() + FieldSlotIndex.memoryBytes() +
           StaticSlotIndex.memoryBytes() + ThrowSlotIndex.memoryBytes() +
           PortalVarIndex.memoryBytes() + PortalFieldIndex.memoryBytes() +
           PortalStaticIndex.memoryBytes() + EdgeDedup.memoryBytes() +
           EdgeWhy.memoryBytes() + CastEdgeWhy.memoryBytes() +
           ReachableSet.memoryBytes() + SentReach.memoryBytes() +
           CallEdgeHead.memoryBytes() + RecordCache.memoryBytes() +
           MergeStaticCache.memoryBytes() + ObjCache.memoryBytes();
  Bytes += ReachableList.capacity() * sizeof(std::pair<MethodId, CtxId>);
  Bytes += CallEdges.capacity() * sizeof(CallGraphEdge) +
           CallEdgeNext.capacity() * sizeof(uint32_t);
  Bytes += MergeCache.size() *
           (sizeof(std::pair<MergeKey, uint32_t>) + 2 * sizeof(void *));
  return Bytes;
}

// --- Engine scheduling ----------------------------------------------------

void Engine::runTask(uint32_t PartId) {
  Partition &P = *Parts[PartId];
  {
    std::lock_guard<std::mutex> Lock(P.InboxMu);
    P.State = PState::Running;
  }
  Partition *Prev = CurrentPart;
  CurrentPart = &P;
  ++P.Activations;
  PT_COUNT(P.Counters.SccTasks);

  std::optional<trace::TraceRecorder::Span> Span;
  if (Opts.Trace) {
    char Name[32], Args[96];
    std::snprintf(Name, sizeof(Name), "scc:%u", PartId);
    std::snprintf(Args, sizeof(Args),
                  "{\"scc\":%u,\"depth\":%u,\"methods\":%zu}", PartId,
                  Cond.Depth[PartId], Cond.Members[PartId].size());
    Span.emplace(Opts.Trace, Name, "scc", Args);
  }

  Stopwatch Busy;
  std::vector<Msg> Batch;
  while (true) {
    {
      std::lock_guard<std::mutex> Lock(P.InboxMu);
      Batch.swap(P.Inbox);
    }
    for (const Msg &M : Batch)
      P.apply(M);
    Batch.clear();
    P.drainWorklist();
    std::lock_guard<std::mutex> Lock(P.InboxMu);
    if (P.Inbox.empty()) {
      // Going idle is decided under the inbox lock, so a concurrent post
      // either lands in the inbox we just saw non-empty (loop again) or
      // observes Idle and schedules a fresh task — no lost wakeups.
      P.State = PState::Idle;
      break;
    }
  }
  P.BusyUs.fetch_add(static_cast<uint64_t>(Busy.elapsedMs() * 1000.0),
                     std::memory_order_relaxed);
  CurrentPart = Prev;
  Span.reset();

  if (TasksInFlight.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> Lock(DoneMu);
    DoneCv.notify_all();
  }
}

telemetry::SolverCounters Engine::snapshotCounters() const {
  telemetry::SolverCounters Sum;
  for (const auto &P : Parts) {
    size_t I = 0;
#define PT_ACC(Field, Name)                                                    \
  Sum.Field += P->CounterSnap[I++].load(std::memory_order_relaxed);
    PT_SOLVER_COUNTERS(PT_ACC)
#undef PT_ACC
  }
  return Sum;
}

telemetry::SolverCounters Engine::exactCounters() const {
  telemetry::SolverCounters Sum;
  for (const auto &P : Parts) {
#define PT_SUMF(Field, Name) Sum.Field += P->Counters.Field;
    PT_SOLVER_COUNTERS(PT_SUMF)
#undef PT_SUMF
  }
  return Sum;
}

void Engine::emitHeartbeatLocked(bool Final) {
  trace::Heartbeat HB;
  HB.Label = Opts.TraceLabel;
  HB.Step = StepCount.load(std::memory_order_relaxed);
  HB.WorklistDepth = TasksInFlight.load(std::memory_order_relaxed);
  HB.Facts = FactCount.load(std::memory_order_relaxed);
  HB.Objects = Objs.size();
  HB.Final = Final;
  if (Final) {
    // The sweep has quiesced: exact values are race-free now.
    uint64_t Nodes = 0, Mem = Objs.memoryBytes();
    if (PT_PROV_ACTIVE(Opts.Prov))
      Mem += Opts.Prov->memoryBytes();
    for (const auto &P : Parts) {
      Nodes += P->Nodes.size();
      Mem += P->memoryBytes();
    }
    HB.Nodes = Nodes;
    HB.MemoryBytes = Mem;
    HB.Totals = exactCounters();
    if (AbortFlag.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> Lock(AbortMu);
      HB.Abort = abortReasonName(Reason);
    }
  } else {
    // Live sweep: read only the published atomic snapshots (stale by at
    // most one guard-poll interval, but race-free).
    uint64_t Nodes = 0, Mem = 0;
    if (PT_PROV_ACTIVE(Opts.Prov))
      Mem += Opts.Prov->memoryBytes();
    for (const auto &P : Parts) {
      Nodes += P->NodesA.load(std::memory_order_relaxed);
      Mem += P->MemBytesA.load(std::memory_order_relaxed);
    }
    HB.Nodes = Nodes;
    HB.MemoryBytes = Mem;
    HB.Totals = snapshotCounters();
  }
  HB.Deltas = HB.Totals.since(LastBeat);
  LastBeat = HB.Totals;
  LastBeatStep = HB.Step;
  BeatWatch.restart();
  Opts.Trace->heartbeat(std::move(HB));
}

AnalysisResult Engine::harvest() {
  AnalysisResult Result(Prog, Policy);
  Result.Aborted = AbortFlag.load(std::memory_order_acquire);
  {
    std::lock_guard<std::mutex> Lock(AbortMu);
    Result.Reason = Reason;
    Result.FaultInjected = FaultInjected;
  }
  Result.Counters = exactCounters();
  Result.PeakBytes = Objs.memoryBytes();
  if (PT_PROV_ACTIVE(Opts.Prov))
    Result.PeakBytes += Opts.Prov->memoryBytes();
  Objs.exportTables(Result.ObjHeaps, Result.ObjHCtxs);

  for (const auto &PPtr : Parts) {
    Partition &P = *PPtr;
    Result.PeakBytes += P.memoryBytes();
    Result.CallEdges.insert(Result.CallEdges.end(), P.CallEdges.begin(),
                            P.CallEdges.end());
    Result.Reachable.insert(Result.Reachable.end(), P.ReachableList.begin(),
                            P.ReachableList.end());
    for (size_t I = 0; I < P.Nodes.size(); ++I) {
      const Partition::Desc &D = P.Descs[I];
      if (isPortal(D.Kind))
        continue; // Portals are routing state, not analysis facts.
      ++Result.SolverNodes;
      Partition::Node &N = P.Nodes[I];
      if (N.Set.empty())
        continue;
      std::vector<uint32_t> ObjList;
      ObjList.reserve(N.Set.size());
      N.Set.forEach([&ObjList](uint32_t Obj) { ObjList.push_back(Obj); });
      std::sort(ObjList.begin(), ObjList.end());
      if (D.Kind == PK::VarCtx) {
        Result.VarFacts.push_back(
            {VarId(D.A), CtxId(D.B), std::move(ObjList)});
      } else if (D.Kind == PK::FieldSlot) {
        Result.FieldFacts.push_back({D.A, FieldId(D.B), std::move(ObjList)});
      } else if (D.Kind == PK::StaticSlot) {
        Result.StaticFacts.push_back({FieldId(D.A), std::move(ObjList)});
      } else {
        Result.ThrowFacts.push_back(
            {MethodId(D.A), CtxId(D.B), std::move(ObjList)});
      }
    }
  }
  return Result;
}

AnalysisResult Engine::solve(unsigned Threads, SummaryStats *Stats) {
  Stopwatch Wall;
  CtxId Initial;
  {
    std::lock_guard<std::mutex> Lock(PolicyMu);
    Initial = Policy.initialContext();
  }

  // Seed: warm-start methods first, then entry points — same effective
  // reachable seeding as Solver::run (order is irrelevant to the
  // fixpoint; both are requests into the owners' inboxes).
  auto seed = [&](MethodId M, prov::Rule Why) {
    Msg Message;
    Message.Kind = MsgKind::Reach;
    Message.A = M.index();
    Message.B = Initial.index();
    if (PT_PROV_ACTIVE(Opts.Prov))
      Message.WhyRule = static_cast<uint8_t>(Why);
    post(partOfMethod(M), Message);
  };

  uint64_t PoolTasks = 0, Steals = 0, IdleBackoffs = 0;
  {
    std::optional<trace::TraceRecorder::Span> Sweep;
    if (Opts.Trace)
      Sweep.emplace(Opts.Trace, "sweep", "summary");
    if (Threads > 1) {
      ThreadPool WorkPool(Threads);
      Pool = &WorkPool;
      for (MethodId Seed : Opts.SeedReachable)
        seed(Seed, prov::Rule::Seed);
      for (MethodId Entry : Prog.entryPoints())
        seed(Entry, prov::Rule::Entry);
      {
        std::unique_lock<std::mutex> Lock(DoneMu);
        while (TasksInFlight.load(std::memory_order_acquire) != 0) {
          DoneCv.wait_for(Lock, std::chrono::milliseconds(25));
          Lock.unlock();
          maybeHeartbeat();
          Lock.lock();
        }
      }
      WorkPool.wait();
      ThreadPool::Stats PS = WorkPool.stats();
      PoolTasks = PS.Executed;
      Steals = PS.Stolen;
      IdleBackoffs = PS.IdleBackoffs;
      Pool = nullptr;
      // WorkPool joins its workers here, which also publishes every
      // partition's memory to this thread before harvest.
    } else {
      for (MethodId Seed : Opts.SeedReachable)
        seed(Seed, prov::Rule::Seed);
      for (MethodId Entry : Prog.entryPoints())
        seed(Entry, prov::Rule::Entry);
      while (!ReadyHeap.empty()) {
        uint32_t Part = ReadyHeap.top();
        ReadyHeap.pop();
        runTask(Part);
      }
    }
  }

  if (Opts.Trace) {
    std::lock_guard<std::mutex> Lock(HbMu);
    emitHeartbeatLocked(/*Final=*/true);
  }

  AnalysisResult Result = harvest();
  Result.SolveMs = Wall.elapsedMs();

  if (Stats) {
    Stats->NumSCCs = Cond.NumSCCs;
    for (uint32_t D : Cond.Depth)
      Stats->MaxDepth = std::max(Stats->MaxDepth, D);
    Stats->Threads = Threads;
    Stats->PoolTasks = PoolTasks;
    Stats->Steals = Steals;
    Stats->IdleBackoffs = IdleBackoffs;
    Stats->CrossMsgs = Result.Counters.CrossMsgs;
    Stats->SummaryHits = Result.Counters.SummaryHits;
    Stats->SummaryMisses = Result.Counters.SummaryMisses;
    Stats->SummaryInstantiations = Result.Counters.SummaryInstantiations;
    Stats->WallMs = Result.SolveMs;
    // Work/span over the SCC DAG: critical path accumulates busy time
    // along dependency chains (successors have smaller ids, so one
    // ascending pass sees every callee before its callers).
    std::vector<double> Chain(Cond.NumSCCs, 0.0);
    double TotalBusy = 0.0, Longest = 0.0;
    for (uint32_t S = 0; S < Cond.NumSCCs; ++S) {
      double BusyMs = static_cast<double>(Parts[S]->BusyUs.load(
                          std::memory_order_relaxed)) /
                      1000.0;
      TotalBusy += BusyMs;
      if (Parts[S]->Activations != 0)
        ++Stats->ActivatedSCCs;
      Stats->Activations += Parts[S]->Activations;
      double Deepest = 0.0;
      for (uint32_t T : Cond.Succs[S])
        Deepest = std::max(Deepest, Chain[T]);
      Chain[S] = BusyMs + Deepest;
      Longest = std::max(Longest, Chain[S]);
    }
    Stats->TotalBusyMs = TotalBusy;
    Stats->CriticalPathMs = Longest;
  }
  return Result;
}

} // namespace

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

AnalysisResult pt::summary::solveSummary(const Program &Prog,
                                         ContextPolicy &Policy,
                                         const SolverOptions &Opts,
                                         SummaryStats *Stats) {
  assert(Prog.isFinalized() && "solver needs a finalized program");
  unsigned Threads = ThreadPool::resolveThreads(Opts.SummaryThreads);

  if (Prog.numMethods() == 0) {
    AnalysisResult Empty(Prog, Policy);
    if (Stats)
      Stats->Threads = Threads;
    return Empty;
  }

  Stopwatch Wall;
  Condensation Cond;
  {
    std::optional<trace::TraceRecorder::Span> Span;
    if (Opts.Trace)
      Span.emplace(Opts.Trace, "condense", "summary");
    Cond = condenseProgram(Prog);
  }
  Engine E(Prog, Policy, Opts, std::move(Cond));
  AnalysisResult Result = E.solve(Threads, Stats);
  // Charge condensation to the cell like any other solve cost.
  Result.SolveMs = Wall.elapsedMs();
  if (Stats)
    Stats->WallMs = Result.SolveMs;
  return Result;
}

AnalysisResult pt::solveProgram(const Program &Prog, ContextPolicy &Policy,
                                const SolverOptions &Opts) {
  if (Opts.Engine == SolverEngine::Summary)
    return summary::solveSummary(Prog, Policy, Opts);
  Solver S(Prog, Policy, Opts);
  return S.run();
}
