//===- pta/Solver.h - Specialized points-to solver --------------*- C++ -*-===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hand-specialized fixpoint solver for the paper's nine analysis rules
/// (Figure 2): subset-based, flow-insensitive, field-sensitive points-to
/// analysis with on-the-fly call-graph construction, parameterized by a
/// \c ContextPolicy.
///
/// Algorithm: difference propagation over a growing copy-edge graph.
/// Nodes are interned (variable, context) pairs plus (object, field) slots;
/// points-to facts are dense (heap, heap-context) object ids.  Analyzing a
/// newly reachable (method, context) instantiates the method's instruction
/// bag: allocations seed facts (via RECORD), moves/casts add edges, calls
/// add inter-procedural edges (via MERGE / MERGESTATIC), and loads, stores
/// and virtual calls subscribe to their base variable's node so that each
/// newly observed receiver object extends the graph.  This is the standard
/// explicit counterpart of semi-naive Datalog evaluation and computes
/// exactly the model of the paper's rules (differentially tested against
/// the Datalog transcription in src/ptaref).
///
/// Data structures are specialized for the hot paths: per-node points-to
/// sets are hybrid inline-vector/bitmap \c ObjectSet (append-only, so
/// replay walks by position instead of copying a snapshot, and the
/// difference-propagation delta is just a cursor), and every intern table
/// and dedup set is a flat robin-hood \c FlatMap / \c FlatSet.
///
/// Provenance is positional.  Each fact is concluded once, where
/// \c addFact first inserts it, so its arena id is appended right there
/// into a per-node array parallel to the set's insertion order; premises
/// are read back by position (replay index or delta cursor), and each
/// edge's justification is stored parallel to the edge itself.  No fact
/// is ever looked up by value.
///
/// Frames and lazy throw slots.  Every reachable (method, context) pair is
/// a frame, numbered by its position in the reachable list; the frame id
/// is what \c ensureReachable returns.  Most frames never let an exception
/// escape, so a frame's throw slot (METHODTHROWS) is created only when the
/// first uncaught object reaches it in \c routeThrow.  Until then, a call
/// edge into the frame only appends its index to the frame's pending
/// chain (a head and a tail per frame, one link per call edge); creating
/// the slot turns the chain, in order, into escalation links.  The slot is
/// empty at that moment, so nothing replays, and every later call edge
/// links eagerly.  Links, facts and derivations come out in the same
/// order as if every frame got its slot with its first call edge.
/// Harvest emits method-throws facts by each frame's sequence stamp,
/// taken when the frame first gets an incoming call edge or an uncaught
/// object: the slot order of that eager design.
///
//===----------------------------------------------------------------------===//

#ifndef HYBRIDPT_PTA_SOLVER_H
#define HYBRIDPT_PTA_SOLVER_H

#include "pta/AnalysisResult.h"
#include "pta/provenance/Provenance.h"
#include "support/Cancel.h"
#include "support/FaultPlan.h"
#include "support/FlatMap.h"
#include "support/Ids.h"
#include "support/ObjectSet.h"
#include "support/Telemetry.h"
#include "support/Timer.h"

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

namespace pt {

class Program;
class ContextPolicy;
struct CutShortcutPlan;

namespace trace {
class TraceRecorder;
}

/// Which fixpoint engine solves the cell.  Both engines compute the same
/// least fixpoint and produce identical \c AnalysisResult exports (the
/// equivalence tests assert bit-identity); they differ only in schedule.
enum class SolverEngine : uint8_t {
  /// The whole-program difference-propagation worklist (this file).
  Worklist,
  /// The compositional bottom-up SCC solver (pta/summary/): the
  /// context-insensitive call graph is condensed, each SCC is solved as a
  /// partition with memoized (method, context) summaries, and independent
  /// SCCs run concurrently on a work-stealing pool.
  Summary,
};

/// "worklist" / "summary".
const char *solverEngineName(SolverEngine E);

/// Parses an engine name; false on unknown names (\p Out untouched).
bool parseSolverEngine(std::string_view Name, SolverEngine &Out);

/// Resource budgets and observability hooks for one solver run.
struct SolverOptions {
  /// Wall-clock budget in milliseconds; 0 = unlimited.  Expired runs return
  /// with \c AnalysisResult::Aborted set (the paper's dash entries).
  uint64_t TimeBudgetMs = 0;
  /// Maximum number of points-to facts; 0 = unlimited.
  uint64_t MaxFacts = 0;
  /// Hard cap on the solver's persistent container bytes (the same
  /// accounting as \c AnalysisResult::PeakBytes); 0 = unlimited.  Polled
  /// amortized (every ~8K budget ticks, since the walk is O(nodes)), so a
  /// run may overshoot by one polling interval before aborting with
  /// \c AbortReason::MemoryBudget.
  uint64_t MemoryBudgetBytes = 0;
  /// Cooperative cancellation (SIGINT / process deadline); nullptr = none.
  /// A tripped token yields a clean \c AbortReason::Cancelled result with
  /// flushed heartbeats instead of a killed process.
  const CancelToken *Cancel = nullptr;
  /// Deterministic fault injection (docs/ROBUSTNESS.md).  An empty plan
  /// falls back to the HYBRIDPT_FAULT_PLAN / HYBRIDPT_TEST_BREAK
  /// environment plan at construction.
  FaultPlan Faults;
  /// Warm-start seeds: methods marked reachable in the policy's initial
  /// context before the entry points, used by the fallback ladder to reuse
  /// an aborted finer run's reachable set.  Sound only when every seed is
  /// reachable in this run's own fixpoint (e.g. context-insensitive rungs
  /// seeded from any finer partial run); then the least fixpoint — and so
  /// every precision metric — is unchanged, only convergence is faster.
  std::vector<MethodId> SeedReachable;
  /// Heartbeat/trace sink; nullptr disables all sampling.
  trace::TraceRecorder *Trace = nullptr;
  /// Label stamped on this run's heartbeats, e.g. "luindex/2obj+H".
  std::string TraceLabel;
  /// Emit a heartbeat every this many worklist steps (0 = never by steps).
  uint64_t HeartbeatSteps = 65536;
  /// ...or whenever this many milliseconds passed since the last one
  /// (polled every 1024 steps; 0 = never by time).
  uint64_t HeartbeatMs = 250;
  /// Derivation-provenance recorder (docs/OBSERVABILITY.md): when non-null
  /// and the build compiles HYBRIDPT_PROVENANCE in, every derived fact gets
  /// a step naming the Figure-2 rule and premise facts.  The arena's bytes
  /// count against \c MemoryBudgetBytes.  Null keeps every hook a dead
  /// single-pointer test.
  prov::Recorder *Prov = nullptr;
  /// Which engine solves the cell (see \c SolverEngine).
  SolverEngine Engine = SolverEngine::Worklist;
  /// Worker threads for \c SolverEngine::Summary (ignored by the
  /// worklist engine).  1 = deterministic inline sweep without a pool;
  /// 0 = one worker per hardware thread.  The result is bit-identical at
  /// every thread count either way.
  unsigned SummaryThreads = 1;
};

/// Solves \p Prog under \p Policy with the engine selected by
/// \p Opts.Engine — the single entry point harnesses should use, so a
/// cell's engine is a run-time knob exactly like its budgets.  Defined in
/// summary/SummarySolver.cpp.
AnalysisResult solveProgram(const Program &Prog, ContextPolicy &Policy,
                            const SolverOptions &Opts = {});

/// One-shot solver: construct, \c run(), discard.
class Solver {
public:
  Solver(const Program &Prog, ContextPolicy &Policy, SolverOptions Opts = {});

  /// Runs to fixpoint (or budget exhaustion) and returns the result
  /// relations.  May be called once.
  AnalysisResult run();

private:
  // --- Node space ---

  enum class NodeKind : uint8_t {
    VarCtx,
    FieldSlot,
    StaticSlot,
    /// The set of exception objects escaping a (method, context) —
    /// METHODTHROWS in the reference rules.
    ThrowSlot,
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
  struct CastEdge {
    uint32_t ToNode;
    TypeId Filter;
  };

  struct Node {
    /// The points-to set.  Append-only insertion order makes positions
    /// stable, so the pending delta is just the suffix [Scanned, size()).
    ObjectSet Set;
    /// Facts [0, Scanned) have been propagated to all subscriptions.
    uint32_t Scanned = 0;
    std::vector<uint32_t> Edges;
    std::vector<CastEdge> CastEdges;
    std::vector<LoadSub> Loads;
    std::vector<StoreSub> Stores;
    std::vector<DispatchSub> Dispatches;
    /// On a thrown-var node: packed (method, ctx) pairs to route arriving
    /// objects through (the raising frames).
    std::vector<uint64_t> ThrowSubs;
    /// On a ThrowSlot node: packed (callerMethod, callerCtx) pairs the
    /// escaping objects escalate into, in call-edge order.
    std::vector<uint64_t> ThrowLinks;
    bool Queued = false;
  };

  struct NodeDesc {
    NodeKind Kind;
    uint32_t A; ///< VarId index or dense object id.
    uint32_t B; ///< CtxId index or FieldId index.
  };

  uint32_t varNode(VarId V, CtxId Ctx);
  uint32_t fieldNode(uint32_t Obj, FieldId Fld);
  uint32_t staticNode(FieldId Fld);
  uint32_t internObject(HeapId Heap, HCtxId HCtx);

  /// The throw slot of frame \p F (stamping the frame), created when
  /// first asked for: the frame's pending call edges then become its
  /// escalation links, in order.
  uint32_t throwSlot(uint32_t F);

  /// Takes frame \p F's harvest sequence stamp unless it has one.
  void stampThrowSeq(uint32_t F) {
    if (Frames[F].ThrowSeq == NoIndex)
      Frames[F].ThrowSeq = NextThrowSeq++;
  }

  /// Delivers an exception object raised in or escalated into
  /// (\p M, \p Ctx): binds matching handlers or escapes to the method's
  /// throw slot.  \p WhyPrem / \p WhyAux are the provenance premises: the
  /// thrown-var (or callee-throw-slot) fact, plus the call edge when the
  /// object is escalating (a valid aux selects the Escalate rule variants).
  void routeThrow(uint32_t Obj, MethodId M, CtxId Ctx, uint32_t WhyPrem,
                  uint32_t WhyAux = prov::InvalidFact);

  /// Adds an escalation link callee-throw-slot -> caller frame, replaying
  /// existing facts.  \p WhyAux is the provenance call-edge fact.
  void addThrowLink(uint32_t ThrowNodeIdx, MethodId CallerM, CtxId CallerCtx,
                    uint32_t WhyAux);

  // --- Fact and edge insertion (all idempotent) ---

  /// Why an edge's propagations hold: the rule they conclude with and
  /// the auxiliary premise fact (the Reachable or call-edge fact, or the
  /// base-object fact of a load/store).  The other premise is the source
  /// fact being propagated.
  struct EdgeWhy {
    uint32_t Aux;
    prov::Rule Why;
  };

  /// Returns true when the fact was newly inserted; a provenance run then
  /// records it with \c concludeFact in the same statement.
  bool addFact(uint32_t NodeIdx, uint32_t Obj);
  /// \p W justifies the edge's propagations when the run records
  /// provenance; it is stored only if the edge is new.
  void addEdge(uint32_t From, uint32_t To, EdgeWhy W);
  void addCastEdge(uint32_t From, uint32_t To, TypeId Filter, EdgeWhy W);

  /// Cast-edge filter predicate.  A valid \p Filter admits subtypes of the
  /// target type; an invalid one marks a sanitize edge and admits only
  /// objects whose allocation site carries no taint tag.
  bool passesCastFilter(uint32_t Obj, TypeId Filter) const;

  /// REACHABLE(M, Ctx): instantiates the method body on first sight.
  /// \p Why / \p WhyPrem describe how reachability was derived (entry
  /// point, ladder seed, or a call edge) for the provenance arena.
  /// Returns the frame id, or \c NoIndex when an aborted run meets a new
  /// frame.
  uint32_t ensureReachable(MethodId M, CtxId Ctx,
                           prov::Rule Why = prov::Rule::Entry,
                           uint32_t WhyPrem = prov::InvalidFact);

  /// Handles one receiver object arriving at a virtual call's base node.
  /// \p ObjFact is the receiver's VarPointsTo fact id (provenance runs).
  void dispatch(const DispatchSub &Sub, uint32_t Obj, uint32_t ObjFact);

  /// Wires argument/return edges for a discovered call-graph edge.
  /// \p CallWhy is VCall or SCall; \p CallPrem the premise fact (receiver
  /// VarPointsTo resp. caller Reachable).  \p CEFact is the call-edge fact
  /// id \c dispatch reserved, or \c InvalidFact to append it on insertion.
  void wireCall(InvokeId Invo, CtxId CallerCtx, MethodId Callee,
                CtxId CalleeCtx, prov::Rule CallWhy, uint32_t CallPrem,
                uint32_t CEFact = prov::InvalidFact);

  // --- Provenance hooks (single dead pointer test when Prov is null) ---

  /// True when this run records derivations.
  bool provOn() const { return PT_PROV_ACTIVE(Opts.Prov); }

  /// Records the fact (\p NodeIdx, \p Obj) that \c addFact just inserted,
  /// concluded by \p Why from \p P0 / \p P1, and files its id at the
  /// object's set position.
  void concludeFact(uint32_t NodeIdx, uint32_t Obj, prov::Rule Why,
                    uint32_t P0, uint32_t P1 = prov::InvalidFact);

  /// Appends a node of \p Kind (and its provenance slot) and returns it.
  uint32_t newNode(NodeKind Kind, uint32_t A, uint32_t B);

  /// Index of \p E in \c CallEdges, or UINT32_MAX when absent.
  uint32_t findCallEdge(const CallGraphEdge &E) const;

  /// Appends \p E to the call graph unless present; exact tuple dedup via
  /// a hash-headed chain over \c CallEdges (no separate key copies).
  bool insertCallEdge(const CallGraphEdge &E);

  /// Stops the run: records the reason (first one wins) and whether the
  /// fault-injection plan staged it.
  void abortRun(AbortReason Why, bool Injected = false) {
    if (Aborted)
      return;
    Aborted = true;
    Reason = Why;
    FaultInjected = Injected;
  }

  /// Amortized guard poll used from the inner dispatch/routeThrow/delta
  /// loops; aborts once the wall-clock budget expires, the cancel token
  /// trips, or (every eighth poll, the walk being O(nodes)) the memory
  /// budget is exceeded.
  bool checkBudget() {
    if (!Aborted && (++BudgetTick & 0x3ff) == 0)
      pollGuards();
    return Aborted;
  }

  /// The slow path of \c checkBudget.
  void pollGuards();

  /// Per-worklist-step fault-plan poll (called only when a step fault is
  /// armed): trips cancellation or simulated OOM at the exact step.
  void pollStepFaults();

  /// Stalls ~50us when the fault plan targets \p Rule; called from the
  /// rule sites behind a single member-bool guard.
  void slowRule(FaultRule Rule) {
    if (SlowRuleArmed && Opts.Faults.SlowRule == Rule)
      stallForFault();
  }
  void stallForFault();

  void drainWorklist();
  void processDelta(uint32_t NodeIdx);

  /// Bytes held by all persistent solver containers (sets, intern tables,
  /// dedup structures, call graph).  Everything measured only grows, so
  /// sampling at any point is a monotone lower bound and the harvest-time
  /// value is the peak.  The transient worklist is deliberately excluded:
  /// its depth depends on sampling moment, and PeakBytes must be
  /// deterministic across runs and thread counts.
  size_t memoryBytes() const;

  /// Records a heartbeat on \c Opts.Trace (caller checks it is non-null).
  void emitHeartbeat(bool Final);

  /// Amortized heartbeat poll, called once per worklist step.
  void pollHeartbeat() {
    if (!Opts.Trace)
      return;
    ++StepsSinceBeat;
    bool Due =
        Opts.HeartbeatSteps != 0 && StepsSinceBeat >= Opts.HeartbeatSteps;
    if (!Due && Opts.HeartbeatMs != 0 && (StepsSinceBeat & 0x3ff) == 0)
      Due = BeatWatch.elapsedMs() >= static_cast<double>(Opts.HeartbeatMs);
    if (Due)
      emitHeartbeat(false);
  }

  AnalysisResult harvest();

  const Program &Prog;
  ContextPolicy &Policy;
  /// Null unless the policy is a cut-shortcut family member
  /// (context/CutShortcut.h): planned store/return flows are cut and
  /// per-call-edge shortcut edges wired in dispatch()/wireCall().
  const CutShortcutPlan *CutPlan = nullptr;
  SolverOptions Opts;
  Deadline Budget;

  std::vector<Node> Nodes;
  std::vector<NodeDesc> Descs;
  FlatMap<uint32_t> VarCtxIndex;    ///< packPair(var, ctx) -> node
  FlatMap<uint32_t> FieldSlotIndex; ///< packPair(obj, fld) -> node
  FlatMap<uint32_t> StaticSlotIndex; ///< fld -> node
  FlatSet ThrowLinkDedup;           ///< hash of (node, link)

  std::vector<HeapId> ObjHeaps;
  std::vector<HCtxId> ObjHCtxs;
  FlatMap<uint32_t> ObjIndex; ///< packPair(heap, hctx) -> dense object

  static constexpr uint32_t NoIndex = UINT32_MAX;

  FlatMap<uint32_t> FrameIndex; ///< packPair(method, ctx) -> frame id
  /// The frames in reachability order; a frame id indexes it.
  std::vector<std::pair<MethodId, CtxId>> ReachableList;

  /// Per-frame exception state, parallel to \c ReachableList.
  struct Frame {
    /// The throw slot node, or \c NoIndex until something escapes.
    uint32_t ThrowNode = NoIndex;
    /// Call edges into the frame waiting for its slot: the first and last
    /// \c CallEdges index, chained through \c PendingNext.
    uint32_t PendingHead = NoIndex;
    uint32_t PendingTail = NoIndex;
    /// Harvest order of the frame's method-throws facts.
    uint32_t ThrowSeq = NoIndex;
  };
  std::vector<Frame> Frames;
  uint32_t NextThrowSeq = 0;

  /// Call-graph dedup: tuple hash -> head index into \c CallEdges, with
  /// per-edge chain links for exactness under hash collisions.
  FlatMap<uint32_t> CallEdgeHead;
  std::vector<uint32_t> CallEdgeNext;
  std::vector<CallGraphEdge> CallEdges;
  /// Per call edge: the next edge on its callee frame's pending chain.
  std::vector<uint32_t> PendingNext;

  FlatSet EdgeDedup; ///< packPair(from, to)

  /// A node's provenance ids, kept outside \c Node so bare runs do not
  /// grow: every array is parallel to the node's namesake.
  struct ProvNode {
    /// Fact id of each \c Set member, in insertion order.
    std::vector<uint32_t> FactIds;
    std::vector<EdgeWhy> EdgeWhys;     ///< Parallel to \c Edges.
    std::vector<EdgeWhy> CastEdgeWhys; ///< Parallel to \c CastEdges.
    /// Call-edge fact of each \c ThrowLinks entry.
    std::vector<uint32_t> ThrowLinkWhys;
  };
  /// Parallel to \c Nodes in provenance runs, empty otherwise.
  std::vector<ProvNode> ProvNodes;
  /// Call-edge fact id of each \c CallEdges entry (provenance runs).
  std::vector<uint32_t> CallEdgeFacts;

  std::deque<uint32_t> Worklist;
  uint64_t FactCount = 0;
  uint32_t BudgetTick = 0;
  uint32_t MemPollTick = 0;
  bool Aborted = false;
  bool HasRun = false;

  AbortReason Reason = AbortReason::None;
  bool FaultInjected = false;

  /// Worklist steps taken so far.  Counted unconditionally (unlike the
  /// telemetry counters, which are all-zero without HYBRIDPT_TELEMETRY)
  /// because the fault plan's *-at-step directives and the heartbeat Step
  /// field must be deterministic in every build.
  uint64_t StepCount = 0;

  /// Cached \c Opts.Faults dispositions, hoisted out of the hot loops.
  bool StepFaultArmed = false;
  bool SlowRuleArmed = false;

  /// Per-solver telemetry — never shared, so runs are bit-identical at any
  /// thread count.  All-zero when HYBRIDPT_TELEMETRY is off.
  telemetry::SolverCounters Counters;
  telemetry::SolverCounters LastBeat; ///< Snapshot at the last heartbeat.
  uint64_t StepsSinceBeat = 0;
  Stopwatch BeatWatch;
};

} // namespace pt

#endif // HYBRIDPT_PTA_SOLVER_H
