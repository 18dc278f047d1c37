//===- pta/provenance/Provenance.h - Derivation provenance ------*- C++ -*-===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-fact derivation provenance: when a run carries a \c Recorder, the
/// solver appends one 16-byte \c Step per derived fact naming the
/// Figure-2 rule that fired and the (at most two) premise facts it
/// consumed.  Facts live in an append-only arena of dense ids, so a
/// derivation is a DAG over fact ids and "why does v point to h?" is a
/// backward BFS from the conclusion (\c whyPointsTo).
///
/// The solver concludes every fact exactly once, where it first derives
/// it, and keeps each fact's id next to the data it describes (a per-node
/// array parallel to the points-to set, justifications parallel to the
/// edges), so it appends with \c appendFact and never looks a fact up by
/// value.
///
/// Discipline mirrors support/Telemetry.h: a null recorder pointer makes
/// every hook a single-pointer test, and the \c HYBRIDPT_PROVENANCE CMake
/// toggle (default ON) compiles the hooks out entirely — the hot loop pays
/// nothing for a debug knob it does not use.  The arena's bytes are
/// reported through \c memoryBytes() and count against
/// \c SolverOptions::MemoryBudgetBytes like any other solver container.
///
/// Derivations are *valid*: every step re-checks against the rule side
/// conditions (see Validate).  docs/OBSERVABILITY.md has the query
/// grammar and the cost model.
///
//===----------------------------------------------------------------------===//

#ifndef HYBRIDPT_PTA_PROVENANCE_PROVENANCE_H
#define HYBRIDPT_PTA_PROVENANCE_PROVENANCE_H

#include "support/Ids.h"

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

// Compile-time toggle, same contract as HYBRIDPT_TELEMETRY: the build
// defines HYBRIDPT_PROVENANCE=0/1 (CMake option, default ON); undefined
// means a non-CMake consumer and defaults to enabled.
#if !defined(HYBRIDPT_PROVENANCE) || HYBRIDPT_PROVENANCE
#define HYBRIDPT_PROVENANCE_ENABLED 1
#else
#define HYBRIDPT_PROVENANCE_ENABLED 0
#endif

// Guard for every recording site: one pointer test when compiled in,
// constant-false (dead-code eliminated) when compiled out.
#if HYBRIDPT_PROVENANCE_ENABLED
#define PT_PROV_ACTIVE(P) ((P) != nullptr)
#else
#define PT_PROV_ACTIVE(P) (false)
#endif

namespace pt {

class AnalysisResult;
class ContextPolicy;
class Program;

namespace prov {

/// Sentinel fact id: "no premise" / "not found".
inline constexpr uint32_t InvalidFact = UINT32_MAX;

/// The six derived-fact relations (paper Figure 1 outputs plus the
/// Doop-style METHODTHROWS extension).  Payload packing (see \c Fact):
///   VarPointsTo    A = packPair(var, ctx)          B = obj
///   FieldPointsTo  A = packPair(baseObj, fld)      B = obj
///   StaticPointsTo A = fld                         B = obj
///   ThrowPointsTo  A = packPair(method, ctx)       B = obj
///   Reachable      A = packPair(method, ctx)       B = 0
///   CallEdge       A = packPair(invo, callerCtx)   B via extra word: the
///                  callee/calleeCtx pair is stored packed in B64 (below).
/// Object ids are the run's dense (heap, hctx) ids — identical to the ids
/// in the run's \c AnalysisResult object tables.
enum class FactKind : uint8_t {
  VarPointsTo,
  FieldPointsTo,
  StaticPointsTo,
  ThrowPointsTo,
  Reachable,
  CallEdge,
};

const char *factKindName(FactKind K);

/// Figure-2 rule instances as recorded, one per derivation shape.  The ten
/// telemetry counters are coarser; provenance splits MERGE into its edge
/// consequences (this/param/return binding) and THROW into its four
/// raise/catch/escalate outcomes so each step is independently checkable.
enum class Rule : uint8_t {
  Entry,         ///< Reachable(entry, initialCtx), no premise.
  Seed,          ///< Reachable via warm-start ladder seed, no premise.
  ReachCall,     ///< Reachable(callee, ctx) <- CallEdge.
  Alloc,         ///< VPT(var, ctx, obj) <- Reachable(m, ctx)   [RECORD]
  Move,          ///< VPT(to, ctx, o) <- VPT(from, ctx, o) [+Reachable]
  Cast,          ///< Move filtered by subtype(type(o), target).
  Load,          ///< VPT(to, ctx, o2) <- FPT(bo, f, o2) + VPT(base, ctx, bo)
  Store,         ///< FPT(bo, f, o2) <- VPT(from, ctx, o2) + VPT(base, ctx, bo)
  StaticLoad,    ///< VPT(to, ctx, o) <- SPT(f, o) [+Reachable]
  StaticStore,   ///< SPT(f, o) <- VPT(from, ctx, o) [+Reachable]
  VCall,         ///< CallEdge <- VPT(base, ctx, recv)          [MERGE]
  SCall,         ///< CallEdge <- Reachable(caller, ctx)  [MERGESTATIC]
  ThisBind,      ///< VPT(this, calleeCtx, recv) <- VPT(base,..) + CallEdge
  ParamBind,     ///< VPT(formal, calleeCtx, o) <- VPT(actual,..) + CallEdge
  ReturnBind,    ///< VPT(retTo, callerCtx, o) <- VPT(ret,..) + CallEdge
  ThrowRaise,    ///< TPT(m, ctx, o) <- VPT(v, ctx, o), uncaught in m.
  CatchBind,     ///< VPT(hvar, ctx, o) <- VPT(v, ctx, o), handler matches.
  ThrowEscalate, ///< TPT(caller,..) <- TPT(callee,..) + CallEdge, uncaught.
  CatchEscalate, ///< VPT(hvar,..) <- TPT(callee,..) + CallEdge, caught.
  // Cut-shortcut derivations (context/CutShortcut.h): per-call-edge
  // shortcut edges replacing cut store/return flows.
  ShortcutStore,    ///< FPT(recv, f, o) <- VPT(actual,..) + CallEdge.
  ShortcutRetArg,   ///< VPT(retTo,.., o) <- VPT(actual,..) + CallEdge.
  ShortcutRetLoad,  ///< VPT(retTo,.., o) <- FPT(recv, f, o) + CallEdge.
  ShortcutRetAlloc, ///< VPT(retTo,.., (h, RECORD)) <- CallEdge.
  Sanitize,         ///< Move filtered by TaintTag(site(o)) == 0.
  NumRules,
};

const char *ruleName(Rule R);

inline constexpr size_t numRules() { return static_cast<size_t>(Rule::NumRules); }

/// One recorded fact.  \c B64 widens the payload for CallEdge (which needs
/// four words); every other kind stores its object id there.
struct Fact {
  uint64_t A = 0;
  uint64_t B64 = 0;
  FactKind Kind = FactKind::VarPointsTo;
};

/// One derivation step: 16 bytes.  \c RuleWord packs the rule in the low 8
/// bits (high bits reserved).  \c Prem1 is \c InvalidFact for one-premise
/// rules; \c Prem0 too for axioms (Entry/Seed).
struct Step {
  uint32_t Target;
  uint32_t Prem0;
  uint32_t Prem1;
  uint32_t RuleWord;

  Rule rule() const { return static_cast<Rule>(RuleWord & 0xff); }
};
static_assert(sizeof(Step) == 16, "derivation steps must stay compact");

/// Append-only derivation arena of one solver run.  Single-writer, like
/// \c Solver itself: the solver that owns the run appends, and every read
/// happens on that thread or after the run returns.  Share a recorder
/// between concurrent runs and the arena is corrupt.
class Recorder {
public:
  Recorder() = default;
  Recorder(const Recorder &) = delete;
  Recorder &operator=(const Recorder &) = delete;

  /// Appends a fact the caller knows is new together with the step that
  /// concludes it, without touching the hash index.  Returns the new fact
  /// id.
  uint32_t appendFact(FactKind Kind, uint64_t A, uint64_t B64, Rule R,
                      uint32_t P0 = InvalidFact, uint32_t P1 = InvalidFact) {
    uint32_t Id = reserveFact(Kind, A, B64);
    step(Id, R, P0, P1);
    return Id;
  }

  /// Appends a fact the caller knows is new, without a step: for a fact
  /// cited as a premise before its own step is recorded with \c step().
  uint32_t reserveFact(FactKind Kind, uint64_t A, uint64_t B64) {
    uint32_t Id = static_cast<uint32_t>(Facts.size());
    Facts.push_back(FactRec{A, B64, UINT32_MAX, Kind});
    return Id;
  }

  /// Appends one derivation step concluding \p Target.
  void step(uint32_t Target, Rule R, uint32_t P0 = InvalidFact,
            uint32_t P1 = InvalidFact) {
    assert(Target < Facts.size() && "step targets an unrecorded fact");
    uint32_t Idx = static_cast<uint32_t>(Steps.size());
    Steps.push_back(Step{Target, P0, P1, static_cast<uint32_t>(R)});
    if (Facts[Target].FirstStep == UINT32_MAX)
      Facts[Target].FirstStep = Idx;
  }

  /// Drops every fact and step.  Fact payloads embed per-run dense object
  /// ids, so a recorder reused across runs (ladder rungs, bench
  /// repetitions) must be cleared between them — mixed runs would produce
  /// derivations citing objects from a different result's tables.
  void clear();

  size_t numFacts() const { return Facts.size(); }
  size_t numSteps() const { return Steps.size(); }
  Fact fact(uint32_t Id) const {
    const FactRec &F = Facts[Id];
    return Fact{F.A, F.B64, F.Kind};
  }
  Step stepAt(size_t Idx) const { return Steps[Idx]; }

  /// The index of the lowest-indexed step concluding \p FactId, or
  /// UINT32_MAX when the fact has no step (yet).
  uint32_t firstStepOf(uint32_t FactId) const {
    return Facts[FactId].FirstStep;
  }

  /// Calls \p Fn(Id, Fact) for every fact in ascending id order; \p Fn
  /// returns false to stop early.
  template <typename Callback> void scanFacts(Callback &&Fn) const {
    for (size_t I = 0; I != Facts.size(); ++I)
      if (!Fn(static_cast<uint32_t>(I), fact(static_cast<uint32_t>(I))))
        return;
  }

  /// Arena bytes (facts + steps).
  size_t memoryBytes() const {
    return Facts.capacity() * sizeof(FactRec) +
           Steps.capacity() * sizeof(Step);
  }

private:
  struct FactRec {
    uint64_t A;
    uint64_t B64;
    uint32_t FirstStep;
    FactKind Kind;
  };

  std::vector<FactRec> Facts;
  std::vector<Step> Steps;
};

// --- Query API --------------------------------------------------------------

/// One node of a rendered derivation tree.
struct TreeStep {
  uint32_t FactId = InvalidFact;
  uint32_t StepIdx = UINT32_MAX; ///< Index into the arena's step stream.
  Rule R = Rule::Entry;
  uint32_t Prem0 = InvalidFact;
  uint32_t Prem1 = InvalidFact;
  uint32_t Depth = 0; ///< Distance from the root conclusion.
};

/// A minimal derivation of one conclusion: the backward-BFS closure of the
/// root's first-recorded step, premises before conclusions.
struct DerivationTree {
  bool Found = false;
  uint32_t Root = InvalidFact;
  /// Steps in leaves-first (topological) order; the root's step is last.
  std::vector<TreeStep> Steps;
  std::string Error; ///< Why Found is false ("no such fact", ...).
};

/// Minimal derivation of \p FactId via backward BFS over first steps.
/// Costs O(tree): the walk touches only the facts it emits, never the
/// whole arena, so many derivations over one arena stay linear in their
/// combined size.
DerivationTree deriveFact(const Recorder &R, uint32_t FactId);

/// Why does (\p V, \p Ctx) point to an object allocated at \p Heap?  Scans
/// the interned VarPointsTo facts for the first matching (any heap context)
/// and derives it.  \p Ctx may be invalid to accept any context.  One query
/// costs a pass over the arena; batch many anchors the way
/// checks::attachDerivationFlows does.
DerivationTree whyPointsTo(const Recorder &R, const AnalysisResult &Res,
                           VarId V, CtxId Ctx, HeapId Heap);

/// One attribution row of a blame profile.
struct BlameRow {
  std::string Key;
  uint64_t Steps = 0;
  uint64_t Bytes = 0; ///< Steps * sizeof(Step): arena bytes attributed.
};

/// Cost attribution over the whole arena: derivation-step counts bucketed
/// by rule, conclusion method, conclusion allocation site, and method-
/// context depth, each truncated to the top \p TopK rows (descending).
struct BlameReport {
  std::vector<BlameRow> ByRule;
  std::vector<BlameRow> ByMethod;
  std::vector<BlameRow> ByAllocSite;
  std::vector<BlameRow> ByCtxDepth;
  uint64_t TotalSteps = 0;
  uint64_t TotalFacts = 0;
  uint64_t ArenaBytes = 0;
};

BlameReport blame(const Recorder &R, const AnalysisResult &Res, size_t TopK);

// --- Validation (Validate.cpp) ----------------------------------------------

/// Outcome of re-checking derivation steps against the Figure-2 side
/// conditions.
struct ValidationResult {
  bool Ok = true;
  size_t CheckedSteps = 0;
  std::string Error; ///< First failing step, human-readable.
};

/// Re-checks every step of \p Tree: premises structurally consistent with
/// the conclusion, a witnessing instruction exists in the program, type
/// filters hold.  When \p Policy is non-null the context side conditions
/// (RECORD / MERGE / MERGESTATIC outputs) are re-computed and compared too.
ValidationResult validateTree(const Recorder &R, const AnalysisResult &Res,
                              const DerivationTree &Tree,
                              ContextPolicy *Policy = nullptr);

/// Replays every \p Stride-th step of the whole arena through the step
/// checker (stride 1 = all).  The fuzz axis drives this.
ValidationResult validateSampledSteps(const Recorder &R,
                                      const AnalysisResult &Res,
                                      ContextPolicy *Policy, size_t Stride);

// --- Rendering (Render.cpp) -------------------------------------------------

/// Renders one fact as human-readable text, e.g.
/// "VarPointsTo(main::x, [], new A@main/3)".
std::string formatFact(const Recorder &R, const AnalysisResult &Res,
                       uint32_t FactId);

/// Multi-line indented text rendering of a derivation tree.
std::string renderTreeText(const Recorder &R, const AnalysisResult &Res,
                           const DerivationTree &Tree);

/// JSON object {"found":..,"root":..,"steps":[...]}.
std::string renderTreeJson(const Recorder &R, const AnalysisResult &Res,
                           const DerivationTree &Tree);

/// Graphviz digraph of the derivation DAG (facts as nodes, steps as edges
/// labeled with their rule), same dialect as pta/DotExport.
std::string renderTreeDot(const Recorder &R, const AnalysisResult &Res,
                          const DerivationTree &Tree);

/// JSON object for one cell's blame profile (see docs/OBSERVABILITY.md for
/// the schema rendered by tools/trace_summary.py).
std::string renderBlameJson(const BlameReport &B);

} // namespace prov
} // namespace pt

#endif // HYBRIDPT_PTA_PROVENANCE_PROVENANCE_H
