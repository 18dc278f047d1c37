//===- ptaref/ReferenceAnalysis.h - Figure 2 as Datalog ---------*- C++ -*-===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's analysis, transcribed rule-for-rule (Figure 2) onto the
/// generic Datalog engine, with the context constructor functions RECORD /
/// MERGE / MERGESTATIC supplied as external functors by a \c ContextPolicy.
///
/// This is the executable reference model: slower than the specialized
/// solver in src/pta but directly auditable against the paper.  The
/// differential tests require both to compute identical relations for
/// every policy.
///
//===----------------------------------------------------------------------===//

#ifndef HYBRIDPT_PTAREF_REFERENCEANALYSIS_H
#define HYBRIDPT_PTAREF_REFERENCEANALYSIS_H

#include "datalog/Engine.h"
#include "support/Rules.h"

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

namespace pt {

class Program;
class ContextPolicy;

/// Runs the Datalog transcription of the analysis over one program under
/// one policy.
class ReferenceAnalysis {
public:
  /// Borrows both arguments; they must outlive the analysis.
  ReferenceAnalysis(const Program &Prog, ContextPolicy &Policy);

  /// Runs to fixpoint.  Returns false when a budget aborted the run.
  bool run(const dl::EngineOptions &Opts = {});

  /// One Datalog rule of the transcription and the list rule
  /// (support/Rules.h) it mirrors; \c Of is empty for an intermediate
  /// rule, one that only derives or projects a staging relation.
  struct RuleMirror {
    std::string Name;
    std::optional<Rule> Of;
  };

  /// Every rule the transcription added, in order, with its mirror.
  const std::vector<RuleMirror> &ruleMirrors() const { return Mirrors; }

  /// The engine holding the transcription: its rules parallel
  /// \c ruleMirrors().  The step validator (ptaref/Validate.h) settles
  /// the loaded input relations and checks single rule applications
  /// against them instead of calling \c run.
  dl::Engine &engine() { return Engine; }

  // --- Canonical exports (same row format as AnalysisResult) ---

  std::vector<std::vector<uint32_t>> exportVarPointsTo() const;
  std::vector<std::vector<uint32_t>> exportCallGraph() const;
  std::vector<std::vector<uint32_t>> exportFieldPointsTo() const;
  std::vector<std::vector<uint32_t>> exportReachable() const;
  std::vector<std::vector<uint32_t>> exportStaticFieldPointsTo() const;
  std::vector<std::vector<uint32_t>> exportThrowPointsTo() const;

  // --- Context-insensitive projections (differential fuzzing oracle) ---
  //
  // Context columns dropped, raw entity indices.  Plain std containers so
  // consumers do not need the solver library's CiProjection type to hold
  // them — the fuzz harness copies these into one.

  /// (var, heap) pairs.
  std::set<std::pair<uint32_t, uint32_t>> ciVarPointsTo() const;
  /// (invocation site, callee) pairs.
  std::set<std::pair<uint32_t, uint32_t>> ciCallEdges() const;
  /// Methods reachable in at least one context.
  std::set<uint32_t> ciReachable() const;
  /// (static field, heap) pairs.
  std::set<std::pair<uint32_t, uint32_t>> ciStaticFieldPointsTo() const;
  /// (base heap, field, heap) triples.
  std::set<std::tuple<uint32_t, uint32_t, uint32_t>> ciFieldPointsTo() const;

private:
  void loadFacts();
  void buildRules();
  void buildStaticFieldRules();
  void buildExceptionRules();
  void buildCutShortcutRules();
  /// \p Rel's rows, sorted and deduplicated, with column C expanded
  /// through the context table when \p Columns[C] is 'c', the heap-context
  /// table when 'h', and copied otherwise.
  std::vector<std::vector<uint32_t>> exportRows(const dl::Relation &Rel,
                                                std::string_view Columns) const;
  /// Adds \p R to the engine and records its mirror (MirrorTable).
  void addRule(dl::Rule R);

  const Program &Prog;
  ContextPolicy &Policy;
  dl::Engine Engine;
  std::vector<RuleMirror> Mirrors;

  // Input relations.
  dl::Relation *Alloc, *Move, *Sanitize, *CleanHeap, *Cast, *SubtypeOf,
      *Load, *Store;
  dl::Relation *SLoad, *SStore, *VarMeth;
  dl::Relation *Throw, *HandlerFor, *NoHandler, *InvokeIn;
  dl::Relation *VCall, *SCall;
  dl::Relation *FormalArg, *ActualArg, *FormalRet, *ActualRet;
  dl::Relation *ThisVar, *HeapType, *Lookup;
  // Cut-shortcut structure (context/CutShortcut.h): RetKept gates the
  // generic interproc-ret rule; the Cut* relations hold the policy's plan
  // and feed the shortcut rules.  For tuple policies (no plan) RetKept
  // covers every method with a return and the Cut* relations stay empty.
  dl::Relation *RetKept, *CutStore, *CutRetArg, *CutRetAlloc, *CutRetLoad;
  // Output / intermediate relations.
  dl::Relation *VarPointsTo, *CallGraph, *FldPointsTo, *InterProcAssign;
  dl::Relation *StaticFldPointsTo, *ThrowPointsTo;
  dl::Relation *Reachable, *VCallTarget, *SCallTarget;
};

} // namespace pt

#endif // HYBRIDPT_PTAREF_REFERENCEANALYSIS_H
