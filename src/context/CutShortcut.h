//===- context/CutShortcut.h - Cut-shortcut call-boundary plans -*- C++ -*-===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Program-structure plans for the cut-shortcut policy family ("Context
/// Sensitivity without Contexts", Ma et al. — see PAPERS.md).
///
/// Instead of distinguishing calling contexts by tuples, a cut-shortcut
/// analysis *cuts* selected value flows at call boundaries and replaces
/// them with per-call-edge shortcut edges wired when the call edge is
/// discovered.  Because a shortcut edge connects one caller's actuals to
/// one receiver object's state, it recovers much of what a context tuple
/// buys — without any context domain at all (both context arities are 0,
/// like insens).
///
/// Two flow shapes are cut, both chosen so that *every* derivation through
/// the cut flow is provably covered by the shortcuts:
///
///  - **Covered stores** `this.f = p` where `p` is a clean formal and
///    `this` is clean: the generic store subscription is dropped and each
///    call edge with receiver object `o` contributes `actual_i -> o.f`.
///  - **Covered returns**: when every definition of the method's return
///    variable is a parameter binding, an allocation, a move from a clean
///    formal, or a load `this.f` from a clean `this`, the generic
///    `return -> retTo` edge is dropped and each call edge contributes the
///    matching shortcut (`actual_i -> retTo`, `retTo ∋ (heap, RECORD)`,
///    `o.f -> retTo`).
///
/// "Clean" means the variable has no instruction definition in the body
/// (its only values arrive through the parameter/this binding), which is
/// what makes the per-edge shortcuts cover the generic cross-product flow.
/// Plans are derived purely from program structure, so the solver and the
/// Datalog reference model consume the same plan and stay bit-identical.
///
//===----------------------------------------------------------------------===//

#ifndef HYBRIDPT_CONTEXT_CUTSHORTCUT_H
#define HYBRIDPT_CONTEXT_CUTSHORTCUT_H

#include "support/Ids.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pt {

class Program;

/// Which call boundaries a plan may cut.
enum class CutMode {
  /// Cut nowhere: the policy has no plan (every context-tuple policy).
  None,
  /// Cut everywhere a flow is coverable: virtual boundaries plus
  /// static-method returns (the `cs` policy).
  All,
  /// Cut only at virtual boundaries — the paper's *selected* call sites,
  /// where the receiver object carries the precision (the `S-cs` policy).
  /// Static-method returns keep the generic merged flow.
  VirtualOnly,
};

/// The per-program cut/shortcut decisions, indexed by method.
struct CutShortcutPlan {
  /// One covered store `this.f = formal_i` (instance methods only).
  struct StoreCut {
    /// Index into MethodInfo::Stores of the cut instruction.
    uint32_t StoreIdx;
    /// Formal position supplying the stored value.
    uint32_t FormalIdx;
    FieldId Fld;
  };

  struct MethodPlan {
    std::vector<StoreCut> StoreCuts;
    /// True when the generic `return -> retTo` edge is cut; the three
    /// shortcut lists below then cover every definition of the return
    /// variable.
    bool RetCut = false;
    /// Formal positions whose actual flows straight to retTo (the return
    /// variable is the formal, or a move from a clean formal).
    std::vector<uint32_t> RetArgs;
    /// Allocation sites assigned to the return variable; retTo receives
    /// (heap, RECORD(heap, calleeCtx)) per call edge.
    std::vector<HeapId> RetAllocs;
    /// Fields loaded from a clean `this` into the return variable; the
    /// receiver object's field slot flows to retTo per call edge.
    std::vector<FieldId> RetLoads;

    bool any() const { return RetCut || !StoreCuts.empty(); }
  };

  /// Indexed by MethodId.
  std::vector<MethodPlan> Methods;

  const MethodPlan &method(MethodId M) const { return Methods[M.index()]; }

  /// True when store \p StoreIdx of \p M is cut (the solver skips its
  /// generic subscription).
  bool isStoreCut(MethodId M, uint32_t StoreIdx) const {
    for (const StoreCut &C : Methods[M.index()].StoreCuts)
      if (C.StoreIdx == StoreIdx)
        return true;
    return false;
  }

  /// Totals, for tests and diagnostics.
  size_t numStoreCuts() const;
  size_t numRetCuts() const;
};

/// Derives the plan for \p Prog under \p Mode (not \c CutMode::None).
/// Pure function of program structure; the solver and the reference model
/// must consume the same plan instance (via ContextPolicy::cutPlan) to stay
/// comparable.
CutShortcutPlan computeCutShortcutPlan(const Program &Prog, CutMode Mode);

} // namespace pt

#endif // HYBRIDPT_CONTEXT_CUTSHORTCUT_H
