//===- context/Policy.h - Context-sensitivity policies ----------*- C++ -*-===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's parameterization of context-sensitive points-to analysis
/// (Figure 1): three constructor functions behind which "these aspects are
/// completely hidden" from the analysis rules.
///
///  - \c record(heap, ctx)              = new heap context (RECORD)
///  - \c merge(heap, hctx, invo, ctx)   = callee context at a virtual call
///                                        (MERGE)
///  - \c mergeStatic(invo, ctx)         = callee context at a static call
///                                        (MERGESTATIC — the paper's new
///                                        knob for selective hybrids)
///
/// An analysis is data, not code: a \c PolicyRow names, for each output
/// slot of each constructor function, where the slot's element comes from
/// (docs/ANALYSES.md writes every registered row as one table line).
/// \c ContextPolicy evaluates a row over one program.
///
/// A policy owns the hash-consing tables for both context domains, so
/// context identity is per-analysis-run.  The solver (src/pta) and the
/// Datalog reference (src/ptaref) drive the same policy objects, which is
/// what makes their results comparable.
///
//===----------------------------------------------------------------------===//

#ifndef HYBRIDPT_CONTEXT_POLICY_H
#define HYBRIDPT_CONTEXT_POLICY_H

#include "context/ContextTable.h"
#include "context/CutShortcut.h"
#include "support/Ids.h"

#include <array>
#include <optional>
#include <string_view>

namespace pt {

class Program;

/// Where one element of a constructed context comes from.
enum class SlotFrom : uint8_t {
  Star,   ///< `*`.
  Heap,   ///< `heap`: the allocation site (RECORD, MERGE).
  CAHeap, ///< `CA(heap)`: the class containing that allocation site.
  Invo,   ///< `invo`: the invocation site (MERGE, MERGESTATIC).
  Ctx,    ///< `ctx[i]`: slot i of the caller's / allocating method's context.
  HCtx,   ///< `hctx[i]`: slot i of the receiver's heap context (MERGE).
};

/// One source: \c From, plus the slot index for \c Ctx and \c HCtx.
struct SlotSource {
  SlotFrom From = SlotFrom::Star;
  uint8_t Index = 0;

  friend bool operator==(SlotSource, SlotSource) = default;
};

/// One output slot of a constructor function.  Unconditional slots read
/// \c Src.  A conditional slot reads \c Src when that yields an invocation
/// site and \c Else otherwise: the paper's Section 6 idea of constructors
/// that "examine the context passed to them" (D-2obj+H's MERGESTATIC).
struct Slot {
  SlotSource Src;
  bool IfInvoke = false;
  SlotSource Else;

  friend bool operator==(Slot, Slot) = default;
};

/// The slot spellings a policy row is written in.
namespace slots {
constexpr Slot from(SlotFrom From, uint8_t Index = 0) {
  return {{From, Index}, false, {}};
}
inline constexpr Slot star = from(SlotFrom::Star);
inline constexpr Slot heap = from(SlotFrom::Heap);
inline constexpr Slot caHeap = from(SlotFrom::CAHeap);
inline constexpr Slot invo = from(SlotFrom::Invo);
constexpr Slot ctx(uint8_t I) { return from(SlotFrom::Ctx, I); }
constexpr Slot hctx(uint8_t I) { return from(SlotFrom::HCtx, I); }
/// `If` when it yields an invocation site, else `Else`.
constexpr Slot ifInvoke(Slot If, Slot Else) {
  return {If.Src, true, Else.Src};
}
} // namespace slots

/// The slots of one constructor function's output, most significant first;
/// only the first arity-many are read.
using SlotRow = std::array<Slot, MaxContextDepth>;

/// Which evaluation line-up a registered policy belongs to.
enum class PolicyGroup : uint8_t {
  Paper,    ///< In the paper, not a Table 1 column (insens).
  Table1,   ///< A Table 1 column.
  Ablation, ///< An ablation or future-work variant.
};

/// One analysis: everything that distinguishes it from every other.
struct PolicyRow {
  std::string_view Name; ///< The paper's abbreviation, e.g. "S-2obj+H".
  PolicyGroup Group;
  uint8_t MethodArity; ///< Slots in a method context.
  uint8_t HeapArity;   ///< Slots in a heap context.
  SlotRow Record;      ///< RECORD(heap, ctx): reads heap, CA(heap), ctx.
  SlotRow Merge;       ///< MERGE(heap, hctx, invo, ctx): reads any source.
  SlotRow MergeStatic; ///< MERGESTATIC(invo, ctx): reads invo, ctx.
  /// The cut-shortcut plan's mode; \c CutMode::None for a pure
  /// context-tuple policy.
  CutMode Cut = CutMode::None;
};

/// One analysis flavor evaluated over one program.
class ContextPolicy {
public:
  ContextPolicy(const Program &Prog, const PolicyRow &Row);

  std::string_view name() const { return Row.Name; }
  uint32_t methodCtxArity() const { return Row.MethodArity; }
  uint32_t heapCtxArity() const { return Row.HeapArity; }

  /// RECORD(heap, ctx): the heap context attached to an object allocated at
  /// \p Heap in a method analyzed under \p Ctx.
  HCtxId record(HeapId Heap, CtxId Ctx);

  /// MERGE(heap, hctx, invo, ctx): the callee context for a virtual call at
  /// \p Invo in caller context \p Ctx, on a receiver abstracted as
  /// (\p Heap, \p HCtx).
  CtxId merge(HeapId Heap, HCtxId HCtx, InvokeId Invo, CtxId Ctx);

  /// MERGESTATIC(invo, ctx): the callee context for a static call at
  /// \p Invo in caller context \p Ctx.
  CtxId mergeStatic(InvokeId Invo, CtxId Ctx);

  /// The cut-shortcut plan of this policy, or null for pure context-tuple
  /// policies.  When non-null, the solver cuts the planned flows at call
  /// boundaries and wires per-call-edge shortcut edges instead, and the
  /// Datalog reference model mirrors the same cuts (see
  /// context/CutShortcut.h).
  const CutShortcutPlan *cutPlan() const { return Plan ? &*Plan : nullptr; }

  /// The context under which entry-point methods are analyzed: a tuple of
  /// stars of the policy's method arity.
  CtxId initialContext();

  ContextTable<CtxId> &ctxTable() { return Ctxs; }
  const ContextTable<CtxId> &ctxTable() const { return Ctxs; }
  ContextTable<HCtxId> &hctxTable() { return HCtxs; }
  const ContextTable<HCtxId> &hctxTable() const { return HCtxs; }

  const Program &program() const { return Prog; }

private:
  /// The constructor functions' inputs; a function reads only its own.
  struct Inputs {
    HeapId Heap;
    HCtxId HCtx;
    InvokeId Invo;
    CtxId Ctx;
  };

  ContextElem read(SlotSource S, const Inputs &In) const;
  /// Evaluates the first \p Arity slots of \p Slots into \p Out.
  void build(const SlotRow &Slots, uint32_t Arity, const Inputs &In,
             ContextElem *Out) const;

  const Program &Prog;
  PolicyRow Row;
  /// MERGESTATIC is `ctx` itself (object- and type-sensitive policies):
  /// return the caller's context without a lookup.
  bool StaticKeepsCtx;
  std::optional<CutShortcutPlan> Plan;
  ContextTable<CtxId> Ctxs;
  ContextTable<HCtxId> HCtxs;
};

} // namespace pt

#endif // HYBRIDPT_CONTEXT_POLICY_H
