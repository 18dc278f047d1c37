//===- support/Rules.h - The analysis rule list -----------------*- C++ -*-===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one list of analysis rules.  It holds the paper's Figure 2 rules as
/// the solver applies them, with MERGE split into its this/param/return
/// bindings and THROW into its four raise/catch/escalate outcomes, so that
/// every derivation step names exactly one checkable rule.  The sanitize
/// barrier and the four cut-shortcut rules of Ma et al. ("Context
/// Sensitivity without Contexts") complete it.
///
/// Everything else that names a rule is derived from \c PT_RULES: the
/// \c Rule enum, the display names provenance prints, the telemetry fire
/// counters (support/Telemetry.h), the names a fault plan's slow-rule
/// accepts (support/FaultPlan.h), and the Datalog reference's mirror table
/// (ptaref).  Adding a rule here adds it to all of them.
///
//===----------------------------------------------------------------------===//

#ifndef HYBRIDPT_SUPPORT_RULES_H
#define HYBRIDPT_SUPPORT_RULES_H

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <string_view>

/// X-macro over the rule list: X(A, Enum, "display-name") per rule, in
/// enum order.  \p A is passed through untouched, so a caller can nest its
/// own X-macro inside (the telemetry counter list does).
#define PT_RULES(X, A)                                                        \
  /* Reachable(entry, initialCtx), no premise. */                             \
  X(A, Entry, "entry")                                                        \
  /* Reachable via a warm-start ladder seed, no premise. */                   \
  X(A, Seed, "seed")                                                          \
  /* Reachable(callee, ctx) <- CallEdge. */                                   \
  X(A, ReachCall, "reach-call")                                               \
  /* VPT(var, ctx, obj) <- Reachable(m, ctx)  [RECORD] */                     \
  X(A, Alloc, "alloc")                                                        \
  /* VPT(to, ctx, o) <- VPT(from, ctx, o) [+Reachable] */                     \
  X(A, Move, "move")                                                          \
  /* Move filtered by subtype(type(o), target). */                            \
  X(A, Cast, "cast")                                                          \
  /* VPT(to, ctx, o2) <- FPT(bo, f, o2) + VPT(base, ctx, bo) */               \
  X(A, Load, "load")                                                          \
  /* FPT(bo, f, o2) <- VPT(from, ctx, o2) + VPT(base, ctx, bo) */             \
  X(A, Store, "store")                                                        \
  /* VPT(to, ctx, o) <- SPT(f, o) [+Reachable] */                             \
  X(A, StaticLoad, "static-load")                                             \
  /* SPT(f, o) <- VPT(from, ctx, o) [+Reachable] */                           \
  X(A, StaticStore, "static-store")                                           \
  /* CallEdge <- VPT(base, ctx, recv)  [MERGE] */                             \
  X(A, VCall, "vcall")                                                        \
  /* CallEdge <- Reachable(caller, ctx)  [MERGESTATIC] */                     \
  X(A, SCall, "scall")                                                        \
  /* VPT(this, calleeCtx, recv) <- VPT(base, ..) + CallEdge */                \
  X(A, ThisBind, "this-bind")                                                 \
  /* VPT(formal, calleeCtx, o) <- VPT(actual, ..) + CallEdge */               \
  X(A, ParamBind, "param-bind")                                               \
  /* VPT(retTo, callerCtx, o) <- VPT(ret, ..) + CallEdge */                   \
  X(A, ReturnBind, "return-bind")                                             \
  /* TPT(m, ctx, o) <- VPT(v, ctx, o), uncaught in m. */                      \
  X(A, ThrowRaise, "throw-raise")                                             \
  /* VPT(hvar, ctx, o) <- VPT(v, ctx, o), a handler matches. */               \
  X(A, CatchBind, "catch-bind")                                               \
  /* TPT(caller, ..) <- TPT(callee, ..) + CallEdge, uncaught. */              \
  X(A, ThrowEscalate, "throw-escalate")                                       \
  /* VPT(hvar, ..) <- TPT(callee, ..) + CallEdge, caught. */                  \
  X(A, CatchEscalate, "catch-escalate")                                       \
  /* FPT(recv, f, o) <- VPT(actual, ..) + CallEdge  [covered store] */        \
  X(A, ShortcutStore, "shortcut-store")                                       \
  /* VPT(retTo, .., o) <- VPT(actual, ..) + CallEdge  [returned formal] */    \
  X(A, ShortcutRetArg, "shortcut-ret-arg")                                    \
  /* VPT(retTo, .., o) <- FPT(recv, f, o) + CallEdge  [returned this.f] */    \
  X(A, ShortcutRetLoad, "shortcut-ret-load")                                  \
  /* VPT(retTo, .., (h, RECORD)) <- CallEdge  [returned allocation] */        \
  X(A, ShortcutRetAlloc, "shortcut-ret-alloc")                                \
  /* Move filtered by TaintTag(site(o)) == 0. */                              \
  X(A, Sanitize, "sanitize")

namespace pt {

enum class Rule : uint8_t {
#define PT_RULE_ENUM(A, Enum, Name) Enum,
  PT_RULES(PT_RULE_ENUM, )
#undef PT_RULE_ENUM
};

/// Display names, indexed by rule.
inline constexpr const char *RuleNames[] = {
#define PT_RULE_NAME(A, Enum, Name) Name,
    PT_RULES(PT_RULE_NAME, )
#undef PT_RULE_NAME
};

inline constexpr size_t NumRules = std::size(RuleNames);

/// "alloc", "static-load", "shortcut-store", ...; "?" off the list (a
/// corrupt step's rule word).
constexpr const char *ruleName(Rule R) {
  size_t I = static_cast<size_t>(R);
  return I < NumRules ? RuleNames[I] : "?";
}

/// The rule displayed as \p Name, if any.
constexpr std::optional<Rule> ruleByName(std::string_view Name) {
  for (size_t I = 0; I != NumRules; ++I)
    if (Name == RuleNames[I])
      return static_cast<Rule>(I);
  return std::nullopt;
}

} // namespace pt

#endif // HYBRIDPT_SUPPORT_RULES_H
