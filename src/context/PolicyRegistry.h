//===- context/PolicyRegistry.h - Name-based policy lookup ------*- C++ -*-===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The table of registered analyses: creates \c ContextPolicy instances
/// from paper abbreviations ("1obj", "S-2obj+H", ...) and enumerates the
/// standard evaluation line-ups, all derived from one list of
/// \c PolicyRow values (docs/ANALYSES.md).
///
//===----------------------------------------------------------------------===//

#ifndef HYBRIDPT_CONTEXT_POLICYREGISTRY_H
#define HYBRIDPT_CONTEXT_POLICYREGISTRY_H

#include "context/Policy.h"

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pt {

class Program;

/// Instantiates the registered policy row named \p Name for \p Prog.
/// Returns null for an unknown name; \c allPolicyNames lists the known
/// ones.
std::unique_ptr<ContextPolicy> createPolicy(std::string_view Name,
                                            const Program &Prog);

/// The fourteen Table 1 columns, in order: the paper's twelve analyses
/// plus the cut-shortcut family (cs, S-cs; docs/ANALYSES.md).
const std::vector<std::string> &table1PolicyNames();

/// The fifteen standard analyses (Table 1 columns plus insens).
const std::vector<std::string> &paperPolicyNames();

/// Everything createPolicy knows about: the paper's analyses, then the
/// ablations.
const std::vector<std::string> &allPolicyNames();

/// The known precision-ordering pairs (finer, coarser): each finer
/// policy's context maps factor through the coarser's (RECORD / MERGE /
/// MERGESTATIC commute with the projection; for the cut-shortcut pairs,
/// every per-edge shortcut derivation is contained in the coarser side's
/// generic flow), so the finer fixpoint's context-insensitive projection
/// is contained in the coarser's.  This is the canonical list shared by
/// the fuzz oracle's ordering checks and the fallback ladder
/// (pta/Degrade.h).  Every ordered policy's path to "insens" is listed
/// explicitly — there is no implicit "insens is coarser than everything"
/// axiom.  Policies with *no* finer-side entry have no proven ordering at
/// all and cannot anchor a ladder: SA-1obj is ordered only against insens
/// (the paper notes it is incomparable to 1obj), and U-2obj+H-swapped is
/// deliberately unordered (its inverted slot significance admits no
/// projection argument).  The cs family slots below 1call: 1call ⊑ cs ⊑
/// S-cs ⊑ insens.  Object-/type-sensitive chains do not route through cs
/// — an identity method makes 1obj and cs incomparable — so they reach
/// insens directly.
///
/// Pair order matters to the ladder: \c fallbackLadder follows the
/// *first* pair listed for each finer policy, so a policy's preferred
/// degradation target is listed first (e.g. 2obj+H prefers 2type+H, which
/// keeps heap sensitivity, over the cheaper but blunter 1obj).
const std::vector<std::pair<std::string, std::string>> &precisionOrderPairs();

/// True when \p Coarser is provably coarser than \p Finer, i.e. reachable
/// from it through the transitive closure of \c precisionOrderPairs.
/// Strict: false when the names are equal; false for any name (known or
/// not) that the pair ledger does not order.
bool isProvablyCoarser(std::string_view Finer, std::string_view Coarser);

} // namespace pt

#endif // HYBRIDPT_CONTEXT_POLICYREGISTRY_H
