//===- context/PolicyRegistry.cpp --------------------------------------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//

#include "context/PolicyRegistry.h"

#include <algorithm>
#include <deque>
#include <set>

using namespace pt;
using namespace pt::slots;

namespace {

constexpr PolicyGroup Paper = PolicyGroup::Paper;
constexpr PolicyGroup Table1 = PolicyGroup::Table1;
constexpr PolicyGroup Ablation = PolicyGroup::Ablation;

/// Every registered analysis, in allPolicyNames() order; docs/ANALYSES.md
/// explains each row.  Columns: name, group, method arity, heap arity,
/// RECORD, MERGE, MERGESTATIC slots (most significant first; unlisted
/// slots are `*`), cut mode.
constexpr PolicyRow Rows[] = {
    // Baselines (paper Section 2.2).
    {"insens", Paper, 0, 0, {}, {}, {}},
    {"1call", Table1, 1, 0, {}, {invo}, {invo}},
    {"1call+H", Table1, 1, 1, {ctx(0)}, {invo}, {invo}},
    {"1obj", Table1, 1, 0, {}, {heap}, {ctx(0)}},
    // Uniform and selective 1obj hybrids (Sections 3.1, 3.2).  SB-1obj's
    // context always contains 1obj's, so it refines 1obj; SA-1obj keeps a
    // single element and is incomparable with it.
    {"U-1obj", Table1, 2, 0, {}, {heap, invo}, {ctx(0), invo}},
    {"SA-1obj", Table1, 1, 0, {}, {heap}, {invo}},
    {"SB-1obj", Table1, 2, 0, {}, {heap}, {ctx(0), invo}},
    // Object-sensitive family: 2obj+H and its hybrids.  S-2obj+H looks like
    // 2obj+H at virtual calls; the first static level appends an
    // invocation site, deeper static chains favor call sites while pinning
    // the most-significant object element (for heap-context quality).
    {"2obj+H", Table1, 2, 1, {ctx(0)}, {heap, hctx(0)}, {ctx(0), ctx(1)}},
    {"U-2obj+H", Table1, 3, 1, {ctx(0)}, {heap, hctx(0), invo},
     {ctx(0), ctx(1), invo}},
    {"S-2obj+H", Table1, 3, 1, {ctx(0)}, {heap, hctx(0)},
     {ctx(0), invo, ctx(1)}},
    // Type-sensitive family: the object rows with CA mapped over the new
    // element.
    {"2type+H", Table1, 2, 1, {ctx(0)}, {caHeap, hctx(0)}, {ctx(0), ctx(1)}},
    {"U-2type+H", Table1, 3, 1, {ctx(0)}, {caHeap, hctx(0), invo},
     {ctx(0), ctx(1), invo}},
    {"S-2type+H", Table1, 3, 1, {ctx(0)}, {caHeap, hctx(0)},
     {ctx(0), invo, ctx(1)}},
    // Cut-shortcut family (Ma et al., "Context Sensitivity without
    // Contexts"; context/CutShortcut.h): insens contexts plus a plan that
    // cuts covered flows at every coverable call boundary (cs) or at
    // virtual boundaries only (S-cs).  1call ⊑ cs ⊑ S-cs ⊑ insens.
    {"cs", Table1, 0, 0, {}, {}, {}, CutMode::All},
    {"S-cs", Table1, 0, 0, {}, {}, {}, CutMode::VirtualOnly},
    // Ablations (Section 3.2 "Other analyses").  U-2obj+HI records the
    // invocation-site slot as heap context, the paper's predicted "bad
    // choice".  U-2obj+H-swapped puts hctx in the most-significant slot but
    // keeps RECORD = first(ctx), which now yields the grandparent object:
    // the quality loss the paper warns about.
    {"U-2obj+HI", Ablation, 3, 1, {ctx(2)}, {heap, hctx(0), invo},
     {ctx(0), ctx(1), invo}},
    {"U-2obj+H-swapped", Ablation, 3, 1, {ctx(0)}, {hctx(0), heap, invo},
     {ctx(0), ctx(1), invo}},
    // Section 6's depth-adaptive MERGESTATIC: uniform-shaped inside a
    // virtually-called method (ctx[2] = *), a call-site chain once ctx[2]
    // already holds an invocation site.
    {"D-2obj+H", Ablation, 3, 1, {ctx(0)}, {heap, hctx(0)},
     {ctx(0), ifInvoke(ctx(2), ctx(1)), invo}},
    // Deeper contexts (Section 6; Section 2.2 notes these "quickly make an
    // analysis intractable").
    {"3obj+2H", Ablation, 3, 2, {ctx(0), ctx(1)}, {heap, hctx(0), hctx(1)},
     {ctx(0), ctx(1), ctx(2)}},
    {"2call+H", Ablation, 2, 1, {ctx(0)}, {invo, ctx(0)}, {invo, ctx(0)}},
};

std::vector<std::string> namesIn(std::initializer_list<PolicyGroup> Groups) {
  std::vector<std::string> Names;
  for (const PolicyRow &Row : Rows)
    if (std::find(Groups.begin(), Groups.end(), Row.Group) != Groups.end())
      Names.emplace_back(Row.Name);
  return Names;
}

} // namespace

std::unique_ptr<ContextPolicy> pt::createPolicy(std::string_view Name,
                                                const Program &Prog) {
  for (const PolicyRow &Row : Rows)
    if (Row.Name == Name)
      return std::make_unique<ContextPolicy>(Prog, Row);
  return nullptr;
}

const std::vector<std::string> &pt::table1PolicyNames() {
  static const std::vector<std::string> Names = namesIn({Table1});
  return Names;
}

const std::vector<std::string> &pt::paperPolicyNames() {
  static const std::vector<std::string> Names = namesIn({Paper, Table1});
  return Names;
}

const std::vector<std::string> &pt::allPolicyNames() {
  static const std::vector<std::string> Names =
      namesIn({Paper, Table1, Ablation});
  return Names;
}

const std::vector<std::pair<std::string, std::string>> &
pt::precisionOrderPairs() {
  // Each pair was derived from the policy rows above: dropping context/heap-context elements maps the
  // finer policy's RECORD/MERGE/MERGESTATIC onto the coarser's (for the
  // cut-shortcut pairs, every per-edge shortcut derivation is contained in
  // the coarser side's generic merged flow).  The first pair per finer
  // policy is its preferred fallback target (see the header comment), so
  // 2obj+H lists 2type+H before 1obj.  Every policy's path to "insens" is
  // enumerated explicitly; a policy absent from the finer column
  // (U-2obj+H-swapped) has *no* proven ordering and cannot anchor a
  // fallback ladder.
  static const std::vector<std::pair<std::string, std::string>> Pairs = {
      {"1call+H", "1call"},         {"2call+H", "1call+H"},
      {"1call", "cs"},              {"cs", "S-cs"},
      {"S-cs", "insens"},
      {"U-1obj", "1obj"},           {"SB-1obj", "1obj"},
      {"1obj", "insens"},           {"SA-1obj", "insens"},
      {"2obj+H", "2type+H"},        {"2obj+H", "1obj"},
      {"U-2obj+H", "2obj+H"},       {"S-2obj+H", "2obj+H"},
      {"U-2type+H", "2type+H"},     {"S-2type+H", "2type+H"},
      {"2type+H", "insens"},
      {"3obj+2H", "2obj+H"},        {"U-2obj+HI", "1obj"},
      {"D-2obj+H", "1obj"},
  };
  return Pairs;
}

bool pt::isProvablyCoarser(std::string_view Finer, std::string_view Coarser) {
  if (Finer == Coarser)
    return false;
  // BFS over the fine -> coarse edges; the pair set is tiny.  There is
  // deliberately no "everything is finer than insens" axiom: an ordering
  // holds only when the explicit pair ledger proves it, so an unknown or
  // unordered name can never validate a ladder step.
  std::deque<std::string> Queue;
  std::set<std::string, std::less<>> Seen;
  Queue.emplace_back(Finer);
  while (!Queue.empty()) {
    std::string Cur = std::move(Queue.front());
    Queue.pop_front();
    for (const auto &[Fine, Coarse] : precisionOrderPairs()) {
      if (Fine != Cur)
        continue;
      if (Coarse == Coarser)
        return true;
      if (Seen.insert(Coarse).second)
        Queue.push_back(Coarse);
    }
  }
  return false;
}
