//===- support/Telemetry.cpp -----------------------------------------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/Telemetry.h"

#include <algorithm>

namespace pt::telemetry {

std::vector<std::pair<const char *, uint64_t>>
topRuleCounters(const SolverCounters &C, size_t K) {
#define PT_RULE_ROW(Field, Name) {Name, C.Field},
  std::vector<std::pair<const char *, uint64_t>> Rules = {
      PT_RULES(PT_RULE_COUNTER, PT_RULE_ROW)};
#undef PT_RULE_ROW
  std::stable_sort(Rules.begin(), Rules.end(),
                   [](const auto &A, const auto &B) {
                     return A.second > B.second;
                   });
  if (Rules.size() > K)
    Rules.resize(K);
  return Rules;
}

} // namespace pt::telemetry
