//===- checks/Registry.cpp --------------------------------------------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//

#include "checks/Checker.h"

#include <algorithm>
#include <cassert>

using namespace pt;
using namespace pt::checks;

namespace pt {
namespace checks {
/// Defined in BuiltinCheckers.cpp; called once to populate the registry.
void registerBuiltinCheckers(CheckerRegistry &R);
} // namespace checks
} // namespace pt

const char *pt::checks::severityName(Severity S) {
  switch (S) {
  case Severity::Note:
    return "note";
  case Severity::Warning:
    return "warning";
  case Severity::Error:
    return "error";
  }
  return "warning";
}

void pt::checks::sortDiagnostics(std::vector<Diagnostic> &Diags) {
  std::sort(Diags.begin(), Diags.end(),
            [](const Diagnostic &A, const Diagnostic &B) {
              if (A.Line != B.Line)
                return A.Line < B.Line;
              if (A.CheckId != B.CheckId)
                return A.CheckId < B.CheckId;
              return A.SiteKey < B.SiteKey;
            });
}

CheckerRegistry &CheckerRegistry::instance() {
  static CheckerRegistry *R = [] {
    auto *Reg = new CheckerRegistry();
    registerBuiltinCheckers(*Reg);
    return Reg;
  }();
  return *R;
}

void CheckerRegistry::add(CheckerInfo Info, Factory F) {
  for (const Entry &E : Entries) {
    if (E.Info.Id == Info.Id) {
      assert(false && "duplicate checker id");
      return;
    }
  }
  Entries.push_back({std::move(Info), std::move(F)});
}

std::vector<std::string> CheckerRegistry::ids() const {
  std::vector<std::string> Out;
  Out.reserve(Entries.size());
  for (const Entry &E : Entries)
    Out.push_back(E.Info.Id);
  return Out;
}

const CheckerInfo *CheckerRegistry::info(const std::string &Id) const {
  for (const Entry &E : Entries)
    if (E.Info.Id == Id)
      return &E.Info;
  return nullptr;
}

std::unique_ptr<Checker> CheckerRegistry::create(const std::string &Id) const {
  for (const Entry &E : Entries)
    if (E.Info.Id == Id)
      return E.Make();
  return nullptr;
}
