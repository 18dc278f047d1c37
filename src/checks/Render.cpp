//===- checks/Render.cpp ----------------------------------------------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//

#include "checks/Render.h"

#include "ir/Program.h"
#include "support/Json.h"

using namespace pt;
using namespace pt::checks;

namespace {

std::string locationPrefix(const Program &Prog, const Diagnostic &D) {
  std::string Out =
      Prog.sourceName().empty() ? std::string("<input>") : Prog.sourceName();
  if (D.Line != 0) {
    Out += ":";
    Out += std::to_string(D.Line);
  }
  return Out;
}

} // namespace

void pt::checks::renderText(std::ostream &OS, const Program &Prog,
                            const std::vector<Diagnostic> &Diags) {
  for (const Diagnostic &D : Diags) {
    OS << locationPrefix(Prog, D) << ": " << severityName(D.Sev) << ": ["
       << D.RuleId << "] " << D.Message << "\n";
    for (const std::string &E : D.Evidence)
      OS << "    " << E << "\n";
  }
}

void pt::checks::renderJsonl(std::ostream &OS, const Program &Prog,
                             const std::vector<Diagnostic> &Diags,
                             const std::string &PolicyName) {
  for (const Diagnostic &D : Diags) {
    OS << "{\"rule\":\"" << json::escape(D.RuleId) << "\",\"check\":\""
       << json::escape(D.CheckId) << "\",\"level\":\"" << severityName(D.Sev)
       << "\",\"siteKey\":\"" << json::escape(D.SiteKey) << "\",\"message\":\""
       << json::escape(D.Message) << "\",\"file\":\""
       << json::escape(Prog.sourceName()) << "\",\"line\":" << D.Line;
    OS << ",\"method\":\""
       << json::escape(D.Method.isValid() ? Prog.qualifiedName(D.Method) : "")
       << "\"";
    OS << ",\"evidence\":[";
    for (size_t I = 0; I != D.Evidence.size(); ++I) {
      if (I)
        OS << ",";
      OS << "\"" << json::escape(D.Evidence[I]) << "\"";
    }
    OS << "]";
    if (!PolicyName.empty())
      OS << ",\"policy\":\"" << json::escape(PolicyName) << "\"";
    OS << "}\n";
  }
}
