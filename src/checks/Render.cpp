//===- checks/Render.cpp ----------------------------------------------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//

#include "checks/Render.h"

#include "ir/Program.h"

#include <cstdio>

using namespace pt;
using namespace pt::checks;

void pt::checks::appendJsonEscaped(std::string &Out, std::string_view S) {
  // Copy runs of plain characters in one append; only the (rare) characters
  // that need an escape go one at a time.
  size_t Run = 0;
  for (size_t I = 0; I != S.size(); ++I) {
    unsigned char C = static_cast<unsigned char>(S[I]);
    if (C >= 0x20 && C != '"' && C != '\\')
      continue;
    Out.append(S.data() + Run, I - Run);
    Run = I + 1;
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default: {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    }
    }
  }
  Out.append(S.data() + Run, S.size() - Run);
}

std::string pt::checks::jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  appendJsonEscaped(Out, S);
  return Out;
}

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
    OS << "{\"rule\":\"" << jsonEscape(D.RuleId) << "\",\"check\":\""
       << jsonEscape(D.CheckId) << "\",\"level\":\"" << severityName(D.Sev)
       << "\",\"siteKey\":\"" << jsonEscape(D.SiteKey) << "\",\"message\":\""
       << jsonEscape(D.Message) << "\",\"file\":\""
       << jsonEscape(Prog.sourceName()) << "\",\"line\":" << D.Line;
    OS << ",\"method\":\""
       << jsonEscape(D.Method.isValid() ? Prog.qualifiedName(D.Method) : "")
       << "\"";
    OS << ",\"evidence\":[";
    for (size_t I = 0; I != D.Evidence.size(); ++I) {
      if (I)
        OS << ",";
      OS << "\"" << jsonEscape(D.Evidence[I]) << "\"";
    }
    OS << "]";
    if (!PolicyName.empty())
      OS << ",\"policy\":\"" << jsonEscape(PolicyName) << "\"";
    OS << "}\n";
  }
}
