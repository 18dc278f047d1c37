//===- checks/Sarif.cpp -----------------------------------------------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//

#include "checks/Sarif.h"

#include "checks/Render.h"
#include "ir/Program.h"

#include <charconv>
#include <cstddef>
#include <string_view>

using namespace pt;
using namespace pt::checks;

namespace {

/// Streaming JSON writer with 2-space indentation, enough for the SARIF
/// shape below.  Keys are emitted in call order.  Text accumulates in a
/// local buffer that goes to the stream in chunks of about \c ChunkBytes:
/// one stream write per chunk instead of one per token, and a log of
/// hundreds of megabytes is never held whole.
class JsonWriter {
public:
  static constexpr size_t ChunkBytes = 64 * 1024;

  explicit JsonWriter(std::ostream &OS) : OS(OS) {
    Buf.reserve(2 * ChunkBytes);
  }

  void openObject() { open('{'); }
  void closeObject() { close('}'); }
  void openArray() { open('['); }
  void closeArray() { close(']'); }

  void key(std::string_view K) {
    comma();
    indent();
    Buf += '"';
    appendJsonEscaped(Buf, K);
    Buf += "\": ";
    Pending = true;
  }

  void value(std::string_view V) {
    prefix();
    Buf += '"';
    appendJsonEscaped(Buf, V);
    Buf += '"';
  }
  void value(uint64_t V) {
    prefix();
    char Digits[24];
    auto R = std::to_chars(Digits, Digits + sizeof(Digits), V);
    Buf.append(Digits, R.ptr);
  }

  /// Hands everything buffered so far to the stream.
  void flush() {
    OS.write(Buf.data(), static_cast<std::streamsize>(Buf.size()));
    Buf.clear();
  }

private:
  void open(char C) {
    prefix();
    Buf += C;
    NeedComma.push_back(false);
  }
  void close(char C) {
    NeedComma.pop_back();
    Buf += '\n';
    indent();
    Buf += C;
    if (NeedComma.empty())
      Buf += '\n';
    if (Buf.size() >= ChunkBytes)
      flush();
  }
  /// Emits the separator before a fresh value: nothing after a key, a
  /// comma+newline+indent between array elements.
  void prefix() {
    if (Pending) {
      Pending = false;
      return;
    }
    comma();
    indent();
  }
  void comma() {
    if (Pending)
      return;
    if (!NeedComma.empty()) {
      if (NeedComma.back())
        Buf += ',';
      NeedComma.back() = true;
      Buf += '\n';
    }
  }
  void indent() { Buf.append(2 * NeedComma.size(), ' '); }

  std::ostream &OS;
  std::string Buf;
  std::vector<bool> NeedComma;
  bool Pending = false;
};

} // namespace

void pt::checks::writeSarif(std::ostream &OS, const Program &Prog,
                            const std::vector<Diagnostic> &Diags,
                            const std::vector<CheckerInfo> &Rules,
                            const SarifOptions &Opts) {
  std::string Uri =
      Prog.sourceName().empty() ? std::string("<input>") : Prog.sourceName();

  JsonWriter W(OS);
  // Qualified names built once per log: flows cite the same few methods
  // over and over.
  std::vector<std::string> Names(Prog.numMethods());
  auto methodName = [&](MethodId M) -> const std::string & {
    std::string &Name = Names[M.index()];
    if (Name.empty())
      Name = Prog.qualifiedName(M);
    return Name;
  };
  W.openObject();
  W.key("$schema");
  W.value(std::string("https://raw.githubusercontent.com/oasis-tcs/"
                      "sarif-spec/master/Schemata/sarif-schema-2.1.0.json"));
  W.key("version");
  W.value(std::string("2.1.0"));
  W.key("runs");
  W.openArray();
  W.openObject();

  W.key("tool");
  W.openObject();
  W.key("driver");
  W.openObject();
  W.key("name");
  W.value(std::string("hybridpt-lint"));
  W.key("version");
  W.value(Opts.ToolVersion);
  W.key("informationUri");
  W.value(std::string("https://github.com/hybridpt/hybridpt"));
  W.key("rules");
  W.openArray();
  for (const CheckerInfo &R : Rules) {
    W.openObject();
    W.key("id");
    W.value(R.RuleId);
    W.key("name");
    W.value(R.Name);
    W.key("shortDescription");
    W.openObject();
    W.key("text");
    W.value(R.Summary);
    W.closeObject();
    W.key("defaultConfiguration");
    W.openObject();
    W.key("level");
    W.value(std::string(severityName(R.Sev)));
    W.closeObject();
    W.closeObject();
  }
  W.closeArray();
  W.closeObject(); // driver
  W.closeObject(); // tool

  if (!Opts.PolicyName.empty()) {
    W.key("properties");
    W.openObject();
    W.key("policy");
    W.value(Opts.PolicyName);
    W.closeObject();
  }

  W.key("results");
  W.openArray();
  for (const Diagnostic &D : Diags) {
    size_t RuleIndex = 0;
    for (size_t I = 0; I != Rules.size(); ++I)
      if (Rules[I].RuleId == D.RuleId)
        RuleIndex = I;

    W.openObject();
    W.key("ruleId");
    W.value(D.RuleId);
    W.key("ruleIndex");
    W.value(static_cast<uint64_t>(RuleIndex));
    W.key("level");
    W.value(std::string(severityName(D.Sev)));
    W.key("message");
    W.openObject();
    W.key("text");
    std::string Text = D.Message;
    for (const std::string &E : D.Evidence)
      Text += "\n" + E;
    W.value(Text);
    W.closeObject();
    W.key("locations");
    W.openArray();
    W.openObject();
    W.key("physicalLocation");
    W.openObject();
    W.key("artifactLocation");
    W.openObject();
    W.key("uri");
    W.value(Uri);
    W.closeObject();
    if (D.Line != 0) {
      W.key("region");
      W.openObject();
      W.key("startLine");
      W.value(static_cast<uint64_t>(D.Line));
      W.closeObject();
    }
    W.closeObject(); // physicalLocation
    if (D.Method.isValid()) {
      W.key("logicalLocations");
      W.openArray();
      W.openObject();
      W.key("fullyQualifiedName");
      W.value(methodName(D.Method));
      W.key("kind");
      W.value(std::string("function"));
      W.closeObject();
      W.closeArray();
    }
    W.closeObject(); // location
    W.closeArray();  // locations
    // Derivation provenance as a codeFlow: one threadFlow whose locations
    // walk the anchored fact's derivation leaves-first (the "why" behind
    // the report; docs/OBSERVABILITY.md).  Only present when the lint run
    // recorded provenance and the checker anchored a fact.
    if (!D.Flow.empty()) {
      W.key("codeFlows");
      W.openArray();
      W.openObject();
      W.key("threadFlows");
      W.openArray();
      W.openObject();
      W.key("locations");
      W.openArray();
      for (const FlowStep &S : D.Flow) {
        W.openObject();
        W.key("location");
        W.openObject();
        W.key("physicalLocation");
        W.openObject();
        W.key("artifactLocation");
        W.openObject();
        W.key("uri");
        W.value(Uri);
        W.closeObject();
        if (S.Line != 0) {
          W.key("region");
          W.openObject();
          W.key("startLine");
          W.value(static_cast<uint64_t>(S.Line));
          W.closeObject();
        }
        W.closeObject(); // physicalLocation
        if (S.Method.isValid()) {
          W.key("logicalLocations");
          W.openArray();
          W.openObject();
          W.key("fullyQualifiedName");
          W.value(methodName(S.Method));
          W.key("kind");
          W.value(std::string("function"));
          W.closeObject();
          W.closeArray();
        }
        W.key("message");
        W.openObject();
        W.key("text");
        W.value(S.Message);
        W.closeObject();
        W.closeObject(); // location
        W.closeObject(); // threadFlowLocation
      }
      W.closeArray();  // locations
      W.closeObject(); // threadFlow
      W.closeArray();  // threadFlows
      W.closeObject(); // codeFlow
      W.closeArray();  // codeFlows
    }
    W.key("partialFingerprints");
    W.openObject();
    W.key("hybridptSiteKey/v1");
    W.value(D.key());
    W.closeObject();
    W.closeObject(); // result
  }
  W.closeArray(); // results

  W.closeObject(); // run
  W.closeArray();  // runs
  W.closeObject(); // root
  W.flush();
}
