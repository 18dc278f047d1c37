//===- checks/BuiltinCheckers.cpp -------------------------------------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
//
// The seven builtin checkers.  may-fail-cast and dead/poly-vcall are the
// paper's two precision clients (Clients.h) re-homed into the checker
// framework; uninit-deref, unreachable-method, and method-escape are new
// consumers of the same analysis results; tainted-sink is the taint
// engine's client (docs/CHECKS.md "Taint analysis").
//
//===----------------------------------------------------------------------===//

#include "checks/Checker.h"
#include "checks/Escape.h"

#include "ir/Program.h"
#include "pta/AnalysisResult.h"
#include "pta/Clients.h"

#include <string>

using namespace pt;
using namespace pt::checks;

namespace {

/// Evidence lists are capped so one megamorphic site cannot flood reports;
/// a trailing "... (+N more)" records the cut.
constexpr size_t MaxEvidence = 5;

void capEvidence(std::vector<std::string> &Ev, size_t Total) {
  if (Total > MaxEvidence)
    Ev.push_back("... (+" + std::to_string(Total - MaxEvidence) + " more)");
}

std::string varName(const Program &P, VarId V) {
  return P.text(P.var(V).Name);
}

std::string fieldName(const Program &P, FieldId F) {
  return P.text(P.field(F).Name);
}

std::string heapDesc(const Program &P, HeapId H) {
  return "`" + P.text(P.heap(H).Name) + "` (" +
         P.text(P.type(P.heap(H).Type).Name) + ")";
}

/// Convenience base: stores the info block, implements info().
class BuiltinChecker : public Checker {
public:
  explicit BuiltinChecker(CheckerInfo I) : MyInfo(std::move(I)) {}
  const CheckerInfo &info() const override { return MyInfo; }

protected:
  /// A diagnostic pre-filled with this checker's identity.
  Diagnostic blank() const {
    Diagnostic D;
    D.CheckId = MyInfo.Id;
    D.RuleId = MyInfo.RuleId;
    D.Sev = MyInfo.Sev;
    D.Dir = MyInfo.Dir;
    return D;
  }

private:
  CheckerInfo MyInfo;
};

//===----------------------------------------------------------------------===//
// HPT001 uninit-deref: dereference of a variable proven to point nowhere.
//===----------------------------------------------------------------------===//

class UninitDerefChecker : public BuiltinChecker {
public:
  UninitDerefChecker()
      : BuiltinChecker({"uninit-deref", "HPT001", "UninitializedDereference",
                        "A reachable instruction dereferences or throws a "
                        "variable the analysis proves points to no object",
                        Severity::Warning, Direction::Definite}) {}

  void run(const AnalysisResult &R, std::vector<Diagnostic> &Out) const override {
    const Program &P = R.program();
    auto Empty = [&](VarId V) { return R.ci().pointsTo(V).empty(); };

    for (MethodId M : R.reachableMethods()) {
      const MethodInfo &MI = P.method(M);
      std::string Where = " in " + P.qualifiedName(M);
      for (size_t I = 0; I != MI.Loads.size(); ++I) {
        const LoadInstr &L = MI.Loads[I];
        if (!Empty(L.Base))
          continue;
        Diagnostic D = blank();
        D.SiteKey = "load:" + std::to_string(M.index()) + ":" +
                    std::to_string(I);
        D.Message = "load of field `" + fieldName(P, L.Fld) +
                    "` from `" + varName(P, L.Base) +
                    "`, which points to no object" + Where;
        D.Method = M;
        D.Line = L.Line;
        D.WhyReachable = M; // Hinges on the method being reachable.
        Out.push_back(std::move(D));
      }
      for (size_t I = 0; I != MI.Stores.size(); ++I) {
        const StoreInstr &S = MI.Stores[I];
        if (!Empty(S.Base))
          continue;
        Diagnostic D = blank();
        D.SiteKey = "store:" + std::to_string(M.index()) + ":" +
                    std::to_string(I);
        D.Message = "store to field `" + fieldName(P, S.Fld) +
                    "` of `" + varName(P, S.Base) +
                    "`, which points to no object" + Where;
        D.Method = M;
        D.Line = S.Line;
        D.WhyReachable = M;
        Out.push_back(std::move(D));
      }
      for (size_t I = 0; I != MI.Throws.size(); ++I) {
        const ThrowInstr &T = MI.Throws[I];
        if (!Empty(T.V))
          continue;
        Diagnostic D = blank();
        D.SiteKey = "throw:" + std::to_string(M.index()) + ":" +
                    std::to_string(I);
        D.Message = "throw of `" + varName(P, T.V) +
                    "`, which points to no object" + Where;
        D.Method = M;
        D.Line = T.Line;
        D.WhyReachable = M;
        Out.push_back(std::move(D));
      }
    }
  }
};

//===----------------------------------------------------------------------===//
// HPT002 unreachable-method: never called from any entry point.
//===----------------------------------------------------------------------===//

class UnreachableMethodChecker : public BuiltinChecker {
public:
  UnreachableMethodChecker()
      : BuiltinChecker({"unreachable-method", "HPT002", "UnreachableMethod",
                        "A method is not reachable from any entry point "
                        "under the analysis call graph",
                        Severity::Note, Direction::Definite}) {}

  void run(const AnalysisResult &R, std::vector<Diagnostic> &Out) const override {
    const Program &P = R.program();
    for (size_t M = 0; M != P.numMethods(); ++M) {
      MethodId Id = MethodId::fromIndex(M);
      if (R.ci().isReachable(Id))
        continue;
      Diagnostic D = blank();
      D.SiteKey = "method:" + std::to_string(M);
      D.Message = "method " + P.qualifiedName(Id) +
                  " is unreachable from every entry point";
      D.Method = Id;
      D.Line = P.method(Id).DeclLine;
      Out.push_back(std::move(D));
    }
  }
};

//===----------------------------------------------------------------------===//
// HPT003 dead-vcall: a reachable virtual call site with no receiver.
//===----------------------------------------------------------------------===//

class DeadVCallChecker : public BuiltinChecker {
public:
  DeadVCallChecker()
      : BuiltinChecker({"dead-vcall", "HPT003", "DeadVirtualCall",
                        "A virtual call site in a reachable method has no "
                        "possible receiver object, so it never dispatches",
                        Severity::Warning, Direction::Definite}) {}

  void run(const AnalysisResult &R, std::vector<Diagnostic> &Out) const override {
    const Program &P = R.program();
    for (const DevirtSite &S : devirtualizeCalls(R)) {
      if (S.Verdict != DevirtVerdict::Dead)
        continue;
      const InvokeInfo &Inv = P.invoke(S.Invo);
      Diagnostic D = blank();
      D.SiteKey = "invoke:" + std::to_string(S.Invo.index());
      D.Message = "virtual call `" + P.text(Inv.Name) + "` on `" +
                  varName(P, Inv.Base) + "` has no possible receiver in " +
                  P.qualifiedName(Inv.InMethod);
      D.Method = Inv.InMethod;
      D.Line = Inv.Line;
      D.WhyReachable = Inv.InMethod; // "reachable yet dead" needs the reach.
      Out.push_back(std::move(D));
    }
  }
};

//===----------------------------------------------------------------------===//
// HPT004 may-fail-cast: the paper's cast-safety client.
//===----------------------------------------------------------------------===//

class MayFailCastChecker : public BuiltinChecker {
public:
  MayFailCastChecker()
      : BuiltinChecker({"may-fail-cast", "HPT004", "MayFailCast",
                        "A reference cast may observe an object that is not "
                        "a subtype of the cast target",
                        Severity::Warning, Direction::May}) {}

  void run(const AnalysisResult &R, std::vector<Diagnostic> &Out) const override {
    const Program &P = R.program();
    for (const CastCheck &C : checkCasts(R)) {
      if (C.Verdict != CastVerdict::MayFail)
        continue;
      const CastSite &Site = P.castSite(C.Site);
      Diagnostic D = blank();
      D.SiteKey = "cast:" + std::to_string(C.Site);
      D.Message = "cast of `" + varName(P, Site.From) + "` to " +
                  P.text(P.type(Site.Target).Name) + " may fail in " +
                  P.qualifiedName(Site.InMethod);
      D.Method = Site.InMethod;
      D.Line = Site.Line;
      if (!C.Offenders.empty()) {
        // Why may the cast fail?  Because `from` may hold the first
        // offending allocation — the derivation of exactly that fact.
        D.WhyVar = Site.From;
        D.WhyHeap = C.Offenders.front();
      }
      for (size_t I = 0; I != C.Offenders.size() && I != MaxEvidence; ++I)
        D.Evidence.push_back("may hold " + heapDesc(P, C.Offenders[I]));
      capEvidence(D.Evidence, C.Offenders.size());
      Out.push_back(std::move(D));
    }
  }
};

//===----------------------------------------------------------------------===//
// HPT005 poly-vcall: the paper's devirtualization client, inverted — sites
// that resist devirtualization.
//===----------------------------------------------------------------------===//

class PolyVCallChecker : public BuiltinChecker {
public:
  PolyVCallChecker()
      : BuiltinChecker({"poly-vcall", "HPT005", "PolymorphicVirtualCall",
                        "A virtual call site may dispatch to two or more "
                        "targets, so it cannot be devirtualized",
                        Severity::Note, Direction::May}) {}

  void run(const AnalysisResult &R, std::vector<Diagnostic> &Out) const override {
    const Program &P = R.program();
    for (const DevirtSite &S : devirtualizeCalls(R)) {
      if (S.Verdict != DevirtVerdict::Polymorphic)
        continue;
      const InvokeInfo &Inv = P.invoke(S.Invo);
      Diagnostic D = blank();
      D.SiteKey = "invoke:" + std::to_string(S.Invo.index());
      D.Message = "virtual call `" + P.text(Inv.Name) + "` in " +
                  P.qualifiedName(Inv.InMethod) + " has " +
                  std::to_string(S.Targets.size()) + " possible targets";
      D.Method = Inv.InMethod;
      D.Line = Inv.Line;
      for (size_t I = 0; I != S.Targets.size() && I != MaxEvidence; ++I)
        D.Evidence.push_back("may dispatch to " +
                             P.qualifiedName(S.Targets[I]));
      capEvidence(D.Evidence, S.Targets.size());
      Out.push_back(std::move(D));
    }
  }
};

//===----------------------------------------------------------------------===//
// HPT006 method-escape: the allocation flows out of its allocating method.
//===----------------------------------------------------------------------===//

class MethodEscapeChecker : public BuiltinChecker {
public:
  MethodEscapeChecker()
      : BuiltinChecker({"method-escape", "HPT006", "MethodEscape",
                        "An allocated object may escape its allocating "
                        "method via a return, a static field, or a store "
                        "into an escaping object",
                        Severity::Note, Direction::May}) {}

  void run(const AnalysisResult &R, std::vector<Diagnostic> &Out) const override {
    const Program &P = R.program();
    for (const EscapeInfo &E : computeEscapes(R)) {
      const HeapInfo &H = P.heap(E.Heap);
      Diagnostic D = blank();
      D.SiteKey = "heap:" + std::to_string(E.Heap.index());
      D.Message = "object `" + P.text(H.Name) + "` may escape " +
                  P.qualifiedName(H.InMethod);
      D.Method = H.InMethod;
      D.Line = H.Line;
      D.Evidence.push_back(E.Reason);
      Out.push_back(std::move(D));
    }
  }
};

//===----------------------------------------------------------------------===//
// HPT007 tainted-sink: spec-declared sink may receive tainted data.
//===----------------------------------------------------------------------===//

class TaintedSinkChecker : public BuiltinChecker {
public:
  TaintedSinkChecker()
      : BuiltinChecker({"tainted-sink", "HPT007", "TaintedSink",
                        "An argument of a taint-spec sink call may receive "
                        "data born at a taint source without passing a "
                        "sanitizer",
                        Severity::Warning, Direction::May}) {}

  void run(const AnalysisResult &R, std::vector<Diagnostic> &Out) const override {
    // Reports nothing on ordinary programs: only taint::instrument()
    // attaches sink metadata, so every non-taint pipeline is unaffected.
    const Program &P = R.program();
    for (const TaintedSink &S : findTaintedSinks(R)) {
      const InvokeInfo &Inv = P.invoke(S.Site);
      Diagnostic D = blank();
      D.SiteKey = "sink:" + std::to_string(S.Site.index()) + ":" +
                  std::to_string(S.ArgIdx) + ":" + std::to_string(S.TagIdx);
      D.Message = "argument " + std::to_string(S.ArgIdx) + " of sink call `" +
                  P.text(Inv.Name) + "` may receive `" +
                  P.taintTags()[S.TagIdx] + "`-tainted data in " +
                  P.qualifiedName(Inv.InMethod);
      D.Method = Inv.InMethod;
      D.Line = Inv.Line;
      // Why is the sink tainted?  Because the actual may hold the witness
      // taint object — its derivation is the source-to-sink flow.
      D.WhyVar = S.Actual;
      D.WhyHeap = S.Witness;
      D.Evidence.push_back("may hold " + heapDesc(P, S.Witness) +
                           " tagged `" + P.taintTags()[S.TagIdx] + "`");
      Out.push_back(std::move(D));
    }
  }
};

} // namespace

namespace pt {
namespace checks {

void registerBuiltinCheckers(CheckerRegistry &R) {
  R.add(UninitDerefChecker().info(),
        [] { return std::make_unique<UninitDerefChecker>(); });
  R.add(UnreachableMethodChecker().info(),
        [] { return std::make_unique<UnreachableMethodChecker>(); });
  R.add(DeadVCallChecker().info(),
        [] { return std::make_unique<DeadVCallChecker>(); });
  R.add(MayFailCastChecker().info(),
        [] { return std::make_unique<MayFailCastChecker>(); });
  R.add(PolyVCallChecker().info(),
        [] { return std::make_unique<PolyVCallChecker>(); });
  R.add(MethodEscapeChecker().info(),
        [] { return std::make_unique<MethodEscapeChecker>(); });
  R.add(TaintedSinkChecker().info(),
        [] { return std::make_unique<TaintedSinkChecker>(); });
}

} // namespace checks
} // namespace pt
