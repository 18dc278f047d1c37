//===- taint/Taint.cpp ------------------------------------------------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//

#include "taint/Taint.h"

#include "ir/Program.h"
#include "ir/ProgramBuilder.h"

#include <algorithm>
#include <cassert>

using namespace pt;
using namespace pt::taint;

namespace {

/// Callee components of one invocation site, for spec matching.  Virtual
/// sites have no owner (matched against any pattern owner — see
/// TaintSpec.h for why).
struct CalleeKey {
  std::string_view Owner; // empty for virtual sites
  std::string_view Name;
  uint32_t Arity = 0;
  bool IsStatic = false;
};

CalleeKey calleeKey(const Program &Prog, const InvokeInfo &I) {
  CalleeKey K;
  K.IsStatic = I.IsStatic;
  if (I.IsStatic) {
    const MethodInfo &Callee = Prog.method(I.Target);
    K.Owner = Prog.text(Prog.type(Callee.Owner).Name);
    K.Name = Prog.text(Callee.Name);
    K.Arity = Prog.sig(Callee.Sig).Arity;
  } else {
    const SigInfo &S = Prog.sig(I.Sig);
    K.Name = Prog.text(S.Name);
    K.Arity = S.Arity;
  }
  return K;
}

bool matches(const SigPattern &P, const CalleeKey &K) {
  if (P.Name != K.Name || P.Arity != K.Arity)
    return false;
  // Static sites resolve the callee, so the owner is checkable; virtual
  // sites match on the dispatch signature alone (the receiver's type is
  // what the analysis is computing).
  if (K.IsStatic && P.Owner != "*" && P.Owner != K.Owner)
    return false;
  return true;
}

/// splitmix64 — the deterministic RNG behind syntheticSpec.
struct Rng {
  uint64_t X;
  explicit Rng(uint64_t Seed) : X(Seed) {}
  uint64_t next() {
    X += 0x9E3779B97F4A7C15ULL;
    uint64_t Z = X;
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
    return Z ^ (Z >> 31);
  }
};

} // namespace

TaintPlan pt::taint::resolve(const TaintSpec &Spec, const Program &Prog) {
  TaintPlan Plan;

  // Tag indices come from the spec alone (appearance order), so the same
  // spec yields the same tag numbering on every program — the fuzz oracle
  // compares (site, arg, tag) keys across the original and instrumented
  // programs and relies on this.
  auto tagIndex = [&Plan](const std::string &Tag) -> uint32_t {
    for (uint32_t I = 0; I < Plan.Tags.size(); ++I)
      if (Plan.Tags[I] == Tag)
        return I;
    Plan.Tags.push_back(Tag);
    return static_cast<uint32_t>(Plan.Tags.size() - 1);
  };
  std::vector<uint32_t> SourceTag(Spec.Sources.size());
  for (size_t R = 0; R < Spec.Sources.size(); ++R)
    SourceTag[R] = tagIndex(Spec.Sources[R].Tag);

  for (uint32_t Idx = 0; Idx < Prog.numInvokes(); ++Idx) {
    InvokeId Site(Idx);
    CalleeKey K = calleeKey(Prog, Prog.invoke(Site));

    // A site matching both source and sanitizer rules is a source: the
    // first matching source rule decides its tag.
    bool IsSource = false;
    for (size_t R = 0; R < Spec.Sources.size(); ++R) {
      if (!matches(Spec.Sources[R].Pattern, K))
        continue;
      // Parsing rejects > 64 distinct tags; keep the invariant even on
      // hand-built specs so the interpreter's 64-bit shadow mask holds.
      if (SourceTag[R] < 64) {
        Plan.Sources.push_back({Site, SourceTag[R]});
        IsSource = true;
      }
      break;
    }
    if (!IsSource)
      for (const SanitizeRule &R : Spec.Sanitizers)
        if (matches(R.Pattern, K)) {
          Plan.Sanitizers.push_back(Site);
          break;
        }

    // Sink rules are independent of the above (they constrain arguments,
    // not the return value); several may hit distinct argument positions.
    for (const SinkRule &R : Spec.Sinks) {
      if (R.ArgIdx >= K.Arity || !matches(R.Pattern, K))
        continue;
      std::pair<InvokeId, uint32_t> Key{Site, R.ArgIdx};
      if (std::find(Plan.Sinks.begin(), Plan.Sinks.end(), Key) ==
          Plan.Sinks.end())
        Plan.Sinks.push_back(Key);
    }
  }
  return Plan;
}

std::unique_ptr<Program> pt::taint::instrument(const Program &Prog,
                                               const TaintPlan &Plan) {
  ProgramBuilder B;

  // The replay below keeps every global id space of the original program
  // intact by re-creating entities in table order: types, fields, and
  // signatures first, then methods (variable ids are NOT preserved — the
  // old->new map bridges them), then allocations sorted by heap id, casts
  // by site index, and invocations in global id order.  Per-method
  // relative instruction order is preserved automatically because each
  // method's entries form an ascending subsequence of the global order.
  // All taint entities append strictly after the originals.

  const size_t OrigTypes = Prog.numTypes();
  for (uint32_t I = 0; I < OrigTypes; ++I) {
    const TypeInfo &T = Prog.type(TypeId(I));
    B.addType(Prog.text(T.Name), T.Super, T.IsAbstract, T.DeclLine);
  }
  for (uint32_t I = 0; I < Prog.numFields(); ++I) {
    const FieldInfo &F = Prog.field(FieldId(I));
    if (F.IsStatic)
      B.addStaticField(F.Owner, Prog.text(F.Name));
    else
      B.addField(F.Owner, Prog.text(F.Name));
  }
  for (uint32_t I = 0; I < Prog.numSigs(); ++I) {
    const SigInfo &S = Prog.sig(SigId(I));
    B.getSig(Prog.text(S.Name), S.Arity);
  }

  std::vector<VarId> VarMap(Prog.numVars());
  for (uint32_t I = 0; I < Prog.numMethods(); ++I) {
    MethodId Old(I);
    const MethodInfo &M = Prog.method(Old);
    MethodId New = B.addMethod(M.Owner, Prog.text(M.Name),
                               Prog.sig(M.Sig).Arity, M.IsStatic, M.DeclLine);
    assert(New == Old && "method ids must replay stably");
    if (M.This.isValid())
      VarMap[M.This.index()] = B.thisVar(New);
    for (uint32_t F = 0; F < M.Formals.size(); ++F)
      VarMap[M.Formals[F].index()] = B.formal(New, F);
    for (VarId L : M.Locals) {
      if (VarMap[L.index()].isValid())
        continue; // this / formal, mapped above
      VarMap[L.index()] = B.addLocal(New, Prog.text(Prog.var(L).Name));
    }
    if (M.Return.isValid())
      B.setReturn(New, VarMap[M.Return.index()]);
  }

  // Allocations: one AllocInstr per heap id; replay in heap-id order.
  std::vector<const AllocInstr *> AllocOf(Prog.numHeaps(), nullptr);
  for (uint32_t I = 0; I < Prog.numMethods(); ++I)
    for (const AllocInstr &A : Prog.method(MethodId(I)).Allocs)
      AllocOf[A.Heap.index()] = &A;
  for (uint32_t H = 0; H < Prog.numHeaps(); ++H) {
    const AllocInstr *A = AllocOf[H];
    assert(A && "every heap has exactly one allocation site");
    const HeapInfo &Info = Prog.heap(HeapId(H));
    HeapId NewH =
        B.addAlloc(Info.InMethod, VarMap[A->Var.index()], Info.Type, A->Line);
    assert(NewH == HeapId(H) && "heap ids must replay stably");
    (void)NewH;
  }

  for (uint32_t S = 0; S < Prog.numCastSites(); ++S) {
    const CastSite &CS = Prog.castSite(S);
    uint32_t NewS = B.addCast(CS.InMethod, VarMap[CS.To.index()],
                              VarMap[CS.From.index()], CS.Target, CS.Line);
    assert(NewS == S && "cast sites must replay stably");
    (void)NewS;
  }

  // Invocations, with the sanitizer rewrite: a sanitizer call returns into
  // a fresh temporary, and a sanitize barrier moves the clean objects on
  // to the original return variable.
  std::vector<char> SanitizerAt(Prog.numInvokes(), 0);
  for (InvokeId S : Plan.Sanitizers)
    SanitizerAt[S.index()] = 1;
  for (uint32_t Idx = 0; Idx < Prog.numInvokes(); ++Idx) {
    const InvokeInfo &I = Prog.invoke(InvokeId(Idx));
    std::vector<VarId> Actuals;
    Actuals.reserve(I.Actuals.size());
    for (VarId A : I.Actuals)
      Actuals.push_back(VarMap[A.index()]);
    VarId RetTo =
        I.RetTo.isValid() ? VarMap[I.RetTo.index()] : VarId::invalid();
    VarId SanTmp = VarId::invalid();
    if (SanitizerAt[Idx] && RetTo.isValid()) {
      SanTmp = B.addLocal(I.InMethod, "$san" + std::to_string(Idx));
      std::swap(RetTo, SanTmp); // call returns into the temporary
    }
    InvokeId New =
        I.IsStatic
            ? B.addSCall(I.InMethod, I.Target, std::move(Actuals), RetTo,
                         I.Line)
            : B.addVCall(I.InMethod, VarMap[I.Base.index()], I.Sig,
                         std::move(Actuals), RetTo, I.Line);
    assert(New == InvokeId(Idx) && "invoke ids must replay stably");
    (void)New;
    if (SanTmp.isValid())
      B.addSanitize(I.InMethod, SanTmp, RetTo, I.Line);
  }

  // Remaining per-method instructions carry no global ids.
  for (uint32_t I = 0; I < Prog.numMethods(); ++I) {
    MethodId M(I);
    const MethodInfo &Body = Prog.method(M);
    auto V = [&](VarId Old) { return VarMap[Old.index()]; };
    for (const MoveInstr &X : Body.Moves)
      B.addMove(M, V(X.To), V(X.From), X.Line);
    for (const LoadInstr &X : Body.Loads)
      B.addLoad(M, V(X.To), V(X.Base), X.Fld, X.Line);
    for (const StoreInstr &X : Body.Stores)
      B.addStore(M, V(X.Base), X.Fld, V(X.From), X.Line);
    for (const SanitizeInstr &X : Body.Sanitizes)
      B.addSanitize(M, V(X.To), V(X.From), X.Line);
    for (const SLoadInstr &X : Body.SLoads)
      B.addSLoad(M, V(X.To), X.Fld, X.Line);
    for (const SStoreInstr &X : Body.SStores)
      B.addSStore(M, X.Fld, V(X.From), X.Line);
    for (const ThrowInstr &X : Body.Throws)
      B.addThrow(M, V(X.V), X.Line);
    for (const HandlerInfo &X : Body.Handlers)
      B.addHandlerTo(M, X.CatchType, V(X.Var), X.Line);
  }
  for (MethodId E : Prog.entryPoints())
    B.addEntryPoint(E);
  B.setSourceName(Prog.sourceName());

  // --- Taint entities, appended after the full original program ---

  for (const std::string &Tag : Plan.Tags)
    B.addTaintTag(Tag);

  // Per tag: one root "marker" type (its objects match no program type,
  // covering taint that travels as an otherwise-null value) and one leaf
  // subtype of every concrete original type U, so a taint object passes
  // exactly the casts and dispatches a U-object would.
  auto freshTypeName = [&B](std::string Name) {
    while (B.findType(Name).isValid())
      Name += "$";
    return Name;
  };
  std::vector<TypeId> RootOf(Plan.Tags.size());
  std::vector<std::vector<TypeId>> LeavesOf(Plan.Tags.size());
  for (uint32_t T = 0; T < Plan.Tags.size(); ++T) {
    const std::string Base = Plan.Tags[T] + "$taint";
    RootOf[T] = B.addType(freshTypeName(Base));
    for (uint32_t U = 0; U < OrigTypes; ++U) {
      const TypeInfo &Ty = Prog.type(TypeId(U));
      if (Ty.IsAbstract)
        continue;
      LeavesOf[T].push_back(B.addType(
          freshTypeName(Base + "$" + Prog.text(Ty.Name)), TypeId(U)));
    }
  }

  // Source call sites: bind one tainted object of each taint type into the
  // call's return variable.  Sites that discard the return value have
  // nothing to taint.
  for (auto [Site, T] : Plan.Sources) {
    const InvokeInfo &I = Prog.invoke(Site);
    if (!I.RetTo.isValid())
      continue;
    VarId Ret = VarMap[I.RetTo.index()];
    HeapId H = B.addAlloc(I.InMethod, Ret, RootOf[T], I.Line);
    B.setHeapTaintTag(H, T + 1);
    for (TypeId Leaf : LeavesOf[T]) {
      H = B.addAlloc(I.InMethod, Ret, Leaf, I.Line);
      B.setHeapTaintTag(H, T + 1);
    }
  }

  for (auto [Site, ArgIdx] : Plan.Sinks)
    B.addTaintSink(Site, ArgIdx);

  return B.build();
}

TaintSpec pt::taint::syntheticSpec(const Program &Prog, uint64_t Seed) {
  TaintSpec Spec;

  // Candidate (name, arity) signatures, deduplicated in method-id order so
  // the pick below is deterministic for a given program and seed.
  std::vector<std::pair<std::string, uint32_t>> Cands;
  for (uint32_t I = 0; I < Prog.numMethods(); ++I) {
    const MethodInfo &M = Prog.method(MethodId(I));
    std::pair<std::string, uint32_t> Key{Prog.text(M.Name),
                                         Prog.sig(M.Sig).Arity};
    if (std::find(Cands.begin(), Cands.end(), Key) == Cands.end())
      Cands.push_back(std::move(Key));
  }
  if (Cands.empty())
    return Spec;
  std::vector<size_t> WithArgs;
  for (size_t I = 0; I < Cands.size(); ++I)
    if (Cands[I].second > 0)
      WithArgs.push_back(I);

  Rng R(Seed);
  auto pattern = [&Cands](size_t I) {
    return SigPattern{"*", Cands[I].first, Cands[I].second};
  };
  const uint32_t NumSources = 1 + R.next() % 2;
  for (uint32_t S = 0; S < NumSources; ++S) {
    std::string Tag = "t";
    Tag += std::to_string(S);
    Spec.Sources.push_back(
        {pattern(R.next() % Cands.size()), std::move(Tag)});
  }
  if (!WithArgs.empty()) {
    const uint32_t NumSinks = 1 + R.next() % 2;
    for (uint32_t S = 0; S < NumSinks; ++S) {
      size_t C = WithArgs[R.next() % WithArgs.size()];
      Spec.Sinks.push_back(
          {pattern(C), static_cast<uint32_t>(R.next() % Cands[C].second)});
    }
  }
  Spec.Sanitizers.push_back({pattern(R.next() % Cands.size())});
  return Spec;
}
