//===- irtext/Printer.cpp - PTIR text printer -------------------------------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//

#include "irtext/TextFormat.h"

#include "ir/Program.h"

#include <sstream>
#include <unordered_map>
#include <unordered_set>

using namespace pt;

namespace {

/// Unique printable name per variable of one method.  Formals and `this`
/// keep their canonical names (the parser re-creates them); other locals
/// get their stored name, uniquified with a `$index` suffix on collision.
class VarNamer {
public:
  VarNamer(const Program &Prog, MethodId M) : Prog(Prog) {
    const MethodInfo &Info = Prog.method(M);
    if (Info.This.isValid())
      Names[Info.This.index()] = "this";
    Used.insert("this");
    for (size_t I = 0; I < Info.Formals.size(); ++I) {
      std::string N = "p";
      N += std::to_string(I);
      Names[Info.Formals[I].index()] = N;
      Used.insert(std::move(N));
    }
  }

  const std::string &name(VarId V) {
    auto It = Names.find(V.index());
    if (It != Names.end())
      return It->second;
    const std::string &Text = Prog.text(Prog.var(V).Name);
    std::string Base = Text.empty() ? std::string("v") : Text;
    std::string Candidate = Base;
    uint32_t Suffix = 0;
    while (Used.count(Candidate)) {
      Candidate = Base;
      Candidate += '$';
      Candidate += std::to_string(Suffix++);
    }
    Used.insert(Candidate);
    return Names.emplace(V.index(), std::move(Candidate)).first->second;
  }

private:
  const Program &Prog;
  std::unordered_map<uint32_t, std::string> Names;
  std::unordered_set<std::string> Used;
};

std::string sigText(const Program &Prog, SigId S) {
  const SigInfo &Info = Prog.sig(S);
  return Prog.text(Info.Name) + "/" + std::to_string(Info.Arity);
}

std::string fieldPath(const Program &Prog, FieldId F) {
  const FieldInfo &Info = Prog.field(F);
  return Prog.text(Prog.type(Info.Owner).Name) + "::" +
         Prog.text(Info.Name);
}

std::string methodPath(const Program &Prog, MethodId M) {
  const MethodInfo &Info = Prog.method(M);
  return Prog.text(Prog.type(Info.Owner).Name) + "::" +
         sigText(Prog, Info.Sig);
}

} // namespace

std::string pt::printProgram(const Program &Prog) {
  std::ostringstream OS;

  // Group methods under their declaring class, in declaration order.
  std::vector<std::vector<MethodId>> MethodsOf(Prog.numTypes());
  for (size_t I = 0; I < Prog.numMethods(); ++I) {
    MethodId M = MethodId::fromIndex(I);
    MethodsOf[Prog.method(M).Owner.index()].push_back(M);
  }
  std::vector<std::vector<FieldId>> FieldsOf(Prog.numTypes());
  for (size_t I = 0; I < Prog.numFields(); ++I) {
    FieldId F = FieldId::fromIndex(I);
    FieldsOf[Prog.field(F).Owner.index()].push_back(F);
  }

  for (size_t TI = 0; TI < Prog.numTypes(); ++TI) {
    TypeId T = TypeId::fromIndex(TI);
    const TypeInfo &Info = Prog.type(T);
    OS << "class " << Prog.text(Info.Name);
    if (Info.Super.isValid())
      OS << " extends " << Prog.text(Prog.type(Info.Super).Name);
    if (Info.IsAbstract)
      OS << " abstract";
    OS << " {\n";

    for (FieldId F : FieldsOf[TI]) {
      if (Prog.field(F).IsStatic)
        OS << "  static field " << Prog.text(Prog.field(F).Name) << "\n";
      else
        OS << "  field " << Prog.text(Prog.field(F).Name) << "\n";
    }

    for (MethodId M : MethodsOf[TI]) {
      const MethodInfo &MInfo = Prog.method(M);
      OS << "  ";
      if (MInfo.IsStatic)
        OS << "static ";
      OS << "method " << sigText(Prog, MInfo.Sig) << " {\n";
      VarNamer Namer(Prog, M);

      // Locals no instruction mentions are only expressible as explicit
      // `var` declarations; emit them first so the count survives reparse.
      std::unordered_set<uint32_t> Referenced;
      auto Ref = [&](VarId V) {
        if (V.isValid())
          Referenced.insert(V.index());
      };
      Ref(MInfo.This);
      for (VarId F : MInfo.Formals)
        Ref(F);
      for (const AllocInstr &A : MInfo.Allocs)
        Ref(A.Var);
      for (const MoveInstr &Mv : MInfo.Moves) {
        Ref(Mv.To);
        Ref(Mv.From);
      }
      for (const CastInstr &C : MInfo.Casts) {
        Ref(C.To);
        Ref(C.From);
      }
      for (const LoadInstr &L : MInfo.Loads) {
        Ref(L.To);
        Ref(L.Base);
      }
      for (const StoreInstr &S : MInfo.Stores) {
        Ref(S.Base);
        Ref(S.From);
      }
      for (const SanitizeInstr &S : MInfo.Sanitizes) {
        Ref(S.To);
        Ref(S.From);
      }
      for (const SLoadInstr &L : MInfo.SLoads)
        Ref(L.To);
      for (const SStoreInstr &S : MInfo.SStores)
        Ref(S.From);
      for (InvokeId Inv : MInfo.Invokes) {
        const InvokeInfo &Call = Prog.invoke(Inv);
        Ref(Call.RetTo);
        Ref(Call.Base);
        for (VarId A : Call.Actuals)
          Ref(A);
      }
      for (const ThrowInstr &T : MInfo.Throws)
        Ref(T.V);
      for (const HandlerInfo &H : MInfo.Handlers)
        Ref(H.Var);
      Ref(MInfo.Return);
      for (VarId V : MInfo.Locals)
        if (!Referenced.count(V.index()))
          OS << "    var " << Namer.name(V) << "\n";

      for (const AllocInstr &A : MInfo.Allocs)
        OS << "    new " << Namer.name(A.Var) << ' '
           << Prog.text(Prog.type(Prog.heap(A.Heap).Type).Name) << "\n";
      for (const MoveInstr &Mv : MInfo.Moves)
        OS << "    move " << Namer.name(Mv.To) << ' '
           << Namer.name(Mv.From) << "\n";
      for (const CastInstr &C : MInfo.Casts)
        OS << "    cast " << Namer.name(C.To) << ' '
           << Prog.text(Prog.type(C.Target).Name) << ' '
           << Namer.name(C.From) << "\n";
      for (const LoadInstr &L : MInfo.Loads)
        OS << "    load " << Namer.name(L.To) << ' ' << Namer.name(L.Base)
           << ' ' << fieldPath(Prog, L.Fld) << "\n";
      for (const StoreInstr &S : MInfo.Stores)
        OS << "    store " << Namer.name(S.Base) << ' '
           << fieldPath(Prog, S.Fld) << ' ' << Namer.name(S.From) << "\n";
      for (const SanitizeInstr &S : MInfo.Sanitizes)
        OS << "    sanitize " << Namer.name(S.To) << ' '
           << Namer.name(S.From) << "\n";
      for (const SLoadInstr &L : MInfo.SLoads)
        OS << "    sload " << Namer.name(L.To) << ' '
           << fieldPath(Prog, L.Fld) << "\n";
      for (const SStoreInstr &S : MInfo.SStores)
        OS << "    sstore " << fieldPath(Prog, S.Fld) << ' '
           << Namer.name(S.From) << "\n";
      for (InvokeId Inv : MInfo.Invokes) {
        const InvokeInfo &Call = Prog.invoke(Inv);
        if (Call.IsStatic) {
          OS << "    scall ";
          if (Call.RetTo.isValid())
            OS << Namer.name(Call.RetTo) << ' ';
          OS << methodPath(Prog, Call.Target);
        } else {
          OS << "    vcall ";
          if (Call.RetTo.isValid())
            OS << Namer.name(Call.RetTo) << ' ';
          OS << Namer.name(Call.Base) << ' ' << sigText(Prog, Call.Sig);
        }
        for (VarId A : Call.Actuals)
          OS << ' ' << Namer.name(A);
        OS << "\n";
      }
      for (const ThrowInstr &T : MInfo.Throws)
        OS << "    throw " << Namer.name(T.V) << "\n";
      for (const HandlerInfo &H : MInfo.Handlers)
        OS << "    catch " << Prog.text(Prog.type(H.CatchType).Name) << ' '
           << Namer.name(H.Var) << "\n";
      if (MInfo.Return.isValid())
        OS << "    return " << Namer.name(MInfo.Return) << "\n";
      OS << "  }\n";
    }
    OS << "}\n";
  }

  for (MethodId E : Prog.entryPoints())
    OS << "entry " << methodPath(Prog, E) << "\n";
  return OS.str();
}

VarId pt::findVarByPath(const Program &Prog, std::string_view Path) {
  // Split into Class::name/arity::var.
  size_t LastSep = Path.rfind("::");
  if (LastSep == std::string_view::npos)
    return VarId::invalid();
  std::string_view VarName = Path.substr(LastSep + 2);
  MethodId M = findMethodByPath(Prog, Path.substr(0, LastSep));
  if (!M.isValid())
    return VarId::invalid();
  for (VarId V : Prog.method(M).Locals)
    if (Prog.text(Prog.var(V).Name) == VarName)
      return V;
  return VarId::invalid();
}

MethodId pt::findMethodByPath(const Program &Prog, std::string_view Path) {
  size_t Sep = Path.find("::");
  if (Sep == std::string_view::npos)
    return MethodId::invalid();
  std::string_view ClassName = Path.substr(0, Sep);
  std::string_view SigPart = Path.substr(Sep + 2);
  size_t Slash = SigPart.rfind('/');
  if (Slash == std::string_view::npos)
    return MethodId::invalid();
  std::string_view Name = SigPart.substr(0, Slash);
  uint32_t Arity = static_cast<uint32_t>(
      std::strtoul(std::string(SigPart.substr(Slash + 1)).c_str(), nullptr,
                   10));
  for (size_t I = 0; I < Prog.numMethods(); ++I) {
    MethodId M = MethodId::fromIndex(I);
    const MethodInfo &Info = Prog.method(M);
    if (Prog.text(Prog.type(Info.Owner).Name) != ClassName)
      continue;
    const SigInfo &Sig = Prog.sig(Info.Sig);
    if (Prog.text(Sig.Name) == Name && Sig.Arity == Arity)
      return M;
  }
  return MethodId::invalid();
}

HeapId pt::findHeapByName(const Program &Prog, std::string_view Name) {
  for (size_t H = 0; H < Prog.numHeaps(); ++H) {
    HeapId Id = HeapId::fromIndex(H);
    if (Prog.text(Prog.heap(Id).Name) == Name)
      return Id;
  }
  return HeapId();
}
