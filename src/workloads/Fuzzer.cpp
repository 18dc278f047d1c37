//===- workloads/Fuzzer.cpp -----------------------------------------------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//

#include "workloads/Fuzzer.h"

#include "ir/Program.h"
#include "ir/ProgramBuilder.h"
#include "support/Rng.h"

#include <string>
#include <vector>

using namespace pt;

namespace {

/// "<Prefix><I>", built by appending: GCC 12 reports a false -Wrestrict
/// on `"lit" + std::to_string(I)` once it is inlined.
std::string numbered(const char *Prefix, uint32_t I) {
  std::string Name = Prefix;
  Name += std::to_string(I);
  return Name;
}

} // namespace

std::unique_ptr<Program> pt::fuzzProgram(uint64_t Seed,
                                         const FuzzOptions &Opts) {
  Rng R(Seed);
  ProgramBuilder B;

  // Hierarchy: type 0 is the root; later types pick a random earlier
  // supertype.  All concrete (fuzz programs may allocate anything).
  std::vector<TypeId> Types;
  Types.push_back(B.addType("T0"));
  for (uint32_t I = 1; I < Opts.Types; ++I) {
    TypeId Super = Types[R.below(Types.size())];
    Types.push_back(B.addType(numbered("T", I), Super));
  }

  std::vector<FieldId> Fields;
  for (uint32_t I = 0; I < Opts.Fields; ++I)
    Fields.push_back(
        B.addField(Types[R.below(Types.size())], numbered("f", I)));
  std::vector<FieldId> StaticFields;
  for (uint32_t I = 0; I < 2; ++I)
    StaticFields.push_back(B.addStaticField(Types[R.below(Types.size())],
                                            numbered("g", I)));

  // A small pool of dispatch signatures, arity 0..2.
  struct SigEntry {
    SigId Sig;
    uint32_t Arity;
  };
  std::vector<SigEntry> Sigs;
  for (uint32_t I = 0; I < 4; ++I) {
    uint32_t Arity = static_cast<uint32_t>(R.below(3));
    Sigs.push_back({B.getSig(numbered("vm", I), Arity), Arity});
  }

  // Declare methods first (so calls can reference any of them), bodies
  // second.
  struct MethodEntry {
    MethodId M;
    bool IsStatic;
    uint32_t Arity;
  };
  std::vector<MethodEntry> Methods;
  for (uint32_t I = 0; I < Opts.Methods; ++I) {
    TypeId Owner = Types[R.below(Types.size())];
    bool IsStatic = R.chancePercent(40);
    if (IsStatic) {
      uint32_t Arity = static_cast<uint32_t>(R.below(3));
      MethodId M =
          B.addMethod(Owner, numbered("sm", I), Arity, true);
      Methods.push_back({M, true, Arity});
    } else {
      // Instance methods implement one of the pool signatures so virtual
      // calls sometimes resolve.  A type can define a signature once, so
      // retry a few times and fall back to a unique name.
      const SigEntry &SE = Sigs[R.below(Sigs.size())];
      std::string Name = B.current().text(
          B.current().sig(SE.Sig).Name);
      // Avoid duplicate (type, sig): scan existing methods.
      bool Dup = false;
      for (const MethodEntry &E : Methods) {
        const MethodInfo &Info = B.current().method(E.M);
        if (Info.Owner == Owner && !Info.IsStatic && Info.Sig == SE.Sig)
          Dup = true;
      }
      if (Dup) {
        uint32_t Arity = static_cast<uint32_t>(R.below(3));
        MethodId M =
            B.addMethod(Owner, numbered("im", I), Arity, false);
        Methods.push_back({M, false, Arity});
      } else {
        MethodId M = B.addMethod(Owner, Name, SE.Arity, false);
        Methods.push_back({M, false, SE.Arity});
      }
    }
  }

  // Bodies.
  for (const MethodEntry &E : Methods) {
    std::vector<VarId> Vars;
    const MethodInfo &Info = B.current().method(E.M);
    if (Info.This.isValid())
      Vars.push_back(Info.This);
    for (VarId F : Info.Formals)
      Vars.push_back(F);
    uint32_t NumLocals = 1 + static_cast<uint32_t>(R.below(Opts.MaxLocals));
    for (uint32_t I = 0; I < NumLocals; ++I)
      Vars.push_back(B.addLocal(E.M, numbered("l", I)));

    auto PickVar = [&]() { return Vars[R.below(Vars.size())]; };
    auto PickVars = [&](uint32_t N) {
      std::vector<VarId> Out;
      for (uint32_t I = 0; I < N; ++I)
        Out.push_back(PickVar());
      return Out;
    };

    uint32_t NumInstr =
        1 + static_cast<uint32_t>(R.below(Opts.MaxInstrPerMethod));
    for (uint32_t I = 0; I < NumInstr; ++I) {
      switch (R.below(10)) {
      case 0:
        B.addAlloc(E.M, PickVar(), Types[R.below(Types.size())]);
        break;
      case 1:
        B.addMove(E.M, PickVar(), PickVar());
        break;
      case 2:
        B.addCast(E.M, PickVar(), PickVar(), Types[R.below(Types.size())]);
        break;
      case 3:
        B.addLoad(E.M, PickVar(), PickVar(), Fields[R.below(Fields.size())]);
        break;
      case 4:
        B.addStore(E.M, PickVar(), Fields[R.below(Fields.size())],
                   PickVar());
        break;
      case 5: {
        const SigEntry &SE = Sigs[R.below(Sigs.size())];
        VarId Ret = R.chancePercent(60) ? PickVar() : VarId::invalid();
        B.addVCall(E.M, PickVar(), SE.Sig, PickVars(SE.Arity), Ret);
        break;
      }
      case 6:
        B.addSLoad(E.M, PickVar(),
                   StaticFields[R.below(StaticFields.size())]);
        break;
      case 7:
        B.addSStore(E.M, StaticFields[R.below(StaticFields.size())],
                    PickVar());
        break;
      case 8:
        B.addThrow(E.M, PickVar());
        break;
      default: {
        // Static call to any static method (possibly this one: recursion).
        std::vector<const MethodEntry *> Statics;
        for (const MethodEntry &T : Methods)
          if (T.IsStatic)
            Statics.push_back(&T);
        if (Statics.empty()) {
          B.addMove(E.M, PickVar(), PickVar());
          break;
        }
        const MethodEntry *T = Statics[R.below(Statics.size())];
        VarId Ret = R.chancePercent(60) ? PickVar() : VarId::invalid();
        B.addSCall(E.M, T->M, PickVars(T->Arity), Ret);
        break;
      }
      }
    }
    // Some methods carry exception handlers.
    if (R.chancePercent(30)) {
      VarId HV = B.addHandler(E.M, Types[R.below(Types.size())], "h");
      // The handler variable feeds back into the soup.
      B.addMove(E.M, PickVar(), HV);
    }
    // Half the non-void-compatible methods return a variable.
    if (R.chancePercent(60))
      B.setReturn(E.M, PickVar());
  }

  // Entry: a fresh static main calling a few static methods and seeding
  // some allocations (so instance methods become reachable via dispatch).
  MethodId Main = B.addMethod(Types[0], "fuzzmain", 0, true);
  std::vector<VarId> MainVars;
  for (uint32_t I = 0; I < 4; ++I) {
    VarId V = B.addLocal(Main, numbered("m", I));
    B.addAlloc(Main, V, Types[R.below(Types.size())]);
    MainVars.push_back(V);
  }
  for (uint32_t I = 0; I < 4; ++I) {
    const SigEntry &SE = Sigs[R.below(Sigs.size())];
    std::vector<VarId> Args;
    for (uint32_t A = 0; A < SE.Arity; ++A)
      Args.push_back(MainVars[R.below(MainVars.size())]);
    B.addVCall(Main, MainVars[R.below(MainVars.size())], SE.Sig, Args);
  }
  for (const MethodEntry &E : Methods) {
    if (E.IsStatic && R.chancePercent(50)) {
      std::vector<VarId> Args;
      for (uint32_t A = 0; A < E.Arity; ++A)
        Args.push_back(MainVars[R.below(MainVars.size())]);
      B.addSCall(Main, E.M, Args);
    }
  }
  B.addEntryPoint(Main);

  return B.build();
}
