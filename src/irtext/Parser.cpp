//===- irtext/Parser.cpp - PTIR text parser --------------------------------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//

#include "irtext/TextFormat.h"

#include "ir/Program.h"
#include "ir/ProgramBuilder.h"

#include <cassert>
#include <cstdlib>
#include <unordered_map>

using namespace pt;

namespace {

struct Token {
  std::string_view Text;
  uint32_t Line = 0;
};

/// Whitespace tokenizer with `#` comments and standalone braces.
std::vector<Token> tokenize(std::string_view Text) {
  std::vector<Token> Tokens;
  uint32_t Line = 1;
  size_t I = 0;
  while (I < Text.size()) {
    char C = Text[I];
    if (C == '\n') {
      ++Line;
      ++I;
      continue;
    }
    if (C == ' ' || C == '\t' || C == '\r') {
      ++I;
      continue;
    }
    if (C == '#') {
      while (I < Text.size() && Text[I] != '\n')
        ++I;
      continue;
    }
    if (C == '{' || C == '}') {
      Tokens.push_back({Text.substr(I, 1), Line});
      ++I;
      continue;
    }
    size_t Start = I;
    while (I < Text.size() && Text[I] != ' ' && Text[I] != '\t' &&
           Text[I] != '\r' && Text[I] != '\n' && Text[I] != '{' &&
           Text[I] != '}' && Text[I] != '#')
      ++I;
    Tokens.push_back({Text.substr(Start, I - Start), Line});
  }
  return Tokens;
}

/// "name/arity" split; returns false on malformed arity.
bool splitSig(std::string_view Text, std::string_view &Name,
              uint32_t &Arity) {
  size_t Slash = Text.rfind('/');
  if (Slash == std::string_view::npos || Slash + 1 >= Text.size())
    return false;
  Name = Text.substr(0, Slash);
  Arity = 0;
  for (size_t I = Slash + 1; I < Text.size(); ++I) {
    if (Text[I] < '0' || Text[I] > '9')
      return false;
    Arity = Arity * 10 + static_cast<uint32_t>(Text[I] - '0');
  }
  return true;
}

class Parser {
public:
  Parser(std::string_view Text, std::string_view SourceName)
      : Tokens(tokenize(Text)) {
    B.setSourceName(SourceName);
  }

  ParseResult run();

private:
  // --- Token cursor ---
  bool atEnd() const { return Pos >= Tokens.size(); }
  const Token &peek() const { return Tokens[Pos]; }
  Token next() { return Tokens[Pos++]; }
  bool accept(std::string_view Text) {
    if (!atEnd() && peek().Text == Text) {
      ++Pos;
      return true;
    }
    return false;
  }
  void error(const Token &At, std::string Message) {
    Errors.push_back("line " + std::to_string(At.Line) + ": " +
                     std::move(Message));
  }
  void errorHere(std::string Message) {
    if (atEnd())
      Errors.push_back("at end of input: " + std::move(Message));
    else
      error(peek(), std::move(Message));
  }
  /// Skips to the matching close brace (error recovery).
  void skipBlock() {
    int Depth = 0;
    while (!atEnd()) {
      std::string_view T = next().Text;
      if (T == "{")
        ++Depth;
      if (T == "}" && --Depth <= 0)
        return;
    }
  }

  /// Skips a block whose opening brace was already consumed.
  void skipBlockFromHere() {
    int Depth = 1;
    while (!atEnd()) {
      std::string_view T = next().Text;
      if (T == "{")
        ++Depth;
      if (T == "}" && --Depth == 0)
        return;
    }
  }

  // --- Pass 1: declarations ---
  void scanDeclarations();
  void declareTypesTopologically();

  // --- Pass 2: bodies ---
  void parseBodies();
  void parseBody(MethodId M, size_t TokenBegin);
  VarId varFor(MethodId M, std::string_view Name);
  bool parseFieldRef(const Token &T, FieldId &Out);

  struct ClassDecl {
    Token Name;
    std::string Super; // empty = root
    bool IsAbstract = false;
    struct FieldDecl {
      Token Name;
      bool IsStatic;
    };
    std::vector<FieldDecl> Fields;
    struct MethodDecl {
      Token Sig; // name/arity token
      bool IsStatic = false;
      size_t BodyBegin = 0; // token index just after '{'
    };
    std::vector<MethodDecl> Methods;
  };

  std::vector<Token> Tokens;
  size_t Pos = 0;
  std::vector<std::string> Errors;

  ProgramBuilder B;
  std::vector<ClassDecl> Classes;
  std::vector<std::pair<Token, Token>> EntryDecls; // (owner, sig) pending

  std::unordered_map<std::string, FieldId> FieldByPath; // Owner::name
  std::unordered_map<std::string, MethodId> MethodByPath; // Owner::name/arity
  std::unordered_map<std::string, VarId> VarByPath; // per current method
  MethodId CurrentMethod;
};

void Parser::scanDeclarations() {
  while (!atEnd()) {
    Token T = next();
    if (T.Text == "class") {
      if (atEnd()) {
        error(T, "class name expected");
        return;
      }
      ClassDecl Decl;
      Decl.Name = next();
      if (accept("extends")) {
        if (atEnd()) {
          error(T, "supertype name expected");
          return;
        }
        Decl.Super = std::string(next().Text);
      }
      if (accept("abstract"))
        Decl.IsAbstract = true;
      if (!accept("{")) {
        errorHere("'{' expected after class header");
        continue;
      }
      // Members until matching '}'.
      while (!atEnd() && peek().Text != "}") {
        Token M = next();
        if (M.Text == "field") {
          if (atEnd()) {
            error(M, "field name expected");
            break;
          }
          Decl.Fields.push_back({next(), false});
        } else if (M.Text == "method" || M.Text == "static") {
          ClassDecl::MethodDecl MD;
          MD.IsStatic = M.Text == "static";
          if (MD.IsStatic && accept("field")) {
            if (atEnd()) {
              error(M, "field name expected");
              break;
            }
            Decl.Fields.push_back({next(), true});
            continue;
          }
          if (MD.IsStatic && !accept("method")) {
            errorHere("'method' expected after 'static'");
            skipBlock();
            continue;
          }
          if (atEnd()) {
            error(M, "method signature expected");
            break;
          }
          MD.Sig = next();
          if (!accept("{")) {
            errorHere("'{' expected after method signature");
            continue;
          }
          MD.BodyBegin = Pos;
          skipBlockFromHere();
          Decl.Methods.push_back(MD);
        } else {
          error(M, "unexpected token '" + std::string(M.Text) +
                       "' in class body");
        }
      }
      accept("}");
      Classes.push_back(std::move(Decl));
    } else if (T.Text == "entry") {
      if (atEnd()) {
        error(T, "entry target expected");
        return;
      }
      Token Target = next();
      EntryDecls.push_back({Target, Target});
    } else {
      error(T, "expected 'class' or 'entry', got '" + std::string(T.Text) +
                   "'");
    }
  }
}

void Parser::declareTypesTopologically() {
  // Repeatedly declare classes whose supertype is already known.
  std::vector<bool> Done(Classes.size(), false);
  size_t Remaining = Classes.size();
  bool Progress = true;
  while (Remaining > 0 && Progress) {
    Progress = false;
    for (size_t I = 0; I < Classes.size(); ++I) {
      if (Done[I])
        continue;
      const ClassDecl &D = Classes[I];
      TypeId Super;
      if (!D.Super.empty()) {
        Super = B.findType(D.Super);
        if (!Super.isValid())
          continue; // wait for the supertype
      }
      if (B.findType(D.Name.Text).isValid()) {
        error(D.Name, "duplicate class '" + std::string(D.Name.Text) + "'");
        Done[I] = true;
        --Remaining;
        continue;
      }
      B.addType(D.Name.Text, Super, D.IsAbstract, D.Name.Line);
      Done[I] = true;
      --Remaining;
      Progress = true;
    }
  }
  for (size_t I = 0; I < Classes.size(); ++I)
    if (!Done[I])
      error(Classes[I].Name, "unknown supertype '" + Classes[I].Super +
                                 "' (or inheritance cycle)");
}

ParseResult Parser::run() {
  scanDeclarations();
  declareTypesTopologically();

  // Fields and method headers.
  for (const ClassDecl &D : Classes) {
    TypeId Owner = B.findType(D.Name.Text);
    if (!Owner.isValid())
      continue;
    for (const ClassDecl::FieldDecl &F : D.Fields) {
      std::string Path = std::string(D.Name.Text) + "::" +
                         std::string(F.Name.Text);
      if (FieldByPath.count(Path)) {
        error(F.Name, "duplicate field '" + Path + "'");
        continue;
      }
      FieldByPath.emplace(Path, F.IsStatic
                                    ? B.addStaticField(Owner, F.Name.Text)
                                    : B.addField(Owner, F.Name.Text));
    }
    for (const ClassDecl::MethodDecl &MD : D.Methods) {
      std::string_view Name;
      uint32_t Arity = 0;
      if (!splitSig(MD.Sig.Text, Name, Arity)) {
        error(MD.Sig, "malformed method signature '" +
                          std::string(MD.Sig.Text) + "' (want name/arity)");
        continue;
      }
      std::string Path = std::string(D.Name.Text) + "::" +
                         std::string(MD.Sig.Text);
      if (MethodByPath.count(Path)) {
        error(MD.Sig, "duplicate method '" + Path + "'");
        continue;
      }
      MethodByPath.emplace(Path, B.addMethod(Owner, Name, Arity,
                                             MD.IsStatic, MD.Sig.Line));
    }
  }

  parseBodies();

  // Entries.
  for (const auto &[Target, Unused] : EntryDecls) {
    auto It = MethodByPath.find(std::string(Target.Text));
    if (It == MethodByPath.end()) {
      error(Target, "unknown entry method '" + std::string(Target.Text) +
                        "'");
      continue;
    }
    if (!B.current().method(It->second).IsStatic) {
      error(Target, "entry method must be static");
      continue;
    }
    B.addEntryPoint(It->second);
  }

  ParseResult Result;
  if (!Errors.empty()) {
    Result.Errors = std::move(Errors);
    return Result;
  }
  auto Prog = B.build();
  std::vector<std::string> ValidationErrors;
  if (!Prog->validate(ValidationErrors)) {
    Result.Errors = std::move(ValidationErrors);
    return Result;
  }
  Result.Prog = std::move(Prog);
  return Result;
}

VarId Parser::varFor(MethodId M, std::string_view Name) {
  std::string Key(Name);
  auto It = VarByPath.find(Key);
  if (It != VarByPath.end())
    return It->second;
  VarId V = B.addLocal(M, Name);
  VarByPath.emplace(std::move(Key), V);
  return V;
}

bool Parser::parseFieldRef(const Token &T, FieldId &Out) {
  auto It = FieldByPath.find(std::string(T.Text));
  if (It == FieldByPath.end()) {
    error(T, "unknown field '" + std::string(T.Text) +
                 "' (want Owner::name)");
    return false;
  }
  Out = It->second;
  return true;
}

void Parser::parseBodies() {
  for (const ClassDecl &D : Classes) {
    for (const ClassDecl::MethodDecl &MD : D.Methods) {
      std::string Path = std::string(D.Name.Text) + "::" +
                         std::string(MD.Sig.Text);
      auto It = MethodByPath.find(Path);
      if (It == MethodByPath.end())
        continue;
      parseBody(It->second, MD.BodyBegin);
    }
  }
}

void Parser::parseBody(MethodId M, size_t TokenBegin) {
  CurrentMethod = M;
  VarByPath.clear();
  const MethodInfo &Info = B.current().method(M);
  if (Info.This.isValid())
    VarByPath.emplace("this", Info.This);
  for (size_t I = 0; I < Info.Formals.size(); ++I) {
    std::string Name = "p";
    Name += std::to_string(I);
    VarByPath.emplace(std::move(Name), Info.Formals[I]);
  }

  Pos = TokenBegin;
  while (!atEnd() && peek().Text != "}") {
    Token Op = next();
    auto NeedToken = [&](const char *What) -> Token {
      if (atEnd() || peek().Text == "}" || peek().Text == "{") {
        error(Op, std::string("'") + std::string(Op.Text) + "': " + What +
                      " expected");
        return {std::string_view(), Op.Line};
      }
      return next();
    };

    if (Op.Text == "new") {
      Token Var = NeedToken("target variable");
      Token Type = NeedToken("type name");
      if (Var.Text.empty() || Type.Text.empty())
        continue;
      TypeId T = B.findType(Type.Text);
      if (!T.isValid()) {
        error(Type, "unknown type '" + std::string(Type.Text) + "'");
        continue;
      }
      B.addAlloc(M, varFor(M, Var.Text), T, Op.Line);
    } else if (Op.Text == "move") {
      Token To = NeedToken("target");
      Token From = NeedToken("source");
      if (To.Text.empty() || From.Text.empty())
        continue;
      B.addMove(M, varFor(M, To.Text), varFor(M, From.Text), Op.Line);
    } else if (Op.Text == "sanitize") {
      Token To = NeedToken("target");
      Token From = NeedToken("source");
      if (To.Text.empty() || From.Text.empty())
        continue;
      B.addSanitize(M, varFor(M, To.Text), varFor(M, From.Text), Op.Line);
    } else if (Op.Text == "cast") {
      Token To = NeedToken("target");
      Token Type = NeedToken("type");
      Token From = NeedToken("source");
      if (To.Text.empty() || Type.Text.empty() || From.Text.empty())
        continue;
      TypeId T = B.findType(Type.Text);
      if (!T.isValid()) {
        error(Type, "unknown type '" + std::string(Type.Text) + "'");
        continue;
      }
      B.addCast(M, varFor(M, To.Text), varFor(M, From.Text), T, Op.Line);
    } else if (Op.Text == "load") {
      Token To = NeedToken("target");
      Token Base = NeedToken("base");
      Token Fld = NeedToken("field");
      if (To.Text.empty() || Base.Text.empty() || Fld.Text.empty())
        continue;
      FieldId F;
      if (!parseFieldRef(Fld, F))
        continue;
      if (B.current().field(F).IsStatic) {
        error(Fld, "'load' on a static field; use 'sload'");
        continue;
      }
      B.addLoad(M, varFor(M, To.Text), varFor(M, Base.Text), F, Op.Line);
    } else if (Op.Text == "store") {
      Token Base = NeedToken("base");
      Token Fld = NeedToken("field");
      Token From = NeedToken("source");
      if (Base.Text.empty() || Fld.Text.empty() || From.Text.empty())
        continue;
      FieldId F;
      if (!parseFieldRef(Fld, F))
        continue;
      if (B.current().field(F).IsStatic) {
        error(Fld, "'store' on a static field; use 'sstore'");
        continue;
      }
      B.addStore(M, varFor(M, Base.Text), F, varFor(M, From.Text),
                 Op.Line);
    } else if (Op.Text == "sload") {
      Token To = NeedToken("target");
      Token Fld = NeedToken("field");
      if (To.Text.empty() || Fld.Text.empty())
        continue;
      FieldId F;
      if (!parseFieldRef(Fld, F))
        continue;
      if (!B.current().field(F).IsStatic) {
        error(Fld, "'sload' on an instance field; use 'load'");
        continue;
      }
      B.addSLoad(M, varFor(M, To.Text), F, Op.Line);
    } else if (Op.Text == "sstore") {
      Token Fld = NeedToken("field");
      Token From = NeedToken("source");
      if (Fld.Text.empty() || From.Text.empty())
        continue;
      FieldId F;
      if (!parseFieldRef(Fld, F))
        continue;
      if (!B.current().field(F).IsStatic) {
        error(Fld, "'sstore' on an instance field; use 'store'");
        continue;
      }
      B.addSStore(M, F, varFor(M, From.Text), Op.Line);
    } else if (Op.Text == "vcall" || Op.Text == "scall") {
      // Collect operand tokens to the end of the logical instruction:
      // operands are consumed greedily based on the signature's arity,
      // with the optional RET disambiguated by token count.  Scan forward:
      // find the signature token (contains '/').
      std::vector<Token> Operands;
      // Maximum operands: ret + base/target + args; read until a token
      // that starts a new instruction or ends the block.  Since variable
      // names are unconstrained, rely on the arity: first locate the
      // signature token among the first two operands.
      auto IsSigToken = [](std::string_view Text) {
        std::string_view N;
        uint32_t A;
        return splitSig(Text, N, A);
      };
      // Read tokens one at a time until we have sig + arity args.
      Token First = NeedToken("operand");
      if (First.Text.empty())
        continue;
      Operands.push_back(First);
      size_t SigIdx = std::string::npos;
      if (Op.Text == "scall") {
        if (IsSigToken(First.Text))
          SigIdx = 0;
      }
      while (SigIdx == std::string::npos) {
        if (Operands.size() > 2) {
          error(Op, "call signature not found");
          break;
        }
        Token T = NeedToken("signature");
        if (T.Text.empty())
          break;
        Operands.push_back(T);
        if (IsSigToken(T.Text))
          SigIdx = Operands.size() - 1;
      }
      if (SigIdx == std::string::npos)
        continue;
      std::string_view SigName;
      uint32_t Arity = 0;
      splitSig(Operands[SigIdx].Text, SigName, Arity);
      std::vector<VarId> Args;
      bool ArgsOk = true;
      for (uint32_t I = 0; I < Arity; ++I) {
        Token T = NeedToken("argument");
        if (T.Text.empty()) {
          ArgsOk = false;
          break;
        }
        Args.push_back(varFor(M, T.Text));
      }
      if (!ArgsOk)
        continue;
      if (Op.Text == "vcall") {
        // Operands: [ret] base sig.
        if (SigIdx < 1) {
          error(Op, "vcall needs a receiver before the signature");
          continue;
        }
        VarId Ret = SigIdx == 2 ? varFor(M, Operands[0].Text)
                                : VarId::invalid();
        VarId Base = varFor(M, Operands[SigIdx - 1].Text);
        B.addVCall(M, Base, B.getSig(SigName, Arity), std::move(Args), Ret,
                   Op.Line);
      } else {
        // Operands: [ret] Owner::name/arity.
        const Token &Target = Operands[SigIdx];
        auto It = MethodByPath.find(std::string(Target.Text));
        if (It == MethodByPath.end()) {
          error(Target, "unknown static method '" +
                            std::string(Target.Text) + "'");
          continue;
        }
        if (!B.current().method(It->second).IsStatic) {
          error(Target, "scall target is not static");
          continue;
        }
        VarId Ret = SigIdx == 1 ? varFor(M, Operands[0].Text)
                                : VarId::invalid();
        B.addSCall(M, It->second, std::move(Args), Ret, Op.Line);
      }
    } else if (Op.Text == "throw") {
      Token Var = NeedToken("variable");
      if (Var.Text.empty())
        continue;
      B.addThrow(M, varFor(M, Var.Text), Op.Line);
    } else if (Op.Text == "catch") {
      Token Type = NeedToken("catch type");
      Token Var = NeedToken("handler variable");
      if (Type.Text.empty() || Var.Text.empty())
        continue;
      TypeId T = B.findType(Type.Text);
      if (!T.isValid()) {
        error(Type, "unknown type '" + std::string(Type.Text) + "'");
        continue;
      }
      // Reuse the variable when the name is already bound (a prior
      // instruction mentioned it), so round-trips preserve identity.
      B.addHandlerTo(M, T, varFor(M, Var.Text), Op.Line);
    } else if (Op.Text == "return") {
      Token Var = NeedToken("variable");
      if (Var.Text.empty())
        continue;
      B.setReturn(M, varFor(M, Var.Text));
    } else if (Op.Text == "var") {
      Token Var = NeedToken("variable");
      if (Var.Text.empty())
        continue;
      varFor(M, Var.Text);
    } else {
      error(Op, "unknown instruction '" + std::string(Op.Text) + "'");
    }
  }
  accept("}");
}

} // namespace

ParseResult pt::parseProgram(std::string_view Text,
                             std::string_view SourceName) {
  Parser P(Text, SourceName);
  return P.run();
}
