//===- irtext/TextFormat.h - PTIR textual format ----------------*- C++ -*-===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A textual surface syntax for analysis programs — the stand-in for the
/// paper's Java bytecode frontend (Soot/Jimple).  Users can write inputs
/// by hand, and every in-memory program can be printed and re-parsed
/// (round-trip tested).
///
/// Grammar (line oriented; `#` starts a comment; tokens are
/// whitespace-separated, `{`/`}` stand alone):
///
///   program  := (class | entry)*
///   class    := "class" NAME ["extends" NAME] ["abstract"] "{" member* "}"
///   member   := ["static"] "field" NAME
///             | ["static"] "method" NAME "/" ARITY "{" instr* "}"
///   instr    := "new" VAR TYPE
///             | "move" TO FROM
///             | "sanitize" TO FROM
///             | "cast" TO TYPE FROM
///             | "load" TO BASE OWNER::FIELD
///             | "store" BASE OWNER::FIELD FROM
///             | "sload" TO OWNER::FIELD
///             | "sstore" OWNER::FIELD FROM
///             | "vcall" [RET] BASE NAME/ARITY ARG*
///             | "scall" [RET] OWNER::NAME/ARITY ARG*
///             | "throw" VAR
///             | "catch" TYPE VAR
///             | "return" VAR
///             | "var" VAR
///   entry    := "entry" OWNER::NAME/ARITY
///
/// Formals are implicitly named p0..pN-1; `this` names the receiver.
/// Other variables are declared on first use.  `var` declares a local
/// without using it — the printer emits it for locals no instruction
/// references, so print→parse preserves the exact variable count.  Call
/// instructions distinguish the optional RET by token count (arity is
/// known from the signature).  `sanitize` is a taint barrier: a move that
/// drops taint-tagged objects (docs/CHECKS.md "Taint analysis"); on
/// programs without taint instrumentation it behaves as a plain move.
///
//===----------------------------------------------------------------------===//

#ifndef HYBRIDPT_IRTEXT_TEXTFORMAT_H
#define HYBRIDPT_IRTEXT_TEXTFORMAT_H

#include "support/Ids.h"

#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace pt {

class Program;

/// Result of parsing: the program plus diagnostics.  \c Prog is null when
/// \c Errors is non-empty.
struct ParseResult {
  std::unique_ptr<Program> Prog;
  std::vector<std::string> Errors;

  bool ok() const { return Prog != nullptr; }
};

/// Parses PTIR text into a finalized program.  \p SourceName is recorded
/// as \c Program::sourceName() (e.g. the file path) and every declaration
/// and instruction remembers its source line, so downstream diagnostics
/// can print `file:line`.
ParseResult parseProgram(std::string_view Text,
                         std::string_view SourceName = {});

/// Prints \p Prog in PTIR syntax.  The output re-parses to an isomorphic
/// program (entity order preserved, variable names uniquified as needed).
std::string printProgram(const Program &Prog);

/// Looks up a variable by "Class::method/arity::varname" path in a parsed
/// or printed program (test helper).  Returns an invalid id when absent.
VarId findVarByPath(const Program &Prog, std::string_view Path);

/// Looks up a method by "Class::name/arity".
MethodId findMethodByPath(const Program &Prog, std::string_view Path);

/// Looks up a heap allocation site by its exact name; the first site with
/// that name wins (heap names are unique per program in practice).
/// Returns an invalid id when absent.
HeapId findHeapByName(const Program &Prog, std::string_view Name);

} // namespace pt

#endif // HYBRIDPT_IRTEXT_TEXTFORMAT_H
