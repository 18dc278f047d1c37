//===- checks/Render.h - Text and JSONL diagnostic output -------*- C++ -*-===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Human-readable and line-oriented machine renderings of a diagnostic
/// list.  The SARIF rendering lives in Sarif.h.
///
//===----------------------------------------------------------------------===//

#ifndef HYBRIDPT_CHECKS_RENDER_H
#define HYBRIDPT_CHECKS_RENDER_H

#include "checks/Diagnostic.h"

#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace pt {

class Program;

namespace checks {

/// Compiler-style text report, one diagnostic per block:
///
///   file.ptir:12: warning: [HPT004] cast of `x` to Circle may fail ...
///     may hold `new Square@3` (Square)
///
/// The location prefix degrades gracefully: `<input>` when the program has
/// no source name, no `:line` when the line is unknown.
void renderText(std::ostream &OS, const Program &Prog,
                const std::vector<Diagnostic> &Diags);

/// One JSON object per line per diagnostic, with keys rule, check, level,
/// siteKey, message, file, line, method, evidence, and (when non-empty)
/// \p PolicyName as "policy".  Deterministic key order.
void renderJsonl(std::ostream &OS, const Program &Prog,
                 const std::vector<Diagnostic> &Diags,
                 const std::string &PolicyName = {});

/// Escapes \p S for embedding inside a JSON string literal (quotes,
/// backslashes, control characters).
std::string jsonEscape(const std::string &S);

/// \c jsonEscape appending to \p Out, for writers that build output in a
/// buffer of their own.
void appendJsonEscaped(std::string &Out, std::string_view S);

} // namespace checks
} // namespace pt

#endif // HYBRIDPT_CHECKS_RENDER_H
