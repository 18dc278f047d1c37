//===- pta/Flags.h - The command-line flags every tool shares ---*- C++ -*-===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One parser for the flags that mean the same thing in every binary of
/// tools/ and bench/: the policy, the solver budgets, the deadline, the
/// taint spec, the ladder, threads and runs, provenance and --why, and the
/// trace and profile sinks.  A tool names the shared flags it accepts and
/// fills its own defaults before parsing; flags whose meaning differs per
/// tool (--format, --compare, ...) stay in the tool.
///
/// Numeric flags, shared or local, go through \c ArgParser::number: only
/// a whole decimal that fits the field is accepted, anything else exits 1
/// with "<flag> needs a number, got '<text>'".
///
//===----------------------------------------------------------------------===//

#ifndef HYBRIDPT_PTA_FLAGS_H
#define HYBRIDPT_PTA_FLAGS_H

#include "pta/Pipeline.h"
#include "pta/VariantRunner.h"

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace pt {

/// Splits a comma-separated list, dropping empty items.
std::vector<std::string> splitCommaList(std::string_view Spec);

/// One --why query: "var=Class::method/arity::var,heap=siteName".  The
/// context is deliberately not part of the grammar: the query means "in
/// any context", which is what a user chasing a spurious fact wants.
struct WhyQuery {
  std::string VarPath;
  std::string HeapName;
};

/// Parses one --why query; false with \p Error on a component without
/// '=', an unknown key, or a missing var= or heap=.
bool parseWhyQuery(std::string_view Spec, WhyQuery &Out, std::string &Error);

/// The shared flags' values.  A tool sets its own defaults first.
struct SharedFlags {
  /// --policy, --budget, --max-facts, --max-memory-mb, --ladder and
  /// --ladder-rungs (which implies --ladder).
  AnalysisConfig Config;
  /// --deadline-ms: the tool's deadline in ms, 0 = none.
  uint64_t DeadlineMs = 0;
  /// --taint-spec FILE.
  std::string TaintSpecPath;
  /// --threads N, already resolved (0 = one per hardware thread).
  unsigned Threads = 1;
  /// --runs N: repetitions per cell, at least 1.
  uint32_t Runs = 1;
  /// --provenance, and every --why query (each implies provenance).
  bool Provenance = false;
  std::vector<WhyQuery> Why;
  /// --trace-out FILE and --profile-out FILE.
  std::string TraceOut;
  std::string ProfileOut;

  /// The variant-matrix run these flags ask for: the config, threads and
  /// runs, and per-cell profiles when --provenance is set.
  MatrixOptions matrix() const {
    MatrixOptions M;
    M.Config = Config;
    M.Threads = Threads;
    M.Runs = Runs;
    M.Profile = Provenance;
    return M;
  }
};

/// The shared flags a tool accepts, as a bit set.
enum SharedFlag : unsigned {
  FlagPolicy = 1u << 0,
  FlagBudget = 1u << 1,
  FlagMaxFacts = 1u << 2,
  FlagMaxMemory = 1u << 3,
  FlagDeadline = 1u << 4,
  FlagTaintSpec = 1u << 5,
  FlagLadder = 1u << 6,
  FlagLadderRungs = 1u << 7,
  FlagThreads = 1u << 8,
  FlagRuns = 1u << 9,
  FlagProvenance = 1u << 10,
  FlagWhy = 1u << 11,
  FlagTraceOut = 1u << 12,
  FlagProfileOut = 1u << 13,
  /// The three solver budgets.
  FlagBudgets = FlagBudget | FlagMaxFacts | FlagMaxMemory,
};

/// Walks one tool's argv:
///
///   ArgParser Args(argc, argv);
///   while (Args.next()) {
///     if (Args.shared(FlagPolicy | FlagBudgets, Flags))
///       continue;
///     if (Args.is("--csv")) Csv = true;
///     else if (Args.is("--queue")) Queue = Args.number<size_t>();
///     ...
///   }
///
/// A missing value exits with \p UsageExit; a malformed number or --why
/// query exits 1.
class ArgParser {
public:
  ArgParser(int Argc, char **Argv, int First = 1, int UsageExit = 1)
      : Argc(Argc), Argv(Argv), I(First - 1), UsageExit(UsageExit) {}

  /// Advances to the next argument; false past the last one.
  bool next() { return ++I < Argc; }
  std::string_view arg() const { return Argv[I]; }
  bool is(std::string_view Flag) const { return arg() == Flag; }

  /// The current flag's value (the next argument).
  std::string value();

  /// The current flag's value as a whole decimal that fits \p T.
  template <typename T> T number() {
    return static_cast<T>(numberUpTo(std::numeric_limits<T>::max()));
  }
  /// The current flag's value as a decimal fraction ("0.25").
  double fraction();

  /// Consumes the current argument when it is a shared flag in
  /// \p Accepted, storing its value into \p F.
  bool shared(unsigned Accepted, SharedFlags &F);

private:
  uint64_t numberUpTo(uint64_t Max);
  [[noreturn]] void notANumber(const std::string &Text);

  int Argc;
  char **Argv;
  int I;
  int UsageExit;
};

} // namespace pt

#endif // HYBRIDPT_PTA_FLAGS_H
