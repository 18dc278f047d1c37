//===- pta/Flags.cpp ------------------------------------------------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//

#include "pta/Flags.h"

#include "support/Parallel.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <iostream>

using namespace pt;

std::vector<std::string> pt::splitCommaList(std::string_view Spec) {
  std::vector<std::string> Out;
  size_t Pos = 0;
  while (Pos <= Spec.size()) {
    size_t End = Spec.find(',', Pos);
    if (End == std::string_view::npos)
      End = Spec.size();
    if (End > Pos)
      Out.emplace_back(Spec.substr(Pos, End - Pos));
    Pos = End + 1;
  }
  return Out;
}

bool pt::parseWhyQuery(std::string_view Spec, WhyQuery &Out,
                       std::string &Error) {
  for (const std::string &Part : splitCommaList(Spec)) {
    size_t Eq = Part.find('=');
    if (Eq == std::string::npos) {
      Error = "bad --why component '" + Part + "' (want key=value)";
      return false;
    }
    std::string Key = Part.substr(0, Eq), Val = Part.substr(Eq + 1);
    if (Key == "var")
      Out.VarPath = Val;
    else if (Key == "heap")
      Out.HeapName = Val;
    else {
      Error = "unknown --why key '" + Key + "' (var, heap)";
      return false;
    }
  }
  if (Out.VarPath.empty() || Out.HeapName.empty()) {
    Error = "--why needs both var= and heap=";
    return false;
  }
  return true;
}

std::string ArgParser::value() {
  if (I + 1 >= Argc) {
    std::cerr << arg() << " needs a value\n";
    std::exit(UsageExit);
  }
  return Argv[++I];
}

void ArgParser::notANumber(const std::string &Text) {
  std::cerr << Argv[I - 1] << " needs a number, got '" << Text << "'\n";
  std::exit(1);
}

uint64_t ArgParser::numberUpTo(uint64_t Max) {
  std::string Text = value();
  if (Text.empty())
    notANumber(Text);
  uint64_t N = 0;
  for (char C : Text) {
    if (C < '0' || C > '9')
      notANumber(Text);
    uint64_t Digit = static_cast<uint64_t>(C - '0');
    if (N > (Max - Digit) / 10)
      notANumber(Text); // Does not fit the field.
    N = N * 10 + Digit;
  }
  return N;
}

double ArgParser::fraction() {
  std::string Text = value();
  char *End = nullptr;
  errno = 0;
  double V = std::strtod(Text.c_str(), &End);
  if (Text.empty() || *End != '\0' || errno != 0 || !(V == V))
    notANumber(Text);
  return V;
}

bool ArgParser::shared(unsigned Accepted, SharedFlags &F) {
  auto Takes = [&](SharedFlag Bit, std::string_view Flag) {
    return (Accepted & Bit) != 0 && is(Flag);
  };
  SolverOptions &S = F.Config.Solver;
  if (Takes(FlagPolicy, "--policy"))
    F.Config.Policy = value();
  else if (Takes(FlagBudget, "--budget"))
    S.TimeBudgetMs = number<uint64_t>();
  else if (Takes(FlagMaxFacts, "--max-facts"))
    S.MaxFacts = number<uint64_t>();
  else if (Takes(FlagMaxMemory, "--max-memory-mb"))
    S.MemoryBudgetBytes = numberUpTo(UINT64_MAX / 1000000) * 1000000;
  else if (Takes(FlagDeadline, "--deadline-ms"))
    F.DeadlineMs = number<uint64_t>();
  else if (Takes(FlagTaintSpec, "--taint-spec"))
    F.TaintSpecPath = value();
  else if (Takes(FlagLadder, "--ladder"))
    F.Config.Ladder = true;
  else if (Takes(FlagLadderRungs, "--ladder-rungs")) {
    F.Config.Ladder = true;
    F.Config.Rungs = splitCommaList(value());
  } else if (Takes(FlagThreads, "--threads"))
    // 0 = one worker per hardware thread, resolved through the one shared
    // rule so every tool agrees (docs/PERF.md).
    F.Threads = resolveThreads(number<unsigned>());
  else if (Takes(FlagRuns, "--runs"))
    F.Runs = std::max(1u, number<uint32_t>());
  else if (Takes(FlagProvenance, "--provenance"))
    F.Provenance = true;
  else if (Takes(FlagWhy, "--why")) {
    WhyQuery Q;
    std::string Error;
    if (!parseWhyQuery(value(), Q, Error)) {
      std::cerr << Error << "\n";
      std::exit(1);
    }
    F.Why.push_back(std::move(Q));
  } else if (Takes(FlagTraceOut, "--trace-out"))
    F.TraceOut = value();
  else if (Takes(FlagProfileOut, "--profile-out"))
    F.ProfileOut = value();
  else
    return false;
  return true;
}
