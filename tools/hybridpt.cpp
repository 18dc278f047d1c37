//===- tools/hybridpt.cpp - Command-line driver ----------------------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The command-line front door: analyze a PTIR file (or a built-in
/// benchmark) under any policy and emit metrics, client reports, or raw
/// relations.
///
///   hybridpt --list-policies
///   hybridpt --list-benchmarks
///   hybridpt [options] <file.ptir | benchmark-name>
///   hybridpt explain [options] --why var=...,heap=... <input>
///
/// Options:
///   --policy NAME      analysis to run (default S-2obj+H)
///   --metrics          print the Table 1 metric block (default action)
///   --devirt           print the devirtualization report
///   --casts            print the cast-safety report
///   --dump-vpt PATH    print what Class::method/arity::var points to
///                      (repeatable; exit 1 if a path names no variable)
///   --dump-facts DIR   write all relations as Doop-style .facts files
///   --stats            context/points-to distribution report
///   --dot-callgraph F  write the call graph as GraphViz DOT to file F
///   --dot-pointsto M   print method M's points-to neighbourhood as DOT
///   --compare NAME     also run NAME and print the precision delta
///   --budget MS        per-run time budget (0 = unlimited)
///   --max-facts N      per-run fact budget (0 = unlimited)
///   --max-memory-mb N  per-run solver memory budget (0 = unlimited)
///   --deadline-ms MS   whole-process deadline; expiry cancels cleanly
///   --taint-spec FILE  instrument the program with the taint spec before
///                      solving (docs/CHECKS.md "Taint analysis"); the
///                      metric block then reports tainted sinks
///   --csv              machine-readable metric output
///
/// Graceful degradation (docs/ROBUSTNESS.md):
///   --ladder           on a resource-budget abort, re-run successively
///                      coarser policies until one converges
///   --ladder-rungs L   comma-separated explicit rungs tried after the
///                      requested policy (default: derived ladder)
///
/// ^C cancels cooperatively: the run stops at the next guard poll and
/// still reports, flushes traces, and exits cleanly (second ^C kills).
///
/// Observability (docs/OBSERVABILITY.md):
///   --trace-out FILE     stream JSONL telemetry (spans + heartbeats)
///   --chrome-trace FILE  write a Chrome trace-event timeline on exit
///   --progress           mirror heartbeats to stderr while solving
///   --explain-abort      on budget expiry, print the last heartbeat and
///                        the hottest rule counters to stderr
///   --heartbeat-steps N  heartbeat every N worklist steps (default 65536)
///   --heartbeat-ms MS    ...or every MS milliseconds (default 250)
///
/// Provenance (docs/OBSERVABILITY.md, "Provenance & explanation"):
///   --provenance         record per-fact derivation steps while solving
///   --why var=Q,heap=N   derive why variable Q (Class::method/arity::var)
///                        may point to an object allocated at heap site N;
///                        repeatable; implies --provenance
///   --format F           derivation rendering: text (default), json, dot
///   --blame K            print the top-K cost-attribution profile
///   --validate           replay every derivation step through the Datalog
///                        reference's rules (exit 1 on failure)
///   --profile-out FILE   write the blame profile as JSON to FILE
///
/// `hybridpt explain ...` is shorthand for a provenance-enabled run whose
/// only outputs are the --why/--blame answers (no metric block).
///
//===----------------------------------------------------------------------===//

#include "context/PolicyRegistry.h"
#include "ir/Program.h"
#include "irtext/TextFormat.h"
#include "pta/AnalysisResult.h"
#include "pta/Clients.h"
#include "pta/Explain.h"
#include "pta/DotExport.h"
#include "pta/FactWriter.h"
#include "pta/Stats.h"
#include "pta/Metrics.h"
#include "pta/Flags.h"
#include "pta/Trace.h"
#include "ptaref/Validate.h"
#include "support/Cancel.h"
#include "support/TableWriter.h"
#include "workloads/Profiles.h"

#include <cstring>
#include <fstream>
#include <iostream>

using namespace pt;

namespace {

struct CliOptions {
  /// --policy, the budgets, --deadline-ms, --taint-spec, the ladder,
  /// --provenance, --why, --trace-out and --profile-out.
  SharedFlags Flags;
  std::string Compare;
  std::string Input;
  std::string FactsDir;
  std::string CallGraphDotPath;
  std::string PointsToDotFocus;
  std::vector<std::string> DumpVars;
  bool Metrics = false;
  bool Stats = false;
  bool Devirt = false;
  bool Casts = false;
  bool Csv = false;
  std::string ChromeTraceOut;
  bool Progress = false;
  bool ExplainAbort = false;
  /// Provenance mode (hybridpt explain / --provenance / --why / --blame).
  bool Explain = false;
  std::string WhyFormat = "text";
  size_t BlameTopK = 0;
  bool ValidateWhy = false;

  bool wantsProvenance() const {
    return Flags.Provenance || Explain || !Flags.Why.empty() ||
           BlameTopK != 0 || !Flags.ProfileOut.empty();
  }

  bool wantsTrace() const {
    return !Flags.TraceOut.empty() || !ChromeTraceOut.empty() || Progress ||
           ExplainAbort;
  }
};

int usage(const char *Argv0) {
  std::cerr
      << "usage: " << Argv0
      << " [--policy NAME] [--metrics] [--devirt] [--casts]\n"
         "       [--dump-vpt Class::method/arity::var] [--compare NAME]\n"
         "       [--budget MS] [--max-facts N] [--max-memory-mb N]\n"
         "       [--deadline-ms MS] [--ladder] [--ladder-rungs A,B,...]\n"
         "       [--taint-spec FILE]\n"
         "       [--csv] [--trace-out FILE] [--chrome-trace FILE]\n"
         "       [--progress] [--explain-abort] [--heartbeat-steps N]\n"
         "       [--heartbeat-ms MS] [--provenance]\n"
         "       [--why var=PATH,heap=NAME] [--format text|json|dot]\n"
         "       [--blame K] [--validate] [--profile-out FILE]\n"
         "       <file.ptir | benchmark-name>\n"
         "       " << Argv0
      << " explain [options] --why var=...,heap=... <input>\n"
         "       " << Argv0 << " --list-policies | --list-benchmarks\n";
  return 1;
}

/// --explain-abort: last-known solver state for one label, from the
/// heartbeat trail (useful exactly when the normal metrics are dashes).
void explainAbort(trace::TraceRecorder &Rec, const std::string &Label) {
  trace::Heartbeat HB;
  if (!Rec.lastHeartbeat(Label, HB)) {
    std::cerr << "[abort] " << Label
              << ": no heartbeat recorded (run was too short or telemetry "
                 "is compiled out)\n";
    return;
  }
  std::cerr << "[abort] " << Label << ": last heartbeat at t="
            << formatFixed(HB.TMs / 1000.0, 3) << "s step=" << HB.Step
            << " worklist=" << HB.WorklistDepth << " nodes=" << HB.Nodes
            << " facts=" << HB.Facts << " mem="
            << formatFixed(static_cast<double>(HB.MemoryBytes) / 1e6, 1)
            << "MB\n";
  std::cerr << "[abort] " << Label << ": hottest rules:";
  for (const auto &[Name, Fires] : telemetry::topRuleCounters(HB.Totals, 3))
    std::cerr << " " << Name << "=" << Fires;
  std::cerr << "\n";
}

/// Writes the Chrome trace, when requested, as it goes out of scope.
class ChromeTraceFlush {
public:
  ChromeTraceFlush(trace::TraceRecorder *Rec, const std::string &Path)
      : Rec(Rec), Path(Path) {}
  ChromeTraceFlush(const ChromeTraceFlush &) = delete;
  ChromeTraceFlush &operator=(const ChromeTraceFlush &) = delete;
  ~ChromeTraceFlush() {
    std::string Error;
    if (Rec && !Path.empty() && !Rec->writeChromeTrace(Path, Error))
      std::cerr << "chrome trace: " << Error << "\n";
  }

private:
  trace::TraceRecorder *Rec;
  const std::string &Path;
};

void printBlameText(const prov::BlameReport &B) {
  std::cout << "cost attribution: " << B.TotalSteps << " derivation steps, "
            << B.TotalFacts << " facts, " << B.ArenaBytes
            << " arena bytes\n";
  auto Section = [](const char *Title, const std::vector<prov::BlameRow> &Rows) {
    std::cout << "  " << Title << ":\n";
    for (const prov::BlameRow &Row : Rows)
      std::cout << "    " << Row.Key << "  steps=" << Row.Steps
                << " bytes=" << Row.Bytes << "\n";
  };
  Section("by rule", B.ByRule);
  Section("by method", B.ByMethod);
  Section("by alloc site", B.ByAllocSite);
  Section("by ctx depth", B.ByCtxDepth);
}

/// Answers every --why query and the --blame/--profile-out requests over a
/// finished provenance-enabled run.  Returns the process exit code.
int runProvenanceQueries(const Program &P, const AnalysisResult &R,
                         ContextPolicy &Policy, prov::Recorder &Rec,
                         const CliOptions &Cli) {
  int Exit = 0;
  for (const WhyQuery &Q : Cli.Flags.Why) {
    VarId V = findVarByPath(P, Q.VarPath);
    if (!V.isValid()) {
      std::cerr << "no variable '" << Q.VarPath << "'\n";
      return 1;
    }
    HeapId H = findHeapByName(P, Q.HeapName);
    if (!H.isValid()) {
      std::cerr << "no heap site '" << Q.HeapName << "'\n";
      return 1;
    }
    prov::DerivationTree Tree = prov::whyPointsTo(Rec, R, V, CtxId(), H);
    if (Cli.WhyFormat == "json")
      std::cout << prov::renderTreeJson(Rec, R, Tree) << "\n";
    else if (Cli.WhyFormat == "dot")
      std::cout << prov::renderTreeDot(Rec, R, Tree);
    else
      std::cout << prov::renderTreeText(Rec, R, Tree);
    if (!Tree.Found) {
      Exit = 1;
      continue;
    }
    if (Cli.ValidateWhy) {
      prov::ValidationResult VR = prov::validateTree(Rec, R, Tree, Policy);
      if (VR.Ok) {
        std::cout << "validation: ok (" << VR.CheckedSteps << " steps)\n";
      } else {
        std::cout << "validation: FAILED — " << VR.Error << "\n";
        Exit = 1;
      }
    }
  }
  if (Cli.BlameTopK != 0) {
    prov::BlameReport B = prov::blame(Rec, R, Cli.BlameTopK);
    if (Cli.WhyFormat == "json")
      std::cout << prov::renderBlameJson(B) << "\n";
    else
      printBlameText(B);
  }
  const std::string &ProfileOut = Cli.Flags.ProfileOut;
  if (!ProfileOut.empty()) {
    size_t TopK = Cli.BlameTopK != 0 ? Cli.BlameTopK : 10;
    std::ofstream OS(ProfileOut);
    if (!OS) {
      std::cerr << "cannot write '" << ProfileOut << "'\n";
      return 1;
    }
    OS << prov::renderBlameJson(prov::blame(Rec, R, TopK)) << "\n";
    std::cout << "wrote profile to " << ProfileOut << "\n";
  }
  return Exit;
}

/// Solves \p Policy through the pipeline under the command line's
/// config, as one "cell" span labeled \p Label.  With --ladder the landed
/// policy may be coarser than the requested one.  Reports an unknown
/// policy or a ladder descent on stderr.
LadderResult solve(const Program &P, const std::string &Policy,
                   const CliOptions &Cli, const std::string &Label,
                   prov::Recorder *Prov) {
  AnalysisConfig Config = Cli.Flags.Config;
  Config.Policy = Policy;
  Config.Solver.TraceLabel = Label;
  Config.Solver.Prov = Prov;
  trace::TraceRecorder::Span SolveSpan(Config.Solver.Trace, Label, "cell");
  LadderResult LR = analyze(P, Config);
  if (!LR.Result)
    std::cerr << LR.Error << " (see --list-policies)\n";
  else if (LR.degraded())
    std::cerr << "[ladder] " << Policy << " exhausted its budget; "
              << "reporting " << LR.LandedPolicy << " instead\n";
  return LR;
}

void printMetrics(const PrecisionMetrics &M, const std::string &Policy,
                  bool Csv, bool Taint) {
  if (Csv) {
    // Shared with the daemon's callgraph answers (pta/Metrics.h) so the
    // two front doors cannot drift apart.
    std::cout << metricsCsvHeader(Taint) << "\n"
              << metricsCsvRow(M, Policy, Taint) << "\n";
    return;
  }
  std::cout << "analysis:                " << Policy
            << (M.Aborted
                    ? std::string("  (ABORTED: ") + abortReasonName(M.Reason) +
                          ")"
                    : std::string())
            << "\n"
            << "avg objs per var:        " << formatFixed(M.AvgPointsTo, 2)
            << "\n"
            << "call-graph edges:        " << M.CallGraphEdges << "\n"
            << "poly v-calls:            " << M.PolyVCalls << " of "
            << M.ReachableVCalls << "\n"
            << "may-fail casts:          " << M.MayFailCasts << " of "
            << M.ReachableCasts << "\n"
            << "reachable methods:       " << M.ReachableMethods << "\n"
            << "elapsed time:            "
            << formatFixed(M.SolveMs / 1000.0, 3) << " s\n"
            << "sensitive var-points-to: " << M.CsVarPointsTo << "\n"
            << "field points-to:         " << M.FieldPointsTo << " (+ "
            << M.StaticFieldPointsTo << " static)\n"
            << "contexts / heap ctxs:    " << M.NumContexts << " / "
            << M.NumHContexts << "\n"
            << "method-throws facts:     " << M.ThrowFacts << " ("
            << M.UncaughtExceptionSites << " sites escape main)\n";
  if (Taint)
    std::cout << "tainted sinks:           " << M.TaintedSinks << "\n";
}

} // namespace

int main(int argc, char **argv) {
  CliOptions Opts;
  Opts.Flags.Config.Policy = "S-2obj+H";
  int FirstArg = 1;
  if (argc > 1 && std::strcmp(argv[1], "explain") == 0) {
    Opts.Explain = true;
    FirstArg = 2;
  }
  const unsigned Shared = FlagPolicy | FlagBudgets | FlagDeadline |
                          FlagTaintSpec | FlagLadder | FlagLadderRungs |
                          FlagProvenance | FlagWhy | FlagTraceOut |
                          FlagProfileOut;
  SolverOptions &Solver = Opts.Flags.Config.Solver;
  ArgParser Args(argc, argv, FirstArg);
  while (Args.next()) {
    if (Args.shared(Shared, Opts.Flags))
      continue;
    if (Args.is("--list-policies")) {
      for (const std::string &N : allPolicyNames())
        std::cout << N << "\n";
      return 0;
    }
    if (Args.is("--list-benchmarks")) {
      for (const std::string &N : benchmarkNames())
        std::cout << N << "\n";
      return 0;
    }
    if (Args.is("--compare"))
      Opts.Compare = Args.value();
    else if (Args.is("--dump-vpt"))
      Opts.DumpVars.push_back(Args.value());
    else if (Args.is("--dump-facts"))
      Opts.FactsDir = Args.value();
    else if (Args.is("--dot-callgraph"))
      Opts.CallGraphDotPath = Args.value();
    else if (Args.is("--dot-pointsto"))
      Opts.PointsToDotFocus = Args.value();
    else if (Args.is("--metrics"))
      Opts.Metrics = true;
    else if (Args.is("--stats"))
      Opts.Stats = true;
    else if (Args.is("--devirt"))
      Opts.Devirt = true;
    else if (Args.is("--casts"))
      Opts.Casts = true;
    else if (Args.is("--csv"))
      Opts.Csv = true;
    else if (Args.is("--chrome-trace"))
      Opts.ChromeTraceOut = Args.value();
    else if (Args.is("--progress"))
      Opts.Progress = true;
    else if (Args.is("--explain-abort"))
      Opts.ExplainAbort = true;
    else if (Args.is("--heartbeat-steps"))
      Solver.HeartbeatSteps = Args.number<uint64_t>();
    else if (Args.is("--heartbeat-ms"))
      Solver.HeartbeatMs = Args.number<uint64_t>();
    else if (Args.is("--format")) {
      Opts.WhyFormat = Args.value();
      if (Opts.WhyFormat != "text" && Opts.WhyFormat != "json" &&
          Opts.WhyFormat != "dot") {
        std::cerr << "unknown --format '" << Opts.WhyFormat
                  << "' (text, json, dot)\n";
        return 1;
      }
    } else if (Args.is("--blame"))
      Opts.BlameTopK = Args.number<size_t>();
    else if (Args.is("--validate"))
      Opts.ValidateWhy = true;
    else if (Args.arg().substr(0, 2) == "--")
      return usage(argv[0]);
    else if (Opts.Input.empty())
      Opts.Input = Args.arg();
    else
      return usage(argv[0]);
  }
  if (Opts.Input.empty())
    return usage(argv[0]);
  if (Opts.Explain && Opts.Flags.Why.empty() && Opts.BlameTopK == 0 &&
      Opts.Flags.ProfileOut.empty()) {
    std::cerr << "explain needs --why, --blame, or --profile-out\n";
    return usage(argv[0]);
  }
  if (!Opts.Explain && !Opts.Metrics && !Opts.Devirt && !Opts.Casts &&
      !Opts.Stats && Opts.DumpVars.empty() && Opts.Compare.empty() &&
      Opts.FactsDir.empty() &&
      Opts.CallGraphDotPath.empty() && Opts.PointsToDotFocus.empty() &&
      Opts.Flags.Why.empty() && Opts.BlameTopK == 0 &&
      Opts.Flags.ProfileOut.empty())
    Opts.Metrics = true;

  // The derivation recorder outlives the analysis so the queries below can
  // read it; a null pointer keeps every solver hook a dead branch.
  prov::Recorder ProvRec;
  prov::Recorder *Prov = nullptr;
  if (Opts.wantsProvenance()) {
#if !HYBRIDPT_PROVENANCE_ENABLED
    std::cerr << "this build has provenance compiled out "
                 "(HYBRIDPT_PROVENANCE=0)\n";
    return 1;
#endif
    Prov = &ProvRec;
  }

  // Cooperative cancellation: ^C (or the --deadline-ms expiry) trips the
  // token, the solver aborts at its next guard poll, and the run still
  // reports partial results and flushes its traces.  SIGINT is installed
  // with SA_RESETHAND, so a second ^C kills the process the normal way.
  static CancelToken Cancel;
  installSigintCancel(Cancel);
  if (Opts.Flags.DeadlineMs != 0)
    Cancel.setDeadlineMs(Opts.Flags.DeadlineMs);
  Solver.Cancel = &Cancel;

  // Observability sink: one recorder for the whole invocation.
  std::unique_ptr<trace::TraceRecorder> Rec;
  if (Opts.wantsTrace()) {
    Rec = std::make_unique<trace::TraceRecorder>();
    if (!Opts.Flags.TraceOut.empty()) {
      std::string Error;
      if (!Rec->openJsonl(Opts.Flags.TraceOut, Error)) {
        std::cerr << Error << "\n";
        return 1;
      }
    }
    if (Opts.Progress)
      Rec->enableProgress(std::cerr);
    Solver.Trace = Rec.get();
  }
  // Every exit from here on writes the Chrome trace, error exits included.
  ChromeTraceFlush Flush(Rec.get(), Opts.ChromeTraceOut);

  // Load the program; --taint-spec instruments it before solving, so every
  // downstream consumer (metrics, clients, provenance) sees the taint
  // objects.
  LoadedProgram Loaded;
  {
    trace::TraceRecorder::Span ParseSpan(Rec.get(), "parse", "phase");
    Loaded = loadProgram(Opts.Input, Opts.Flags.TaintSpecPath);
  }
  if (!Loaded.ok()) {
    for (const std::string &E : Loaded.Errors)
      std::cerr << E << "\n";
    return 1;
  }
  const Program *P = Loaded.Prog;

  const std::string &Policy = Opts.Flags.Config.Policy;
  const std::string CellLabel = Opts.Input + "/" + Policy;
  LadderResult Main = solve(*P, Policy, Opts, CellLabel, Prov);
  if (!Main.Result)
    return 1;
  AnalysisResult &R = *Main.Result;
  if (R.Aborted) {
    std::cerr << "[abort] " << CellLabel << ": " << abortReasonName(R.Reason)
              << (R.FaultInjected ? " (injected)" : "") << "\n";
    if (Opts.ExplainAbort && Rec)
      explainAbort(*Rec, CellLabel);
  }

  // Metrics are labeled with the landed policy: under --ladder it may be
  // a coarser rung than the one requested.
  std::string MetricsLabel = Main.LandedPolicy;
  if (!Main.FallbackFrom.empty())
    MetricsLabel += " (fallback from " + Main.FallbackFrom + ")";
  if (Opts.Metrics)
    printMetrics(computeMetrics(R), MetricsLabel, Opts.Csv,
                 !Opts.Flags.TaintSpecPath.empty());

  if (Opts.Stats)
    std::cout << "\n" << formatStats(computeStats(R), *P);

  if (Opts.Devirt) {
    auto Sites = devirtualizeCalls(R);
    size_t Mono = 0, Poly = 0, Dead = 0;
    for (const DevirtSite &S : Sites) {
      Mono += S.Verdict == DevirtVerdict::Monomorphic;
      Poly += S.Verdict == DevirtVerdict::Polymorphic;
      Dead += S.Verdict == DevirtVerdict::Dead;
    }
    std::cout << "\ndevirtualization: " << Mono << " mono, " << Poly
              << " poly, " << Dead << " dead\n";
    for (const DevirtSite &S : Sites) {
      if (S.Verdict != DevirtVerdict::Polymorphic)
        continue;
      const InvokeInfo &Call = P->invoke(S.Invo);
      std::cout << "  poly " << P->text(Call.Name) << " in "
                << P->qualifiedName(Call.InMethod) << " ("
                << S.Targets.size() << " targets)\n";
    }
  }

  if (Opts.Casts) {
    auto Checks = checkCasts(R);
    size_t Fail = 0;
    for (const CastCheck &C : Checks)
      Fail += C.Verdict == CastVerdict::MayFail;
    std::cout << "\ncasts: " << Fail << " may fail of " << Checks.size()
              << "\n";
    for (const CastCheck &C : Checks) {
      if (C.Verdict != CastVerdict::MayFail)
        continue;
      const CastSite &Site = P->castSite(C.Site);
      std::cout << "  (" << P->text(P->type(Site.Target).Name) << ") in "
                << P->qualifiedName(Site.InMethod) << "\n";
    }
  }

  bool UnknownVar = false;
  for (const std::string &Path : Opts.DumpVars) {
    VarId V = findVarByPath(*P, Path);
    if (!V.isValid()) {
      std::cerr << "no variable '" << Path << "'\n";
      UnknownVar = true;
      continue;
    }
    std::cout << "\n" << Path << " points to:\n";
    for (HeapId H : R.ci().pointsTo(V))
      std::cout << "  " << P->text(P->heap(H).Name) << " : "
                << P->text(P->type(P->heap(H).Type).Name) << "\n";
  }
  if (UnknownVar)
    return 1;

  if (!Opts.FactsDir.empty()) {
    std::string Error;
    auto Files = writeFacts(R, Opts.FactsDir, Error);
    if (Files.empty()) {
      std::cerr << Error << "\n";
      return 1;
    }
    std::cout << "\nwrote " << Files.size() << " relation files to "
              << Opts.FactsDir << "\n";
  }

  if (!Opts.CallGraphDotPath.empty()) {
    std::ofstream OS(Opts.CallGraphDotPath);
    if (!OS) {
      std::cerr << "cannot write '" << Opts.CallGraphDotPath << "'\n";
      return 1;
    }
    writeCallGraphDot(R, OS);
    std::cout << "\nwrote call graph to " << Opts.CallGraphDotPath
              << "\n";
  }

  if (!Opts.PointsToDotFocus.empty()) {
    MethodId Focus = findMethodByPath(*P, Opts.PointsToDotFocus);
    if (!Focus.isValid()) {
      std::cerr << "no method '" << Opts.PointsToDotFocus << "'\n";
      return 1;
    }
    writePointsToDot(R, Focus, std::cout);
  }

  if (!Opts.Compare.empty()) {
    // The comparison run must not record into the main run's arena: fact
    // payloads embed per-run dense object ids.
    LadderResult Other = solve(*P, Opts.Compare, Opts,
                               Opts.Input + "/" + Opts.Compare, nullptr);
    if (!Other.Result)
      return 1;
    std::cout << "\n--- delta " << Main.LandedPolicy << " -> "
              << Other.LandedPolicy << " ---\n"
              << formatDelta(diffResults(R, *Other.Result), *P);
  }

  if (Prov)
    return runProvenanceQueries(*P, R, *Main.Policy, *Prov, Opts);
  return 0;
}
