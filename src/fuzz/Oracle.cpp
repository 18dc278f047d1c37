//===- fuzz/Oracle.cpp ---------------------------------------------------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//

#include "fuzz/Oracle.h"

#include "checks/Driver.h"
#include "context/PolicyRegistry.h"
#include "interp/Interpreter.h"
#include "ir/Program.h"
#include "pta/AnalysisResult.h"
#include "pta/Clients.h"
#include "pta/Solver.h"
#include "pta/provenance/Provenance.h"
#include "ptaref/ReferenceAnalysis.h"
#include "ptaref/Validate.h"
#include "taint/Taint.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

using namespace pt;
using namespace pt::fuzz;

namespace {

CiProjection projectConcrete(const ConcreteObservations &Obs) {
  CiProjection P;
  P.VarPointsTo = Obs.VarPointsTo;
  P.CallEdges = Obs.CallEdges;
  P.ReachableMethods = Obs.ReachableMethods;
  P.StaticFieldPointsTo = Obs.StaticFieldPointsTo;
  P.FieldPointsTo = Obs.FieldPointsTo;
  P.MayFailCasts = Obs.FailedCasts;
  return P;
}

CiProjection projectReference(const ReferenceAnalysis &Ref,
                              const Program &Prog) {
  CiProjection P;
  P.VarPointsTo = Ref.ciVarPointsTo();
  P.CallEdges = Ref.ciCallEdges();
  P.ReachableMethods = Ref.ciReachable();
  P.StaticFieldPointsTo = Ref.ciStaticFieldPointsTo();
  P.FieldPointsTo = Ref.ciFieldPointsTo();
  // The may-fail-casts client, recomputed over the reference's var facts.
  for (uint32_t Site = 0; Site < Prog.numCastSites(); ++Site) {
    const CastSite &CS = Prog.castSite(Site);
    for (const auto &[Var, Heap] : P.VarPointsTo) {
      if (Var != CS.From.index())
        continue;
      if (!Prog.isSubtype(Prog.heap(HeapId(Heap)).Type, CS.Target)) {
        P.MayFailCasts.insert(Site);
        break;
      }
    }
  }
  return P;
}

/// Renders one canonical export row for a mismatch message.
std::string renderRow(const std::vector<uint32_t> &Row) {
  std::ostringstream OS;
  OS << "(";
  for (size_t I = 0; I < Row.size(); ++I)
    OS << (I ? " " : "") << Row[I];
  OS << ")";
  return OS.str();
}

/// Exact export comparison (both directions) between the solver and the
/// reference model, as in the differential test suite but reporting
/// rather than asserting.
void diffExports(const char *Relation,
                 const std::vector<std::vector<uint32_t>> &Solver,
                 const std::vector<std::vector<uint32_t>> &Ref,
                 const std::string &Policy, size_t MaxExamples,
                 std::vector<CiViolation> &Out) {
  if (Solver == Ref)
    return;
  std::vector<std::vector<uint32_t>> OnlySolver, OnlyRef;
  std::set_difference(Solver.begin(), Solver.end(), Ref.begin(), Ref.end(),
                      std::back_inserter(OnlySolver));
  std::set_difference(Ref.begin(), Ref.end(), Solver.begin(), Solver.end(),
                      std::back_inserter(OnlyRef));
  std::ostringstream OS;
  OS << Relation << ": solver/" << Policy << " vs ref/" << Policy
     << " exports differ: " << OnlySolver.size() << " rows solver-only, "
     << OnlyRef.size() << " rows ref-only;";
  for (size_t I = 0; I < OnlySolver.size() && I < MaxExamples; ++I)
    OS << " solver-only " << renderRow(OnlySolver[I]);
  for (size_t I = 0; I < OnlyRef.size() && I < MaxExamples; ++I)
    OS << " ref-only " << renderRow(OnlyRef[I]);
  Out.push_back({Relation, OS.str()});
}

/// Ids of the registered Direction::May checkers — the monotone ones.
std::vector<std::string> mayCheckerIds() {
  std::vector<std::string> Out;
  checks::CheckerRegistry &Reg = checks::CheckerRegistry::instance();
  for (const std::string &Id : Reg.ids())
    if (Reg.info(Id)->Dir == checks::Direction::May)
      Out.push_back(Id);
  return Out;
}

/// Report keys ("check|siteKey") of the May checkers over one result.
std::set<std::string> mayCheckerKeys(const AnalysisResult &R,
                                     const std::vector<std::string> &Ids) {
  std::set<std::string> Out;
  checks::LintRun Run = checks::runCheckers(R, Ids);
  for (const checks::Diagnostic &D : Run.Diags)
    Out.insert(D.key());
  return Out;
}

/// A tainted-sink report key: (invocation site, argument, tag index).
using SinkKey = std::tuple<uint32_t, uint32_t, uint32_t>;

std::set<SinkKey> taintedSinkKeys(const AnalysisResult &R) {
  std::set<SinkKey> Out;
  for (const TaintedSink &T : findTaintedSinks(R))
    Out.emplace(T.Site.index(), T.ArgIdx, T.TagIdx);
  return Out;
}

std::string renderSinkKeys(const std::vector<SinkKey> &Keys, size_t Max) {
  std::ostringstream OS;
  for (size_t I = 0; I < Keys.size() && I < Max; ++I)
    OS << " (site " << std::get<0>(Keys[I]) << " arg " << std::get<1>(Keys[I])
       << " tag " << std::get<2>(Keys[I]) << ")";
  return OS.str();
}

/// The fifth oracle axis (OracleOptions::CheckTaint): dynamic taint must
/// be contained in the static tainted-sink report under every policy, and
/// the report must shrink monotonically with precision.
void checkTaintOracle(const Program &Prog, const OracleOptions &Opts,
                      const std::vector<std::string> &Policies,
                      OracleReport &Report, std::set<std::string> &Involved) {
  taint::TaintSpec Spec = taint::syntheticSpec(Prog, Opts.InterpSeed);
  taint::TaintPlan Plan = taint::resolve(Spec, Prog);
  if (Plan.Sources.empty() || Plan.Sinks.empty())
    return; // No source-to-sink flow is expressible; nothing to check.

  // Dynamic leg: shadow taint tags on the ORIGINAL program, driven by the
  // same resolved plan the static instrumentation uses.
  InterpTaintMap Map;
  for (auto [Site, Tag] : Plan.Sources)
    Map.SourceTags[Site.index()] |= 1ULL << Tag;
  for (InvokeId S : Plan.Sanitizers)
    Map.SanitizerSites.insert(S.index());
  for (auto [Site, Arg] : Plan.Sinks)
    Map.SinkArgs.insert({Site.index(), Arg});
  std::set<SinkKey> Dynamic;
  for (uint32_t Run = 0; Run < Opts.InterpRuns; ++Run) {
    InterpOptions IOpts;
    IOpts.Seed = Opts.InterpSeed + Run;
    IOpts.Taint = &Map;
    ConcreteObservations Obs = interpret(Prog, IOpts);
    Dynamic.insert(Obs.TaintedSinkHits.begin(), Obs.TaintedSinkHits.end());
  }

  // Static leg: every policy over the instrumented program.
  std::unique_ptr<Program> Inst = taint::instrument(Prog, Plan);
  std::map<std::string, std::set<SinkKey>> StaticKeys;
  for (const std::string &Name : Policies) {
    auto Policy = createPolicy(Name, *Inst);
    if (!Policy)
      continue; // Unknown names are reported by the main policy loop.
    SolverOptions SOpts;
    SOpts.TimeBudgetMs = Opts.SolverTimeBudgetMs;
    SOpts.Cancel = Opts.Cancel;
    Solver S(*Inst, *Policy, SOpts);
    AnalysisResult R = S.run();
    if (R.Aborted)
      continue; // Truncated fixpoints under-approximate; skip.
    std::set<SinkKey> Keys = taintedSinkKeys(R);

    std::vector<SinkKey> Missed;
    std::set_difference(Dynamic.begin(), Dynamic.end(), Keys.begin(),
                        Keys.end(), std::back_inserter(Missed));
    if (!Missed.empty()) {
      std::ostringstream OS;
      OS << "policy " << Name << " misses " << Missed.size()
         << " dynamically tainted sink(s):"
         << renderSinkKeys(Missed, Opts.MaxViolationsPerCheck);
      Report.Violations.push_back({"TaintSoundness", OS.str()});
      Involved.insert(Name);
    }

    StaticKeys.emplace(Name, std::move(Keys));
  }

  // HPT007 monotonicity: more context precision must never introduce a
  // tainted-sink report.
  for (const auto &[Fine, Coarse] : pt::precisionOrderPairs()) {
    auto FIt = StaticKeys.find(Fine);
    auto CIt = StaticKeys.find(Coarse);
    if (FIt == StaticKeys.end() || CIt == StaticKeys.end())
      continue;
    std::vector<SinkKey> Introduced;
    std::set_difference(FIt->second.begin(), FIt->second.end(),
                        CIt->second.begin(), CIt->second.end(),
                        std::back_inserter(Introduced));
    if (Introduced.empty())
      continue;
    std::ostringstream OS;
    OS << "refined policy " << Fine << " reports " << Introduced.size()
       << " tainted sink(s) that " << Coarse << " proves safe:"
       << renderSinkKeys(Introduced, Opts.MaxViolationsPerCheck);
    Report.Violations.push_back({"TaintMonotonicity", OS.str()});
    Involved.insert(Fine);
    Involved.insert(Coarse);
  }
}

} // namespace

OracleReport pt::fuzz::checkProgram(const Program &Prog,
                                    const OracleOptions &Opts) {
  OracleReport Report;
  const std::vector<std::string> &Policies =
      Opts.Policies.empty() ? paperPolicyNames() : Opts.Policies;

  // --- Concrete runs (soundness oracle's ground truth) ---
  ConcreteObservations Merged;
  for (uint32_t Run = 0; Run < Opts.InterpRuns; ++Run) {
    InterpOptions IOpts;
    IOpts.Seed = Opts.InterpSeed + Run;
    ConcreteObservations Obs = interpret(Prog, IOpts);
    Merged.VarPointsTo.insert(Obs.VarPointsTo.begin(), Obs.VarPointsTo.end());
    Merged.CallEdges.insert(Obs.CallEdges.begin(), Obs.CallEdges.end());
    Merged.ReachableMethods.insert(Obs.ReachableMethods.begin(),
                                   Obs.ReachableMethods.end());
    Merged.FailedCasts.insert(Obs.FailedCasts.begin(), Obs.FailedCasts.end());
    Merged.StaticFieldPointsTo.insert(Obs.StaticFieldPointsTo.begin(),
                                      Obs.StaticFieldPointsTo.end());
    Merged.FieldPointsTo.insert(Obs.FieldPointsTo.begin(),
                                Obs.FieldPointsTo.end());
  }
  CiProjection Concrete = projectConcrete(Merged);
  Report.ConcreteFacts = Concrete.totalFacts();

  // --- Solver runs, one per policy ---
  std::map<std::string, CiProjection> Projections;
  std::map<std::string, std::set<std::string>> CheckerReports;
  std::vector<std::string> MayIds =
      Opts.CheckCheckers ? mayCheckerIds() : std::vector<std::string>();
  std::set<std::string> Involved;
  // Wraps diffContainment so every failed check records which solver
  // policies were implicated (labels like "interp" are not policies).
  auto Check = [&](const CiProjection &Fine, const CiProjection &Coarse,
                   const std::string &FineLabel, const std::string &CoarseLabel,
                   std::initializer_list<std::string> ImplicatedPolicies) {
    size_t Before = Report.Violations.size();
    diffContainment(Fine, Coarse, Prog, FineLabel, CoarseLabel,
                    Report.Violations, Opts.MaxViolationsPerCheck);
    if (Report.Violations.size() > Before)
      Involved.insert(ImplicatedPolicies.begin(), ImplicatedPolicies.end());
  };
  for (const std::string &Name : Policies) {
    auto Policy = createPolicy(Name, Prog);
    if (!Policy) {
      Report.Violations.push_back(
          {"Setup", "unknown policy name '" + Name + "'"});
      continue;
    }
    SolverOptions SOpts;
    SOpts.TimeBudgetMs = Opts.SolverTimeBudgetMs;
    SOpts.Cancel = Opts.Cancel;
    // Fourth axis: record every derivation and replay a sample through the
    // rule checker below.  Hooks never influence solving, so the primary
    // run can carry the recorder.
    prov::Recorder ProvRec;
    if (Opts.CheckProvenance && HYBRIDPT_PROVENANCE_ENABLED)
      SOpts.Prov = &ProvRec;
    Solver S(Prog, *Policy, SOpts);
    AnalysisResult R = S.run();
    if (R.Aborted) {
      Report.AbortedPolicies.push_back(Name);
      continue; // Budget-truncated results under-approximate; skip checks.
    }
    CiProjection Proj = ciProject(R);

    // Soundness: concrete ⊆ abstract, relation by relation.
    Check(Concrete, Proj, "interp", Name, {Name});

    if (SOpts.Prov) {
      prov::ValidationResult VR = prov::validateSampledSteps(
          ProvRec, R, *Policy, Opts.ProvenanceStride);
      if (!VR.Ok) {
        Report.Violations.push_back(
            {"Provenance", "worklist/" + Name + ": " + VR.Error +
                               " (after " + std::to_string(VR.CheckedSteps) +
                               " checked steps)"});
        Involved.insert(Name);
      }
    }

    if (Opts.FullReferenceDiff) {
      auto RefPolicy = createPolicy(Name, Prog);
      ReferenceAnalysis Ref(Prog, *RefPolicy);
      if (Ref.run()) {
        size_t Before = Report.Violations.size();
        diffExports("VarPointsTo", R.exportVarPointsTo(),
                    Ref.exportVarPointsTo(), Name,
                    Opts.MaxViolationsPerCheck, Report.Violations);
        diffExports("CallGraph", R.exportCallGraph(), Ref.exportCallGraph(),
                    Name, Opts.MaxViolationsPerCheck, Report.Violations);
        diffExports("FldPointsTo", R.exportFieldPointsTo(),
                    Ref.exportFieldPointsTo(), Name,
                    Opts.MaxViolationsPerCheck, Report.Violations);
        diffExports("Reachable", R.exportReachable(), Ref.exportReachable(),
                    Name, Opts.MaxViolationsPerCheck, Report.Violations);
        diffExports("StaticFldPointsTo", R.exportStaticFieldPointsTo(),
                    Ref.exportStaticFieldPointsTo(), Name,
                    Opts.MaxViolationsPerCheck, Report.Violations);
        diffExports("MethodThrows", R.exportThrowPointsTo(),
                    Ref.exportThrowPointsTo(), Name,
                    Opts.MaxViolationsPerCheck, Report.Violations);
        if (Report.Violations.size() > Before)
          Involved.insert(Name);
      }
    }

    if (Opts.CheckCheckers)
      CheckerReports.emplace(Name, mayCheckerKeys(R, MayIds));

    Projections.emplace(Name, std::move(Proj));
  }

  // --- Reference cross-check (context-insensitive leg) ---
  if (Opts.CheckReference) {
    auto InsensPolicy = createPolicy("insens", Prog);
    ReferenceAnalysis Ref(Prog, *InsensPolicy);
    if (Ref.run()) {
      CiProjection RefProj = projectReference(Ref, Prog);
      // Concrete containment holds against the reference too — catches
      // reference-model bugs even when both engines agree.
      Check(Concrete, RefProj, "interp", "ref:insens", {"insens"});
      auto It = Projections.find("insens");
      if (It != Projections.end()) {
        // Exact equality under insens: containment both ways.
        Check(It->second, RefProj, "insens", "ref:insens", {"insens"});
        Check(RefProj, It->second, "ref:insens", "insens", {"insens"});
      }
      // Every policy refines context-insensitivity, so each projection
      // must be contained in the independent engine's coarsest result.
      for (const auto &[Name, Proj] : Projections)
        if (Name != "insens")
          Check(Proj, RefProj, Name, "ref:insens", {Name});
    }
  }

  // --- Precision-ordering invariants between refining pairs ---
  if (Opts.CheckOrdering) {
    for (const auto &[Fine, Coarse] : pt::precisionOrderPairs()) {
      auto FIt = Projections.find(Fine);
      auto CIt = Projections.find(Coarse);
      if (FIt == Projections.end() || CIt == Projections.end())
        continue;
      Check(FIt->second, CIt->second, Fine, Coarse, {Fine, Coarse});
    }
    // Everything refines insens.
    auto InsIt = Projections.find("insens");
    if (InsIt != Projections.end())
      for (const auto &[Name, Proj] : Projections)
        if (Name != "insens")
          Check(Proj, InsIt->second, Name, "insens", {Name, "insens"});
  }

  // --- Checker monotonicity between refining pairs ---
  if (Opts.CheckCheckers) {
    for (const auto &[Fine, Coarse] : pt::precisionOrderPairs()) {
      auto FIt = CheckerReports.find(Fine);
      auto CIt = CheckerReports.find(Coarse);
      if (FIt == CheckerReports.end() || CIt == CheckerReports.end())
        continue;
      std::vector<std::string> Introduced;
      std::set_difference(FIt->second.begin(), FIt->second.end(),
                          CIt->second.begin(), CIt->second.end(),
                          std::back_inserter(Introduced));
      if (Introduced.empty())
        continue;
      std::ostringstream OS;
      OS << "refined policy " << Fine << " reports " << Introduced.size()
         << " may-finding(s) that " << Coarse << " proves safe:";
      for (size_t I = 0;
           I < Introduced.size() && I < Opts.MaxViolationsPerCheck; ++I)
        OS << " " << Introduced[I];
      Report.Violations.push_back({"CheckerMonotonicity", OS.str()});
      Involved.insert(Fine);
      Involved.insert(Coarse);
    }
  }

  // --- Fifth axis: the dynamic taint oracle ---
  if (Opts.CheckTaint)
    checkTaintOracle(Prog, Opts, Policies, Report, Involved);

  Report.InvolvedPolicies.assign(Involved.begin(), Involved.end());
  return Report;
}
