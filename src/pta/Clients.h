//===- pta/Clients.h - Client analyses --------------------------*- C++ -*-===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two client analyses the paper uses to measure precision, exposed as
/// reusable reports: call devirtualization and cast-safety checking, plus
/// the taint client's sink query.  All three read the result's
/// context-insensitive view (\c CiView).  The example binaries build
/// human-readable output from these.
///
//===----------------------------------------------------------------------===//

#ifndef HYBRIDPT_PTA_CLIENTS_H
#define HYBRIDPT_PTA_CLIENTS_H

#include "support/Ids.h"

#include <cstdint>
#include <vector>

namespace pt {

class AnalysisResult;

/// Verdict for one virtual call site.
enum class DevirtVerdict : uint8_t {
  Dead,         ///< No receiver objects ever reach the site.
  Monomorphic,  ///< Exactly one target: the call can be devirtualized.
  Polymorphic,  ///< Two or more possible targets.
};

/// One row of the devirtualization report.
struct DevirtSite {
  InvokeId Invo;
  DevirtVerdict Verdict;
  /// Possible targets, sorted; empty for dead sites.
  std::vector<MethodId> Targets;
};

/// Classifies every reachable virtual call site.
/// Rows are ordered by invocation-site id.
std::vector<DevirtSite> devirtualizeCalls(const AnalysisResult &Result);

/// Verdict for one cast site.
enum class CastVerdict : uint8_t {
  Unreached, ///< Source variable never points to anything.
  Safe,      ///< Every pointed-to object is a subtype of the target.
  MayFail,   ///< Some pointed-to object has an incompatible type.
};

/// One row of the cast-safety report.
struct CastCheck {
  uint32_t Site;
  CastVerdict Verdict;
  /// Heap sites with incompatible types (the evidence); sorted, only
  /// populated for MayFail.
  std::vector<HeapId> Offenders;
};

/// Checks every cast site in a context-insensitively reachable method.
/// Rows are ordered by cast-site id.
std::vector<CastCheck> checkCasts(const AnalysisResult &Result);

/// One tainted sink finding: the points-to set of \c Actual (argument
/// \c ArgIdx of call \c Site) contains \c Witness, an allocation site
/// tagged with tag \c TagIdx.
struct TaintedSink {
  InvokeId Site;
  uint32_t ArgIdx = 0;
  uint32_t TagIdx = 0;
  VarId Actual;
  HeapId Witness;
};

/// The taint client query over a solved result of a taint-instrumented
/// program (taint/Taint.h): every (reachable sink, tag) pair whose
/// argument may hold a tainted object.  Sorted by (site, argIdx, tag); the
/// witness is the lowest tainted heap id in the set.  Empty on
/// uninstrumented programs.  Its size is the \c tainted_sinks metric.
std::vector<TaintedSink> findTaintedSinks(const AnalysisResult &Result);

} // namespace pt

#endif // HYBRIDPT_PTA_CLIENTS_H
