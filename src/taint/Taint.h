//===- taint/Taint.h - Taint as a points-to client --------------*- C++ -*-===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spec-driven taint tracking layered on the existing points-to machinery
/// (docs/CHECKS.md "Taint analysis").  Taint is modeled as extra abstract
/// objects, not a second fixpoint:
///
///  * resolve() matches a \c TaintSpec against one program's invocation
///    sites, producing a site-level \c TaintPlan shared by the static
///    instrumentation and the interpreter's dynamic taint oracle.
///
///  * instrument() rebuilds the program with, per source call site and
///    tag, synthetic allocations of *taint types* into the call's return
///    variable: one fresh leaf subtype `TT(tag, U)` of every concrete
///    program type U (so casts and virtual dispatch treat taint objects
///    exactly like the values they shadow) plus one root "tag marker"
///    type covering null-valued taint flow.  Sanitizer calls are rewritten
///    to return through a \c SanitizeInstr barrier, which the solver and
///    the Datalog reference model both wire as a cast edge filtered on
///    \c HeapInfo::TaintTag.  Everything downstream — all context
///    policies, the solver, the Datalog reference model, the fallback
///    ladder, guards, and provenance — applies unchanged.
///
///  * pt::findTaintedSinks() (pta/Clients.h) is the client query: sink
///    arguments whose points-to set contains a tainted allocation site.
///    HPT007, the fuzz oracle and the tainted_sinks metric all use it.
///
/// Id stability contract of instrument(): type/field/sig/method/invoke/
/// heap ids and cast-site indices of the original program are preserved
/// verbatim (new entities append after them); variable ids are NOT stable
/// — every cross-program comparison keys on (invoke, argIdx, tag), never
/// on variables.
///
//===----------------------------------------------------------------------===//

#ifndef HYBRIDPT_TAINT_TAINT_H
#define HYBRIDPT_TAINT_TAINT_H

#include "support/Ids.h"
#include "taint/TaintSpec.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace pt {

class Program;

namespace taint {

/// A spec resolved against one program: concrete sites instead of name
/// patterns.  Shared currency of the static injector and the dynamic
/// taint oracle, so the two necessarily agree on what is a source, sink,
/// or sanitizer.
struct TaintPlan {
  /// Distinct tag names, in first-use order; index = tag index.
  std::vector<std::string> Tags;
  /// Source call sites: (site, tag index).  First matching rule wins;
  /// a site matching both source and sanitizer rules is a source.
  std::vector<std::pair<InvokeId, uint32_t>> Sources;
  /// Sanitizer call sites (excluding source sites).
  std::vector<InvokeId> Sanitizers;
  /// Sink positions: (site, argument index).
  std::vector<std::pair<InvokeId, uint32_t>> Sinks;

  bool empty() const {
    return Sources.empty() && Sanitizers.empty() && Sinks.empty();
  }
};

/// Matches \p Spec against \p Prog's invocation sites.  Deterministic:
/// sites are visited in id order, rules in spec order.
TaintPlan resolve(const TaintSpec &Spec, const Program &Prog);

/// Rebuilds \p Prog with the plan's taint instrumentation (see file
/// comment for the object model and the id stability contract).  The
/// result carries the plan's sinks and tag names as
/// \c Program::taintSinks() / \c Program::taintTags().  With an empty
/// plan the rebuild is still performed (useful in tests) and the result
/// is behaviorally identical to the input.
std::unique_ptr<Program> instrument(const Program &Prog,
                                    const TaintPlan &Plan);

/// Derives a deterministic synthetic spec from \p Prog's method names
/// (the fuzz harness's 6th axis): a couple of `*::name/arity` sources,
/// sinks, and a sanitizer selected by \p Seed.  Programs with no methods
/// yield an empty spec.
TaintSpec syntheticSpec(const Program &Prog, uint64_t Seed);

} // namespace taint
} // namespace pt

#endif // HYBRIDPT_TAINT_TAINT_H
