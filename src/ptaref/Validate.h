//===- ptaref/Validate.h - Replay derivation steps --------------*- C++ -*-===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The derivation-step validator behind `hybridpt explain --validate` and
/// the fuzz harness's derivation-replay axis.  Each recorded step replays
/// as one application of a Datalog reference rule mirroring the step's
/// rule, under the run's policy: the step's facts bind the rule's head and
/// output atoms, the program's facts satisfy its input atoms, and RECORD /
/// MERGE / MERGESTATIC reproduce its contexts.
///
//===----------------------------------------------------------------------===//

#ifndef HYBRIDPT_PTAREF_VALIDATE_H
#define HYBRIDPT_PTAREF_VALIDATE_H

#include "pta/provenance/Provenance.h"

namespace pt::prov {

struct ValidationResult {
  bool Ok = true;
  size_t CheckedSteps = 0;
  std::string Error; ///< First failing step, human-readable.
};

/// Replays every step of \p Tree, each premise concluded by an earlier
/// tree step.  \p Policy is the run's policy.
ValidationResult validateTree(const Recorder &R, const AnalysisResult &Res,
                              const DerivationTree &Tree,
                              ContextPolicy &Policy);

/// Replays every \p Stride-th step of the whole arena (stride 1 = all).
ValidationResult validateSampledSteps(const Recorder &R,
                                      const AnalysisResult &Res,
                                      ContextPolicy &Policy, size_t Stride);

} // namespace pt::prov

#endif // HYBRIDPT_PTAREF_VALIDATE_H
