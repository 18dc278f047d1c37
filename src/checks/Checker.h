//===- checks/Checker.h - Checker interface and registry --------*- C++ -*-===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The checker interface: each checker inspects one \c AnalysisResult and
/// appends \c Diagnostic records.  Checkers are stateless between runs and
/// registered by id in the \c CheckerRegistry, which the lint driver, the
/// fuzz oracle, and the tests all draw from.
///
//===----------------------------------------------------------------------===//

#ifndef HYBRIDPT_CHECKS_CHECKER_H
#define HYBRIDPT_CHECKS_CHECKER_H

#include "checks/Diagnostic.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace pt {

class AnalysisResult;

namespace checks {

/// Static metadata of one checker; also the SARIF rule descriptor.
struct CheckerInfo {
  /// Registry id, kebab-case: "may-fail-cast".
  std::string Id;
  /// Stable rule id: "HPT004".
  std::string RuleId;
  /// CamelCase rule name for SARIF: "MayFailCast".
  std::string Name;
  /// One-line rule description.
  std::string Summary;
  Severity Sev = Severity::Warning;
  Direction Dir = Direction::May;
};

/// A points-to-backed checker.  Implementations must be deterministic: the
/// same \c AnalysisResult yields the same diagnostics in the same order.
class Checker {
public:
  virtual ~Checker() = default;

  virtual const CheckerInfo &info() const = 0;

  /// Appends this checker's findings over \p Result to \p Out.
  virtual void run(const AnalysisResult &Result,
                   std::vector<Diagnostic> &Out) const = 0;
};

/// Global checker registry.  Builtin checkers self-register on first use;
/// ids are listed in registration order (stable across runs).
class CheckerRegistry {
public:
  using Factory = std::function<std::unique_ptr<Checker>()>;

  /// The process-wide registry, with builtins pre-registered.
  static CheckerRegistry &instance();

  /// Registers a checker factory under \p Info.Id.  Duplicate ids are a
  /// programming error (asserted in debug builds, ignored in release).
  void add(CheckerInfo Info, Factory F);

  /// All registered checker ids, in registration order.
  std::vector<std::string> ids() const;

  /// Metadata of checker \p Id; null when unknown.
  const CheckerInfo *info(const std::string &Id) const;

  /// Instantiates checker \p Id; null when unknown.
  std::unique_ptr<Checker> create(const std::string &Id) const;

private:
  struct Entry {
    CheckerInfo Info;
    Factory Make;
  };
  std::vector<Entry> Entries;
};

} // namespace checks
} // namespace pt

#endif // HYBRIDPT_CHECKS_CHECKER_H
