//===- serve/Epoch.h - Program epochs and the result cache ------*- C++ -*-===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Crash-safe program epochs for the resident daemon (docs/SERVING.md).
///
/// An \c Epoch is an immutable loaded program stamped with a monotonically
/// increasing id.  Requests capture a \c shared_ptr to their epoch at
/// admission, so a reload is atomic from every observer's point of view:
/// new admissions see the new epoch, in-flight requests finish against the
/// old one (kept alive by their reference), and the old program is freed
/// when its last request completes.  A reload that fails to parse leaves
/// the current epoch untouched — the daemon never serves a half-loaded
/// program.
///
/// The \c ResultCache is a bounded LRU from string keys
/// ("<kind>/e<epoch>/<policy>...") to immutable cache entries.  Entries
/// pin their epoch, so eviction — not reload — is what frees an old
/// epoch's solved results.  Only converged, native, fault-free results are
/// ever published (the server enforces this): a degraded or faulted answer
/// must never satisfy a later clean request.
///
//===----------------------------------------------------------------------===//

#ifndef HYBRIDPT_SERVE_EPOCH_H
#define HYBRIDPT_SERVE_EPOCH_H

#include "pta/AnalysisResult.h"
#include "pta/Metrics.h"
#include "pta/Pipeline.h"

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace pt {

class ContextPolicy;
class Program;

namespace serve {

/// One immutable loaded program (\c LoadedProgram::Prog) and its id.
struct Epoch : LoadedProgram {
  uint64_t Id = 0;
  /// What was loaded: a built-in benchmark name or a PTIR file path.
  std::string Spec;
};

/// Loads \p Spec (benchmark name or PTIR file, through \c loadProgram) as
/// epoch \p Id.  Returns nullptr and fills \p Error with the first load
/// error on failure.
std::shared_ptr<const Epoch> loadEpoch(uint64_t Id, const std::string &Spec,
                                       std::string &Error);

/// One cached answer.  Solve entries carry the result (plus the policy it
/// borrows and the epoch that owns the program); rendered entries
/// (lint/compare) carry only their lines.  Immutable once published.
struct CacheEntry {
  std::shared_ptr<const Epoch> Ep;
  /// Solve entries — \c Result borrows \c Policy and \c Ep->Prog.
  std::unique_ptr<ContextPolicy> Policy;
  std::optional<AnalysisResult> Result;
  PrecisionMetrics Metrics;
  std::string LandedPolicy;
  std::string FallbackFrom;
  /// Rendered entries (lint / compare answers).
  std::vector<std::string> Lines;
};

/// Bounded thread-safe LRU over immutable cache entries.
class ResultCache {
public:
  explicit ResultCache(size_t MaxEntries) : Max(MaxEntries ? MaxEntries : 1) {}

  /// The entry under \p Key, bumped to most-recently-used; nullptr on miss.
  std::shared_ptr<const CacheEntry> get(const std::string &Key);

  /// Publishes \p Entry under \p Key (evicting the LRU tail when full).
  /// An existing entry is replaced.
  void put(const std::string &Key, std::shared_ptr<const CacheEntry> Entry);

  /// Drops every entry (reload).  In-flight readers keep their shared_ptr.
  void clear();

  struct Stats {
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    uint64_t Evictions = 0;
    size_t Entries = 0;
    size_t Capacity = 0;
  };
  Stats stats() const;

private:
  using Row = std::pair<std::string, std::shared_ptr<const CacheEntry>>;

  mutable std::mutex Mu;
  size_t Max;
  std::list<Row> Order; ///< Front = most recently used.
  std::unordered_map<std::string, std::list<Row>::iterator> Index;
  uint64_t Hits = 0, Misses = 0, Evictions = 0;
};

} // namespace serve
} // namespace pt

#endif // HYBRIDPT_SERVE_EPOCH_H
