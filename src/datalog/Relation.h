//===- datalog/Relation.h - Extensional/intensional relations ---*- C++ -*-===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Relations for the semi-naive Datalog engine: fixed-arity tuples of
/// 32-bit values with hash-based deduplication, delta tracking, and
/// on-demand column indices.
///
/// Storage layout: all settled rows live in one flat array; rows
/// [0, DeltaBegin) are the "old" fixpoint part and [DeltaBegin, end) are
/// the delta of the current round.  Rows derived during a round accumulate
/// in a separate pending area and are promoted to the new delta when the
/// round ends — the engine drives this via \c promote().
///
/// Dedup and the column indices are flat robin-hood tables (\c FlatMap)
/// from a 64-bit tuple/key hash to the head of an intrusive chain of row
/// indices: no per-entry heap nodes, exact under hash collisions, and
/// built/extended with O(1) prepends.
///
//===----------------------------------------------------------------------===//

#ifndef HYBRIDPT_DATALOG_RELATION_H
#define HYBRIDPT_DATALOG_RELATION_H

#include "support/FlatMap.h"
#include "support/Hashing.h"

#include <cassert>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace pt::dl {

/// All Datalog values are dense 32-bit ids.
using Value = uint32_t;

/// Which part of a relation a scan should cover.
enum class Range : uint8_t {
  All,   ///< Settled rows: old fixpoint plus current delta.
  Delta, ///< Only the current delta.
};

/// A fixed-arity relation.
class Relation {
public:
  Relation(std::string Name, uint32_t Arity)
      : Name(std::move(Name)), Arity(Arity) {
    assert(Arity > 0 && "relations need at least one column");
  }

  const std::string &name() const { return Name; }
  uint32_t arity() const { return Arity; }

  /// Inserts \p Row into the pending area unless already present anywhere.
  /// Returns true when the tuple is new.
  bool insert(const Value *Row);

  /// Convenience insert from an initializer list (length must equal the
  /// arity).
  bool insert(std::initializer_list<Value> Row) {
    assert(Row.size() == Arity && "arity mismatch");
    return insert(Row.begin());
  }

  /// True when the tuple is already present (settled or pending).
  bool contains(const Value *Row) const;

  /// Rows settled into the fixpoint (excludes pending).
  size_t settledRows() const { return Data.size() / Arity; }

  /// Rows waiting for promotion.
  size_t pendingRows() const { return Pending.size() / Arity; }

  /// Total distinct tuples ever inserted.
  size_t size() const { return settledRows() + pendingRows(); }

  /// Pointer to settled row \p RowIdx.
  const Value *row(size_t RowIdx) const { return &Data[RowIdx * Arity]; }

  /// The settled row range for \p R: [begin, end) row indices.
  std::pair<size_t, size_t> rowRange(Range R) const {
    if (R == Range::Delta)
      return {DeltaBegin, settledRows()};
    return {0, settledRows()};
  }

  /// Moves pending rows into the delta (and the settled area).  Returns
  /// the number of rows promoted.  The previous delta joins the old part.
  size_t promote();

  /// True when the last promote produced an empty delta.
  bool deltaEmpty() const { return DeltaBegin == settledRows(); }

  /// Scans settled rows in \p R whose columns selected by \p ColMask
  /// (bitmask) equal \p Key values (listed in ascending column order),
  /// invoking \p Fn with each matching row pointer.  Uses (and lazily
  /// builds) a hash index when the mask is non-empty.
  template <typename Callback>
  void scan(Range R, uint32_t ColMask, const Value *Key,
            Callback &&Fn) const {
    auto [Begin, End] = rowRange(R);
    if (ColMask == 0) {
      for (size_t I = Begin; I < End; ++I)
        Fn(row(I));
      return;
    }
    const ColumnIndex &Index = indexFor(ColMask);
    uint64_t H = hashKey(ColMask, Key);
    const uint32_t *Head = Index.Head.find(H);
    for (uint32_t RowIdx = Head ? *Head : NoRow; RowIdx != NoRow;
         RowIdx = Index.Next[RowIdx]) {
      if (RowIdx < Begin || RowIdx >= End)
        continue;
      const Value *R2 = row(RowIdx);
      if (matches(R2, ColMask, Key))
        Fn(R2);
    }
  }

private:
  static constexpr uint32_t NoRow = UINT32_MAX;

  /// Hash-headed intrusive chain over settled rows: \c Head maps a key
  /// hash to the most recent row with that hash, \c Next links rows
  /// sharing a hash (newest first).
  struct ColumnIndex {
    FlatMap<uint32_t> Head;
    std::vector<uint32_t> Next;
  };

  uint64_t hashRow(const Value *Row) const {
    return hashWords(Row, Arity);
  }
  uint64_t hashKey(uint32_t ColMask, const Value *Key) const;
  bool matches(const Value *Row, uint32_t ColMask, const Value *Key) const;
  bool equalRows(const Value *A, const Value *B) const;

  /// Row \p Idx in global addressing: settled rows first, then pending.
  const Value *rowStorage(size_t Idx) const {
    size_t Settled = settledRows();
    return Idx < Settled ? row(Idx) : &Pending[(Idx - Settled) * Arity];
  }

  /// Appends row \p RowIdx (with key hash \p H) to \p Index.
  static void linkRow(ColumnIndex &Index, uint64_t H, uint32_t RowIdx);

  /// Extracts the key of \p Row selected by \p Mask into \p Key; returns
  /// the number of key columns.
  uint32_t extractKey(const Value *Row, uint32_t Mask, Value *Key) const;

  /// Returns (building on demand) the index for \p ColMask over all
  /// settled rows.  Indices are kept current by promote().
  const ColumnIndex &indexFor(uint32_t ColMask) const;

  std::string Name;
  uint32_t Arity;

  std::vector<Value> Data;    ///< Settled rows (old + delta).
  std::vector<Value> Pending; ///< Derived this round, not yet visible.
  size_t DeltaBegin = 0;      ///< First row index of the current delta.

  /// Dedup over settled + pending rows: tuple hash -> newest row index,
  /// chained through \c DedupNext (one entry per row, global addressing).
  FlatMap<uint32_t> DedupHead;
  std::vector<uint32_t> DedupNext;

  /// Lazily built column indices over settled rows, updated on promote.
  /// Masks fit in 32 bits (arity <= 32); the handful of live masks makes
  /// a tiny FlatMap-keyed registry overkill, so a short list of pairs.  A
  /// deque, because \c scan holds an index across its callback while a
  /// nested scan of this relation under another mask may add one: deque
  /// growth at the back never moves existing elements.
  mutable std::deque<std::pair<uint32_t, ColumnIndex>> Indices;
};

} // namespace pt::dl

#endif // HYBRIDPT_DATALOG_RELATION_H
