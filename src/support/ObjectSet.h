//===- support/ObjectSet.h - Hybrid points-to set ---------------*- C++ -*-===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The solver's per-node points-to set, specialized for the workload of
/// semi-naive difference propagation over dense 32-bit object ids:
///
///  - **Small sets** (the overwhelming majority of nodes) are a plain
///    inline vector scanned linearly: a dozen contiguous u32 compares beat
///    any hash probe and allocate exactly one buffer.
///  - **Large sets** promote to a chunked sparse bitmap (512-bit chunks
///    behind a page directory), giving O(1) membership while only paying
///    memory for the id ranges actually populated.
///
/// The set itself is one insertion-order vector plus one pointer to the
/// promoted bitmap (null while inline), 32 bytes in all, so it sits in the
/// solver's hot node without dragging the bitmap's bookkeeping along.
///
/// Both modes keep the elements in one append-only insertion-order array,
/// which is what makes the solver's replay paths snapshot-free: an element,
/// once inserted, keeps its position forever, so callers can walk a set by
/// position while concurrently growing it (or any other set) and never need
/// to copy the source set first.  Delta iteration for difference
/// propagation is a cursor into the same array: positions [cursor, size())
/// are exactly the facts not yet propagated.
///
//===----------------------------------------------------------------------===//

#ifndef HYBRIDPT_SUPPORT_OBJECTSET_H
#define HYBRIDPT_SUPPORT_OBJECTSET_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace pt {

/// A set of dense 32-bit ids with O(1) membership, stable positional
/// iteration, and a hybrid inline-vector / chunked-bitmap representation.
class ObjectSet {
public:
  /// Inline capacity: sets up to this size are linear-scanned; the first
  /// insert beyond it builds the bitmap.  Chosen so the inline buffer plus
  /// bookkeeping stays within two cache lines for the common case.
  static constexpr uint32_t InlineLimit = 12;

  /// True when \p V is present.
  bool contains(uint32_t V) const {
    if (!Bits) {
      for (uint32_t X : Order)
        if (X == V)
          return true;
      return false;
    }
    uint32_t Page = V >> ChunkShift;
    if (Page >= Bits->Dir.size() || Bits->Dir[Page] == NoChunk)
      return false;
    const uint64_t *Chunk =
        &Bits->Words[size_t(Bits->Dir[Page]) * ChunkWords];
    uint32_t Bit = V & ChunkMask;
    return (Chunk[Bit >> 6] >> (Bit & 63)) & 1;
  }

  /// Inserts \p V; returns true when it was not already present.
  bool insert(uint32_t V) {
    if (!Bits) {
      for (uint32_t X : Order)
        if (X == V)
          return false;
      Order.push_back(V);
      if (Order.size() > InlineLimit)
        promote();
      return true;
    }
    if (!setBit(V))
      return false;
    Order.push_back(V);
    return true;
  }

  /// Number of elements.
  uint32_t size() const { return static_cast<uint32_t>(Order.size()); }
  bool empty() const { return Order.empty(); }

  /// Element at insertion position \p Pos.  Positions are stable: an
  /// element never moves once inserted, in either representation.
  uint32_t at(uint32_t Pos) const { return Order[Pos]; }

  /// True once the set has promoted to the bitmap representation.
  bool isBitmap() const { return Bits != nullptr; }

  /// Applies \p Fn to every element in insertion order.
  template <typename Callback> void forEach(Callback &&Fn) const {
    for (uint32_t V : Order)
      Fn(V);
  }

  /// Heap bytes held (diagnostics): the order buffer, plus the bitmap
  /// and its two buffers once promoted.
  size_t memoryBytes() const {
    size_t Bytes = Order.capacity() * sizeof(uint32_t);
    if (Bits)
      Bytes += sizeof(Bitmap) + Bits->Dir.capacity() * sizeof(int32_t) +
               Bits->Words.capacity() * sizeof(uint64_t);
    return Bytes;
  }

private:
  static constexpr uint32_t ChunkShift = 9; ///< 512 bits per chunk.
  static constexpr uint32_t ChunkMask = (1u << ChunkShift) - 1;
  static constexpr uint32_t ChunkWords = 1u << (ChunkShift - 6);
  static constexpr int32_t NoChunk = -1;

  /// The promoted representation.
  struct Bitmap {
    std::vector<int32_t> Dir;    ///< Page -> chunk slot.
    std::vector<uint64_t> Words; ///< Chunk storage, \c ChunkWords apiece.
  };

  /// Sets the bit for \p V, materializing its chunk on demand; returns
  /// true when the bit was previously clear.
  bool setBit(uint32_t V) {
    std::vector<int32_t> &Dir = Bits->Dir;
    std::vector<uint64_t> &Words = Bits->Words;
    uint32_t Page = V >> ChunkShift;
    if (Page >= Dir.size())
      Dir.resize(Page + 1, NoChunk);
    if (Dir[Page] == NoChunk) {
      Dir[Page] = static_cast<int32_t>(Words.size() / ChunkWords);
      Words.resize(Words.size() + ChunkWords, 0);
    }
    uint64_t *Chunk = &Words[size_t(Dir[Page]) * ChunkWords];
    uint32_t Bit = V & ChunkMask;
    uint64_t Mask = uint64_t(1) << (Bit & 63);
    if (Chunk[Bit >> 6] & Mask)
      return false;
    Chunk[Bit >> 6] |= Mask;
    return true;
  }

  /// Builds the bitmap from the inline elements (all distinct by
  /// construction).
  void promote() {
    Bits = std::make_unique<Bitmap>();
    for (uint32_t V : Order)
      setBit(V);
  }

  std::vector<uint32_t> Order;  ///< All elements, append-only.
  std::unique_ptr<Bitmap> Bits; ///< Null = inline mode.
};

} // namespace pt

#endif // HYBRIDPT_SUPPORT_OBJECTSET_H
