//===- context/ContextTable.h - Interned context tuples ---------*- C++ -*-===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interns tuples of up to three \c ContextElem values into dense ids.
///
/// The paper's constructor functions (`pair`, `triple`) "create a new
/// context if one for the same combination of parameters does not already
/// exist" — i.e. contexts are hash-consed.  Depth is statically bounded at
/// three, matching the paper's guarantee that "our most complex constructor
/// is triple".
///
/// The index is a \c FlatMap from the tuple hash to the newest id with that
/// hash; ids sharing a hash are chained through \c Next, so interning
/// allocates no per-entry nodes and stays exact under collisions.
///
//===----------------------------------------------------------------------===//

#ifndef HYBRIDPT_CONTEXT_CONTEXTTABLE_H
#define HYBRIDPT_CONTEXT_CONTEXTTABLE_H

#include "context/ContextElement.h"
#include "support/FlatMap.h"
#include "support/Hashing.h"
#include "support/Ids.h"

#include <array>
#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace pt {

class Program;

/// Maximum number of slots in any context.
inline constexpr uint32_t MaxContextDepth = 3;

/// A hash-consing table for context tuples, producing ids of type \p IdT
/// (either \c CtxId or \c HCtxId).
template <typename IdT> class ContextTable {
public:
  /// A fixed-capacity tuple key: slot 0 holds the arity.
  using Key = std::array<uint32_t, MaxContextDepth + 1>;

  ContextTable() = default;

  /// Interns the tuple (\p Elems, \p Arity); returns the canonical id.
  IdT intern(const ContextElem *Elems, uint32_t Arity) {
    assert(Arity <= MaxContextDepth && "context too deep");
    Key K{};
    K[0] = Arity;
    for (uint32_t I = 0; I < Arity; ++I)
      K[I + 1] = Elems[I].raw();
    uint32_t NewIdx = static_cast<uint32_t>(Tuples.size());
    auto [Head, Fresh] =
        Index.tryEmplace(hashWords(K.data(), K.size()), NewIdx);
    uint32_t ChainNext = NoId;
    if (!Fresh) {
      for (uint32_t I = *Head; I != NoId; I = Next[I])
        if (Tuples[I] == K)
          return IdT::fromIndex(I);
      ChainNext = *Head;
      *Head = NewIdx;
    }
    Tuples.push_back(K);
    Next.push_back(ChainNext);
    return IdT::fromIndex(NewIdx);
  }

  /// Interns the empty tuple (the context-insensitive `*`).
  IdT internEmpty() { return intern(nullptr, 0); }

  /// Interns a 1-tuple.
  IdT intern1(ContextElem A) { return intern(&A, 1); }

  /// Interns a 2-tuple (the paper's `pair`).
  IdT intern2(ContextElem A, ContextElem B) {
    ContextElem Elems[2] = {A, B};
    return intern(Elems, 2);
  }

  /// Number of slots in \p Id.
  uint32_t arity(IdT Id) const { return Tuples[Id.index()][0]; }

  /// The \p Slot-th element of \p Id (the paper's `first`, `second`,
  /// `third` accessors).  Out-of-range slots read as star, which matches
  /// the paper's convention that missing context information is `*`.
  ContextElem elem(IdT Id, uint32_t Slot) const {
    const Key &K = Tuples[Id.index()];
    if (Slot >= K[0])
      return ContextElem::star();
    return ContextElem::fromRaw(K[Slot + 1]);
  }

  /// Total number of distinct tuples interned.
  size_t size() const { return Tuples.size(); }

private:
  static constexpr uint32_t NoId = UINT32_MAX;

  std::vector<Key> Tuples;
  FlatMap<uint32_t> Index;    ///< Tuple hash -> newest id with that hash.
  std::vector<uint32_t> Next; ///< Per id: the older id sharing its hash.
};

/// Appends the canonical word encoding of a context — arity followed by
/// the raw element words — to \p Row.  Both solvers use this encoding to
/// compare results across interning orders.
template <typename IdT>
void appendCanonicalContext(const ContextTable<IdT> &Table, IdT Id,
                            std::vector<uint32_t> &Row) {
  uint32_t Arity = Table.arity(Id);
  Row.push_back(Arity);
  for (uint32_t I = 0; I < Arity; ++I)
    Row.push_back(Table.elem(Id, I).raw());
}

/// Renders one element for dumps: `*`, `H12`, `I7`, or `Tfoo`.
std::string formatContextElem(ContextElem E, const Program &Prog);

/// Renders a whole context tuple, e.g. `[H12, I7, *]`.
template <typename IdT>
std::string formatContext(const ContextTable<IdT> &Table, IdT Id,
                          const Program &Prog) {
  std::string Out = "[";
  for (uint32_t I = 0; I < Table.arity(Id); ++I) {
    if (I)
      Out += ", ";
    Out += formatContextElem(Table.elem(Id, I), Prog);
  }
  Out += "]";
  return Out;
}

} // namespace pt

#endif // HYBRIDPT_CONTEXT_CONTEXTTABLE_H
