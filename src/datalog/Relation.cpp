//===- datalog/Relation.cpp -----------------------------------------------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//

#include "datalog/Relation.h"

using namespace pt::dl;

bool Relation::equalRows(const Value *A, const Value *B) const {
  for (uint32_t I = 0; I < Arity; ++I)
    if (A[I] != B[I])
      return false;
  return true;
}

bool Relation::insert(const Value *Row) {
  uint64_t H = hashRow(Row);
  uint32_t NewIdx = static_cast<uint32_t>(size());
  auto [Head, Fresh] = DedupHead.tryEmplace(H, NewIdx);
  uint32_t ChainNext = NoRow;
  if (!Fresh) {
    // Hash seen before: walk the chain for an exact duplicate, then
    // prepend the new row.
    for (uint32_t I = *Head; I != NoRow; I = DedupNext[I])
      if (equalRows(rowStorage(I), Row))
        return false;
    ChainNext = *Head;
    *Head = NewIdx;
  }
  Pending.insert(Pending.end(), Row, Row + Arity);
  DedupNext.push_back(ChainNext);
  return true;
}

void Relation::linkRow(ColumnIndex &Index, uint64_t H, uint32_t RowIdx) {
  assert(RowIdx < Index.Next.size() && "index chain storage too small");
  auto [Head, Fresh] = Index.Head.tryEmplace(H, RowIdx);
  if (!Fresh) {
    Index.Next[RowIdx] = *Head;
    *Head = RowIdx;
  }
}

uint32_t Relation::extractKey(const Value *Row, uint32_t Mask,
                              Value *Key) const {
  uint32_t N = 0;
  for (uint32_t C = 0; C < Arity; ++C)
    if (Mask & (1u << C))
      Key[N++] = Row[C];
  return N;
}

size_t Relation::promote() {
  // Note: dedup indices for pending rows were assigned assuming they land
  // right after the settled area, which is exactly what happens here.
  size_t Promoted = Pending.size() / Arity;
  DeltaBegin = settledRows();
  Data.insert(Data.end(), Pending.begin(), Pending.end());
  Pending.clear();

  // Extend existing column indices over the new rows.
  for (auto &[Mask, Index] : Indices) {
    Index.Next.resize(settledRows(), NoRow);
    for (size_t I = DeltaBegin; I < settledRows(); ++I) {
      Value Key[32];
      uint32_t N = extractKey(row(I), Mask, Key);
      linkRow(Index, hashWords(Key, N), static_cast<uint32_t>(I));
    }
  }
  return Promoted;
}

uint64_t Relation::hashKey(uint32_t ColMask, const Value *Key) const {
  // Key values arrive pre-packed in ascending column order.
  uint32_t Count = 0;
  for (uint32_t C = 0; C < Arity; ++C)
    if (ColMask & (1u << C))
      ++Count;
  return hashWords(Key, Count);
}

bool Relation::matches(const Value *Row, uint32_t ColMask,
                       const Value *Key) const {
  uint32_t N = 0;
  for (uint32_t C = 0; C < Arity; ++C) {
    if (ColMask & (1u << C)) {
      if (Row[C] != Key[N])
        return false;
      ++N;
    }
  }
  return true;
}

const Relation::ColumnIndex &Relation::indexFor(uint32_t ColMask) const {
  for (const auto &[Mask, Index] : Indices)
    if (Mask == ColMask)
      return Index;
  Indices.emplace_back(ColMask, ColumnIndex{});
  ColumnIndex &Index = Indices.back().second;
  Index.Next.resize(settledRows(), NoRow);
  for (size_t I = 0; I < settledRows(); ++I) {
    Value Key[32];
    uint32_t N = extractKey(row(I), ColMask, Key);
    linkRow(Index, hashWords(Key, N), static_cast<uint32_t>(I));
  }
  return Index;
}
