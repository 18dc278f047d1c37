//===- serve/Epoch.cpp ---------------------------------------------------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//

#include "serve/Epoch.h"

#include "ir/Program.h"

using namespace pt;
using namespace pt::serve;

std::shared_ptr<const Epoch> pt::serve::loadEpoch(uint64_t Id,
                                                  const std::string &Spec,
                                                  std::string &Error) {
  auto Ep = std::make_shared<Epoch>();
  static_cast<LoadedProgram &>(*Ep) = loadProgram(Spec);
  if (!Ep->ok()) {
    // The first error names the problem; the rest are usually noise.
    Error = Ep->Errors.front();
    return nullptr;
  }
  Ep->Id = Id;
  Ep->Spec = Spec;
  return Ep;
}

std::shared_ptr<const CacheEntry> ResultCache::get(const std::string &Key) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Index.find(Key);
  if (It == Index.end()) {
    ++Misses;
    return nullptr;
  }
  ++Hits;
  Order.splice(Order.begin(), Order, It->second);
  return It->second->second;
}

void ResultCache::put(const std::string &Key,
                      std::shared_ptr<const CacheEntry> Entry) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Index.find(Key);
  if (It != Index.end()) {
    It->second->second = std::move(Entry);
    Order.splice(Order.begin(), Order, It->second);
    return;
  }
  Order.emplace_front(Key, std::move(Entry));
  Index[Key] = Order.begin();
  while (Order.size() > Max) {
    Index.erase(Order.back().first);
    Order.pop_back();
    ++Evictions;
  }
}

void ResultCache::clear() {
  std::lock_guard<std::mutex> Lock(Mu);
  Order.clear();
  Index.clear();
}

ResultCache::Stats ResultCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  Stats S;
  S.Hits = Hits;
  S.Misses = Misses;
  S.Evictions = Evictions;
  S.Entries = Order.size();
  S.Capacity = Max;
  return S;
}
