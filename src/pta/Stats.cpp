//===- pta/Stats.cpp ------------------------------------------------------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//

#include "pta/Stats.h"

#include "ir/Program.h"
#include "pta/AnalysisResult.h"

#include <algorithm>
#include <sstream>

using namespace pt;

namespace {

/// Keeps the \p TopN largest nonzero (id, count) pairs of a dense count
/// vector, count-descending, ties by ascending id.
template <typename IdT>
std::vector<std::pair<IdT, size_t>> topN(const std::vector<size_t> &Counts,
                                         size_t TopN) {
  std::vector<std::pair<IdT, size_t>> All;
  for (uint32_t Id = 0; Id < Counts.size(); ++Id)
    if (Counts[Id] != 0)
      All.push_back({IdT(Id), Counts[Id]});
  std::stable_sort(All.begin(), All.end(), [](const auto &A, const auto &B) {
    return A.second > B.second;
  });
  if (All.size() > TopN)
    All.resize(TopN);
  return All;
}

size_t log2Bucket(size_t Size) {
  size_t Bucket = 0;
  size_t Bound = 1;
  while (Bound < Size) {
    Bound <<= 1;
    ++Bucket;
  }
  return Bucket;
}

} // namespace

ContextStats pt::computeStats(const AnalysisResult &Result, size_t TopN) {
  const Program &Prog = Result.program();
  ContextStats Stats;

  // Contexts per method.
  std::vector<size_t> CtxPerMethod(Prog.numMethods(), 0);
  for (const auto &[M, Ctx] : Result.Reachable)
    ++CtxPerMethod[M.index()];
  for (size_t N : CtxPerMethod)
    Stats.MaxContextsPerMethod = std::max(Stats.MaxContextsPerMethod, N);
  size_t NumReached = Result.ci().reachableMethods().size();
  Stats.AvgContextsPerMethod =
      NumReached == 0 ? 0.0
                      : static_cast<double>(Result.Reachable.size()) /
                            static_cast<double>(NumReached);
  Stats.TopMethodsByContexts = topN<MethodId>(CtxPerMethod, TopN);

  // Context-sensitive facts per owning method.
  std::vector<size_t> FactsPerMethod(Prog.numMethods(), 0);
  for (const auto &E : Result.VarFacts)
    FactsPerMethod[Prog.var(E.Var).Owner.index()] += E.Objs.size();

  // Projected per-variable set sizes: the view's range lengths.
  std::vector<size_t> Sizes;
  std::vector<size_t> VarSizes(Prog.numVars(), 0);
  for (uint32_t V = 0; V < Prog.numVars(); ++V) {
    size_t Size = Result.ci().pointsTo(VarId(V)).size();
    if (Size == 0)
      continue;
    Sizes.push_back(Size);
    VarSizes[V] = Size;
    size_t Bucket = log2Bucket(Size);
    if (Stats.PointsToSizeHistogram.size() <= Bucket)
      Stats.PointsToSizeHistogram.resize(Bucket + 1, 0);
    ++Stats.PointsToSizeHistogram[Bucket];
  }
  if (!Sizes.empty()) {
    std::nth_element(Sizes.begin(), Sizes.begin() + Sizes.size() / 2,
                     Sizes.end());
    Stats.MedianPointsToSize = Sizes[Sizes.size() / 2];
  }
  Stats.FattestVars = topN<VarId>(VarSizes, TopN);
  Stats.TopMethodsByFacts = topN<MethodId>(FactsPerMethod, TopN);
  return Stats;
}

std::string pt::formatStats(const ContextStats &Stats, const Program &Prog) {
  std::ostringstream OS;
  OS << "contexts per method: max " << Stats.MaxContextsPerMethod
     << ", mean " << Stats.AvgContextsPerMethod << "\n";
  OS << "median points-to set size: " << Stats.MedianPointsToSize << "\n";

  OS << "points-to size histogram (log2 buckets):\n";
  size_t Lo = 1;
  for (size_t I = 0; I < Stats.PointsToSizeHistogram.size(); ++I) {
    size_t Hi = size_t(1) << I;
    OS << "  [" << Lo;
    if (Hi != Lo)
      OS << "-" << Hi;
    OS << "]: " << Stats.PointsToSizeHistogram[I] << "\n";
    Lo = Hi + 1;
  }

  OS << "hottest methods by contexts:\n";
  for (const auto &[M, N] : Stats.TopMethodsByContexts)
    OS << "  " << Prog.qualifiedName(M) << ": " << N << "\n";
  OS << "hottest methods by facts:\n";
  for (const auto &[M, N] : Stats.TopMethodsByFacts)
    OS << "  " << Prog.qualifiedName(M) << ": " << N << "\n";
  OS << "fattest variables:\n";
  for (const auto &[V, N] : Stats.FattestVars)
    OS << "  " << Prog.qualifiedName(Prog.var(V).Owner)
       << "::" << Prog.text(Prog.var(V).Name) << ": " << N << "\n";
  return OS.str();
}
