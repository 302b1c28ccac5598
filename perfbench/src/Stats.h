//===- perfbench/src/Stats.h - Sample statistics for the benchmark --------===//
//
// Part of the om64 project (PLDI 1994 OM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The few statistics the end-to-end benchmark reports: median, quartiles
/// (the same "exclusive" method as Python's statistics.quantiles, so the
/// benchmark and its steadiness script agree on every figure), geometric
/// mean of ratios, and the tail rule of the benchmark doc — a percentile
/// is reported only when at least ten samples lie beyond it.
///
//===----------------------------------------------------------------------===//

#ifndef OM64_PERFBENCH_STATS_H
#define OM64_PERFBENCH_STATS_H

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

namespace om64 {
namespace perfbench {

/// Median of \p V; 0 for an empty sample.
inline double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// First and third quartile, computed like Python's
/// statistics.quantiles(V, n=4) (method "exclusive"). A single sample is
/// its own quartiles; an empty one gives {0, 0}.
struct Quartiles {
  double Q1 = 0, Q3 = 0;
};

inline Quartiles quartiles(std::vector<double> V) {
  if (V.empty())
    return {};
  if (V.size() == 1)
    return {V[0], V[0]};
  std::sort(V.begin(), V.end());
  const long N = 4, M = static_cast<long>(V.size()) + 1;
  auto Cut = [&](long I) {
    long J = std::clamp(I * M / N, 1L, static_cast<long>(V.size()) - 1);
    long Delta = I * M - J * N;
    return (V[J - 1] * (N - Delta) + V[J] * Delta) / N;
  };
  return {Cut(1), Cut(3)};
}

/// Geometric mean of positive ratios; 0 when empty or any ratio is not
/// positive (a zero cycle count is a broken run, not a fast one).
inline double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V) {
    if (!(X > 0))
      return 0;
    LogSum += std::log(X);
  }
  return std::exp(LogSum / static_cast<double>(V.size()));
}

/// The highest of the percentiles 99.9, 99, 95, 90, 75 that has at least
/// ten of \p Count samples beyond it, or nullopt when even p75 lacks ten
/// (then only the median is reported).
inline std::optional<double> supportedPercentile(size_t Count) {
  for (double P : {99.9, 99.0, 95.0, 90.0, 75.0})
    if (static_cast<double>(Count) * (100.0 - P) / 100.0 >= 10.0 - 1e-9)
      return P;
  return std::nullopt;
}

/// Nearest-rank percentile \p P (0..100) of \p V; 0 when empty.
inline double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Rank = std::ceil(P / 100.0 * static_cast<double>(V.size()));
  size_t Idx = Rank < 1 ? 0 : static_cast<size_t>(Rank) - 1;
  return V[std::min(Idx, V.size() - 1)];
}

} // namespace perfbench
} // namespace om64

#endif // OM64_PERFBENCH_STATS_H
