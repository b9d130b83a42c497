#include "stats.h"

#include <algorithm>
#include <cmath>

namespace pgbench {

namespace {

/// 0-based index of the nearest-rank q-percentile among n sorted samples.
size_t RankIndex(size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  const size_t k = rank < 1.0 ? 1 : static_cast<size_t>(rank);
  return std::min(k, n) - 1;
}

}  // namespace

size_t SamplesBeyond(size_t n, double q) {
  if (n == 0) return 0;
  return n - 1 - RankIndex(n, q);
}

std::optional<double> TailPercentile(std::vector<double> samples, double q) {
  if (SamplesBeyond(samples.size(), q) < kMinSamplesBeyond) {
    return std::nullopt;
  }
  const size_t k = RankIndex(samples.size(), q);
  std::nth_element(samples.begin(), samples.begin() + k, samples.end());
  return samples[k];
}

Tail HighestTail(const std::vector<double>& samples, double q_max) {
  if (samples.empty()) return {};
  for (double q : {0.99, 0.95, 0.90, 0.75, 0.50}) {
    if (q > q_max + 1e-12) continue;
    if (std::optional<double> v = TailPercentile(samples, q)) return {q, *v};
  }
  return {0.50, Median(samples)};
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  const size_t k = RankIndex(samples.size(), 0.5);
  std::nth_element(samples.begin(), samples.begin() + k, samples.end());
  return samples[k];
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

}  // namespace pgbench
