// Sample statistics for the benchmark: medians, tail percentiles that are
// only reported when enough samples lie beyond them, and ratios that never
// divide by zero.

#ifndef PGBENCH_STATS_H_
#define PGBENCH_STATS_H_

#include <cstddef>
#include <optional>
#include <vector>

namespace pgbench {

/// A tail percentile is reported only when at least this many samples lie
/// strictly beyond it (so p95 needs 200 samples, p99 needs 1000).
inline constexpr size_t kMinSamplesBeyond = 10;

/// Number of samples beyond the nearest-rank `q`-percentile of `n` samples.
size_t SamplesBeyond(size_t n, double q);

/// Nearest-rank `q`-percentile (the smallest sample with at least q*n
/// samples at or below it), or nullopt when fewer than kMinSamplesBeyond
/// samples lie beyond it.
std::optional<double> TailPercentile(std::vector<double> samples, double q);

/// A percentile together with the level it was taken at.
struct Tail {
  double q = 0.0;
  double value = 0.0;
};

/// The highest percentile level not above `q_max`, on the 0.50 / 0.75 /
/// 0.90 / 0.95 / 0.99 ladder, that has kMinSamplesBeyond samples beyond it.
/// Falls back to the median when even that is not supported. Empty input
/// gives {0, 0}.
Tail HighestTail(const std::vector<double>& samples, double q_max);

/// The median (nearest rank, lower middle for an even count); 0 for no
/// samples. Any sample count is accepted.
double Median(std::vector<double> samples);

/// num / den, or 0 when den is 0.
double Ratio(double num, double den);

}  // namespace pgbench

#endif  // PGBENCH_STATS_H_
