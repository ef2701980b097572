#ifndef KBENCH_STATS_H_
#define KBENCH_STATS_H_

// The benchmark's one percentile path: exact order statistics over the raw
// samples, never a histogram bucket. A failed operation enters a latency
// sample as +infinity, so it counts as missing any latency limit.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

namespace kbench {

inline constexpr double kFailed = std::numeric_limits<double>::infinity();

/// Nearest-rank percentile of an ascending sample: the value at 1-based
/// rank ceil(q * n). Returns 0 for an empty sample.
inline double NearestRank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto n = static_cast<double>(sorted.size());
  size_t rank = static_cast<size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

/// Samples ranked above the nearest-rank q-th percentile.
inline size_t SamplesBeyond(size_t n, double q) {
  const auto rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return n - std::min(n, std::max<size_t>(rank, 1));
}

/// Exact median (nearest rank).
inline double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return NearestRank(v, 0.5);
}

/// The tail a sample can support: the highest of p99, p95 and p90 that
/// has at least `min_beyond` samples ranked above it. When none does, the
/// sample maximum (percentile 1.0).
struct Tail {
  double value = 0;
  double percentile = 0;
  size_t beyond = 0;
  size_t samples = 0;
};

inline Tail SupportedTail(std::vector<double> v, size_t min_beyond = 10) {
  std::sort(v.begin(), v.end());
  Tail t;
  t.samples = v.size();
  for (double q : {0.99, 0.95, 0.90}) {
    const size_t beyond = SamplesBeyond(v.size(), q);
    if (beyond >= min_beyond) {
      t.value = NearestRank(v, q);
      t.percentile = q;
      t.beyond = beyond;
      return t;
    }
  }
  t.value = v.empty() ? 0 : v.back();
  t.percentile = 1.0;
  return t;
}

/// First quartile, median and third quartile (nearest rank).
struct Quartiles {
  double q1 = 0;
  double median = 0;
  double q3 = 0;
};

inline Quartiles QuartilesOf(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return {NearestRank(v, 0.25), NearestRank(v, 0.5), NearestRank(v, 0.75)};
}

}  // namespace kbench

#endif  // KBENCH_STATS_H_
