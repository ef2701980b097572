#ifndef KADOP_OBS_METRICS_H_
#define KADOP_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"

namespace kadop::obs {

// Process-wide metrics registry.
//
// Design constraints (see docs/observability.md):
//  - Hot-path cheap: a Counter increment is a plain 64-bit add on a pointer
//    resolved once. Callers cache `Counter*` handles; no lookup, no locking
//    (the simulator is single-threaded by construction).
//  - Deterministic: iteration order is the metric name's lexicographic order
//    (std::map), so snapshots and dumps are byte-for-byte reproducible.
//  - Stable handles: registering never invalidates previously returned
//    pointers (node-based map), and Reset() zeroes values in place.

class Counter {
 public:
  void Increment(uint64_t n = 1) { value_ += n; }
  uint64_t value() const { return value_; }

 private:
  friend class MetricRegistry;
  uint64_t value_ = 0;
};

class Gauge {
 public:
  void Set(double v) { value_ = v; }
  void Add(double v) { value_ += v; }
  double value() const { return value_; }

 private:
  friend class MetricRegistry;
  double value_ = 0;
};

// Fixed-bucket histogram: `bounds` are ascending inclusive upper bounds; one
// implicit overflow bucket catches everything above the last bound.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double v);

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  const std::vector<double>& bounds() const { return bounds_; }
  // counts().size() == bounds().size() + 1; the last entry is the overflow.
  const std::vector<uint64_t>& counts() const { return counts_; }

 private:
  friend class MetricRegistry;
  std::vector<double> bounds_;
  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
  double sum_ = 0;
};

struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<uint64_t> counts;
  uint64_t count = 0;
  double sum = 0;

  friend bool operator==(const HistogramSnapshot&,
                         const HistogramSnapshot&) = default;
};

// Point-in-time copy of every registered metric, ordered by name.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  // Returns this snapshot minus `base`: counters and histogram counts
  // subtract (metrics absent from `base` count from zero); gauges keep their
  // current value (a gauge is a level, not a rate).
  MetricsSnapshot DiffSince(const MetricsSnapshot& base) const;
  // The counter registered under `name`; 0 when there is none.
  uint64_t CounterValue(const std::string& name) const;

  // Serializes as {"counters":{...},"gauges":{...},"histograms":{...}} into
  // an open writer (for embedding in KadopStats / bench reports).
  void AppendJson(JsonWriter& w) const;
  std::string ToJson() const;
  // One metric per line, `name value`, histograms expanded per bucket.
  std::string ToText() const;

  friend bool operator==(const MetricsSnapshot&,
                         const MetricsSnapshot&) = default;
};

class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  // The process-wide registry used by all instrumented subsystems.
  static MetricRegistry& Default();

  // Returns the metric registered under `name`, creating it on first use.
  // Returned pointers remain valid for the registry's lifetime (across
  // Reset()). A name registered as one kind must not be requested as
  // another.
  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  // `bounds` must be ascending; it is fixed by the first registration and
  // ignored on later lookups of the same name.
  Histogram* GetHistogram(std::string_view name, std::vector<double> bounds);

  MetricsSnapshot Snapshot() const;
  // Zeroes every value in place; registrations and handles survive.
  void Reset();

  size_t MetricCount() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

 private:
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

// Shared bucket recipes so related metrics stay comparable.
// Virtual-time latencies in seconds (queries complete in ms..minutes).
std::vector<double> LatencyBuckets();
// Small cardinalities: DHT hop counts, DPP fan-out.
std::vector<double> CountBuckets();

// The one percentile every verdict reads: the nearest-rank order statistic
// of an ascending sample, the value at 1-based rank ceil(q * n). Returns 0
// for an empty sample. Histogram buckets only count; they decide nothing.
double NearestRank(const std::vector<double>& sorted, double q);

// Windowed time-series view over a registry: each Advance() closes a window
// at virtual time `end_time` and records the metric delta accumulated since
// the previous window boundary. The serving harness uses one window per
// offered-QPS step; anything consuming per-interval rates (dashboards,
// capacity models) reads `windows()`.
class WindowedSnapshots {
 public:
  explicit WindowedSnapshots(const MetricRegistry& registry);

  struct Window {
    double end_time = 0;
    MetricsSnapshot delta;
  };

  // Closes the current window at `end_time`; returns the recorded window.
  const Window& Advance(double end_time);
  const std::vector<Window>& windows() const { return windows_; }

 private:
  const MetricRegistry& registry_;
  MetricsSnapshot previous_;
  std::vector<Window> windows_;
};

}  // namespace kadop::obs

#endif  // KADOP_OBS_METRICS_H_
