#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace kadop::obs {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  KADOP_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()),
              "histogram bounds must be ascending");
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::Observe(double v) {
  size_t i = 0;
  while (i < bounds_.size() && v > bounds_[i]) ++i;
  counts_[i]++;
  count_++;
  sum_ += v;
}

MetricsSnapshot MetricsSnapshot::DiffSince(const MetricsSnapshot& base) const {
  MetricsSnapshot out;
  for (const auto& [name, value] : counters) {
    auto it = base.counters.find(name);
    out.counters[name] = value - (it == base.counters.end() ? 0 : it->second);
  }
  out.gauges = gauges;
  for (const auto& [name, h] : histograms) {
    HistogramSnapshot d = h;
    auto it = base.histograms.find(name);
    if (it != base.histograms.end() && it->second.bounds == h.bounds) {
      for (size_t i = 0; i < d.counts.size(); ++i)
        d.counts[i] -= it->second.counts[i];
      d.count -= it->second.count;
      d.sum -= it->second.sum;
    }
    out.histograms[name] = std::move(d);
  }
  return out;
}

uint64_t MetricsSnapshot::CounterValue(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

void MetricsSnapshot::AppendJson(JsonWriter& w) const {
  w.BeginObject();
  w.Key("counters").BeginObject();
  for (const auto& [name, value] : counters) w.Key(name).Value(value);
  w.EndObject();
  w.Key("gauges").BeginObject();
  for (const auto& [name, value] : gauges) w.Key(name).Value(value);
  w.EndObject();
  w.Key("histograms").BeginObject();
  for (const auto& [name, h] : histograms) {
    w.Key(name).BeginObject();
    w.Key("count").Value(h.count);
    w.Key("sum").Value(h.sum);
    w.Key("bounds").BeginArray();
    for (double b : h.bounds) w.Value(b);
    w.EndArray();
    w.Key("counts").BeginArray();
    for (uint64_t c : h.counts) w.Value(c);
    w.EndArray();
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
}

std::string MetricsSnapshot::ToJson() const {
  JsonWriter w;
  AppendJson(w);
  return std::move(w).str();
}

std::string MetricsSnapshot::ToText() const {
  std::string out;
  for (const auto& [name, value] : counters) {
    out += name;
    out += ' ';
    out += std::to_string(value);
    out += '\n';
  }
  for (const auto& [name, value] : gauges) {
    out += name;
    out += ' ';
    out += JsonWriter::FormatDouble(value);
    out += '\n';
  }
  for (const auto& [name, h] : histograms) {
    out += name;
    out += " count=" + std::to_string(h.count);
    out += " sum=" + JsonWriter::FormatDouble(h.sum);
    for (size_t i = 0; i < h.counts.size(); ++i) {
      out += ' ';
      out += i < h.bounds.size() ? "le" + JsonWriter::FormatDouble(h.bounds[i])
                                 : std::string("inf");
      out += ':';
      out += std::to_string(h.counts[i]);
    }
    out += '\n';
  }
  return out;
}

MetricRegistry& MetricRegistry::Default() {
  static MetricRegistry* registry = new MetricRegistry();
  return *registry;
}

Counter* MetricRegistry::GetCounter(std::string_view name) {
  KADOP_CHECK(!name.empty(), "metric name must be non-empty");
  auto it = counters_.find(name);
  if (it == counters_.end())
    it = counters_.emplace(std::string(name), Counter{}).first;
  return &it->second;
}

Gauge* MetricRegistry::GetGauge(std::string_view name) {
  KADOP_CHECK(!name.empty(), "metric name must be non-empty");
  auto it = gauges_.find(name);
  if (it == gauges_.end()) it = gauges_.emplace(std::string(name), Gauge{}).first;
  return &it->second;
}

Histogram* MetricRegistry::GetHistogram(std::string_view name,
                                        std::vector<double> bounds) {
  KADOP_CHECK(!name.empty(), "metric name must be non-empty");
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), Histogram(std::move(bounds)))
             .first;
  }
  return &it->second;
}

MetricsSnapshot MetricRegistry::Snapshot() const {
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) snap.counters[name] = c.value_;
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g.value_;
  for (const auto& [name, h] : histograms_) {
    snap.histograms[name] =
        HistogramSnapshot{h.bounds(), h.counts(), h.count(), h.sum()};
  }
  return snap;
}

void MetricRegistry::Reset() {
  for (auto& [name, c] : counters_) c.value_ = 0;
  for (auto& [name, g] : gauges_) g.value_ = 0;
  for (auto& [name, h] : histograms_) {
    std::fill(h.counts_.begin(), h.counts_.end(), 0);
    h.count_ = 0;
    h.sum_ = 0;
  }
}

std::vector<double> LatencyBuckets() {
  return {0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 50, 100, 500};
}

std::vector<double> CountBuckets() {
  return {0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32};
}

double NearestRank(const std::vector<double>& sorted, double q) {
  KADOP_CHECK(std::is_sorted(sorted.begin(), sorted.end()),
              "nearest rank needs an ascending sample");
  if (sorted.empty()) return 0;
  const auto n = static_cast<double>(sorted.size());
  // The epsilon keeps q * n from rounding one rank up (0.99 * 100).
  const auto rank = static_cast<size_t>(std::ceil(q * n - 1e-9));
  return sorted[std::clamp<size_t>(rank, 1, sorted.size()) - 1];
}

WindowedSnapshots::WindowedSnapshots(const MetricRegistry& registry)
    : registry_(registry), previous_(registry.Snapshot()) {}

const WindowedSnapshots::Window& WindowedSnapshots::Advance(double end_time) {
  MetricsSnapshot current = registry_.Snapshot();
  Window w;
  w.end_time = end_time;
  w.delta = current.DiffSince(previous_);
  previous_ = std::move(current);
  windows_.push_back(std::move(w));
  return windows_.back();
}

}  // namespace kadop::obs
