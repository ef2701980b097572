#ifndef KBENCH_REPORT_H_
#define KBENCH_REPORT_H_

// Turning a finished workload into the benchmark's output: the end-to-end
// metrics of an untraced run, the per-layer metrics of a traced run, and
// the result line and artifacts both print.

#include <string>
#include <vector>

#include "obs/json.h"
#include "workloads.h"

namespace kbench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

/// Runs the workload untraced (set-ups, measured phase, verification) and
/// returns the end-to-end metrics.
std::vector<Metric> RunEndToEnd(Workload& w);

/// The wall-clock cost metrics of an untraced run: wall_qps,
/// wall_query_ms_p50, wall_query_ms_tail and publish_mb_per_wall_s. The
/// host's speed drifts by more than any regression bound between runs,
/// so they are recorded (in the detail and in the traced run's per-layer
/// metrics) but not gated on.
std::vector<Metric> WallMetrics(const Workload& w);

/// Runs the workload once untraced (one set-up, its read-back, the
/// measured phase and verification), then its measured phase traced and
/// once more untraced, each on a fresh set-up; replays the queries'
/// inputs through the layers' public functions; and returns the
/// per-layer metrics, the first run's WallMetrics() among them. The wall spans, counter
/// deltas and per-query phase breakdowns go into `artifact` (an open
/// object).
std::vector<Metric> RunTraced(Workload& w, kadop::obs::JsonWriter& artifact);

/// Build type, compiler, obs::BuildInfoString(), nproc, the seed and every
/// workload parameter (into an open object).
void WriteProvenance(const Workload& w, kadop::obs::JsonWriter& out);

/// The untraced run's detail behind the end-to-end metrics: sample
/// counts, quartiles, tails and the failure accounting (into an open
/// object).
void WriteDetail(const Workload& w, kadop::obs::JsonWriter& out);

/// Metrics as a JSON object of {"name": {"value": v, "unit": u}}.
void WriteMetrics(const std::vector<Metric>& metrics,
                  kadop::obs::JsonWriter& out);

}  // namespace kbench

#endif  // KBENCH_REPORT_H_
