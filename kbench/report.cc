#include "report.h"

#include <cmath>
#include <thread>

#include "obs/buildinfo.h"
#include "stats.h"

namespace kbench {

namespace obs = kadop::obs;

namespace {

/// JSON has no infinity: a percentile that lands on a failed query (see
/// kFailed) prints as this many seconds.
constexpr double kFailedPrintS = 1e9;

double Finite(double v) { return std::isinf(v) ? kFailedPrintS : v; }

double Mb(uint64_t bytes) { return static_cast<double>(bytes) / (1 << 20); }

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

void WriteQuartiles(obs::JsonWriter& w, const char* key,
                    const std::vector<double>& v) {
  const Quartiles q = QuartilesOf(v);
  w.Key(key);
  w.BeginObject();
  w.Key("q1");
  w.Value(Finite(q.q1));
  w.Key("median");
  w.Value(Finite(q.median));
  w.Key("q3");
  w.Value(Finite(q.q3));
  w.Key("samples");
  w.Value(static_cast<uint64_t>(v.size()));
  w.EndObject();
}

void WriteTail(obs::JsonWriter& w, const char* key, const Tail& t) {
  w.Key(key);
  w.BeginObject();
  w.Key("value");
  w.Value(Finite(t.value));
  w.Key("percentile");
  w.Value(t.percentile);
  w.Key("samples_beyond");
  w.Value(static_cast<uint64_t>(t.beyond));
  w.Key("samples");
  w.Value(static_cast<uint64_t>(t.samples));
  w.EndObject();
}

}  // namespace

std::vector<Metric> RunEndToEnd(Workload& w) {
  for (int r = 0; r < w.setup_reps(); ++r) {
    w.Setup(nullptr);
    w.AfterSetup(nullptr);
    if (w.phase_per_setup() || r + 1 == w.setup_reps()) {
      w.RunPhase(nullptr);
      w.Verify(nullptr);
    }
  }

  const QueryGroup& m = w.measured;
  std::vector<double> publish_s_per_mb;
  std::vector<double> publish_wire_per_byte;
  for (const PublishRun& p : w.publishes) {
    publish_s_per_mb.push_back(p.virtual_s / Mb(p.corpus_bytes));
    publish_wire_per_byte.push_back(static_cast<double>(p.wire_bytes) /
                                    static_cast<double>(p.corpus_bytes));
  }
  return {
      {"setup_s", "s", Median(w.setup_wall_s)},
      {"query_p50_s", "s", Finite(Median(m.latency_s))},
      {"query_tail_s", "s", Finite(SupportedTail(m.latency_s).value)},
      {"first_answer_p50_s", "s", Finite(Median(m.first_answer_s))},
      {"wire_kb_per_query", "KB",
       Ratio(static_cast<double>(m.wire_bytes) / 1024.0,
             static_cast<double>(m.attempted))},
      {"publish_s_per_mb", "s/MB", Median(publish_s_per_mb)},
      {"publish_wire_bytes_per_byte", "B/B", Median(publish_wire_per_byte)},
      {"peak_rss_mb", "MB", PeakRssMb()},
  };
}

std::vector<Metric> WallMetrics(const Workload& w) {
  std::vector<double> publish_mb_per_wall_s;
  for (const PublishRun& p : w.publishes) {
    publish_mb_per_wall_s.push_back(Mb(p.corpus_bytes) / p.wall_s);
  }
  return {
      {"wall_qps", "1/s", Median(w.measured.block_qps)},
      {"wall_query_ms_p50", "ms", Median(w.closed_loop.wall_ms)},
      {"wall_query_ms_tail", "ms", SupportedTail(w.closed_loop.wall_ms).value},
      {"publish_mb_per_wall_s", "MB/s", Median(publish_mb_per_wall_s)},
  };
}

void WriteProvenance(const Workload& w, obs::JsonWriter& out) {
  out.Key("workload");
  out.Value(w.name());
  out.Key("seed");
  out.Value(w.options().seed);
  out.Key("seconds");
  out.Value(w.options().seconds);
  out.Key("build_type");
#ifdef KBENCH_BUILD_TYPE
  out.Value(KBENCH_BUILD_TYPE);
#else
  out.Value("unknown");
#endif
  out.Key("compiler");
  out.Value(__VERSION__);
  out.Key("buildinfo");
  out.Value(obs::BuildInfoString());
  out.Key("nproc");
  out.Value(static_cast<uint64_t>(std::thread::hardware_concurrency()));
  out.Key("query_options");
  out.Value("strategy=auto dpp_join_available=true (all else default)");
  out.Key("params");
  out.BeginObject();
  w.WriteParams(out);
  out.Key("setup_reps");
  out.Value(w.setup_reps());
  out.EndObject();
}

void WriteMetrics(const std::vector<Metric>& metrics, obs::JsonWriter& out) {
  out.BeginObject();
  for (const Metric& m : metrics) {
    out.Key(m.name);
    out.BeginObject();
    out.Key("value");
    out.Value(m.value);
    out.Key("unit");
    out.Value(m.unit);
    out.EndObject();
  }
  out.EndObject();
}

/// The untraced run's detail: everything the end-to-end metrics summarize,
/// with sample counts, quartiles and the failure accounting.
void WriteDetail(const Workload& w, obs::JsonWriter& out) {
  const QueryGroup& m = w.measured;
  const QueryGroup& closed = w.closed_loop;
  // Degraded and incomplete queries are failures here and in every
  // latency sample; the result line's `failed` counts the hard ones.
  out.Key("failed_frac");
  out.Value(Ratio(static_cast<double>(w.failed + w.degraded),
                  static_cast<double>(w.attempted)));
  out.Key("attempted");
  out.Value(static_cast<uint64_t>(w.attempted));
  out.Key("failed_wrong_or_errored");
  out.Value(static_cast<uint64_t>(w.failed));
  out.Key("failed_degraded_or_incomplete");
  out.Value(static_cast<uint64_t>(w.degraded));
  out.Key("measured_degraded");
  out.Value(static_cast<uint64_t>(m.degraded));
  out.Key("measured_incomplete");
  out.Value(static_cast<uint64_t>(m.incomplete));
  out.Key("readback_degraded");
  out.Value(static_cast<uint64_t>(closed.degraded));
  WriteTail(out, "query_tail", SupportedTail(m.latency_s));
  WriteTail(out, "wall_query_ms_tail", SupportedTail(closed.wall_ms));
  WriteQuartiles(out, "setup_s", w.setup_wall_s);
  WriteQuartiles(out, "corpus_gen_s", w.corpus_gen_s);
  WriteQuartiles(out, "wall_query_ms", closed.wall_ms);
  WriteQuartiles(out, "query_s", m.latency_s);
  WriteQuartiles(out, "wall_qps_blocks", m.block_qps);
  out.Key("wall_qps_overall");
  out.Value(Ratio(static_cast<double>(m.attempted), m.loop_wall_s));
  out.Key("oracle_checks");
  out.Value(static_cast<uint64_t>(w.oracle.checks));
  out.Key("oracle_mismatches");
  out.BeginArray();
  for (const std::string& s : w.oracle.mismatches) out.Value(s);
  out.EndArray();
  out.Key("wall");
  WriteMetrics(WallMetrics(w), out);
  for (const auto& [key, value] : w.detail) {
    out.Key(key);
    out.Value(value);
  }
}

}  // namespace kbench
