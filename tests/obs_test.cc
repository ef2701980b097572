// Unit tests for the observability layer: metrics registry semantics
// (bucket boundaries, snapshot/diff/reset, deterministic dumps) and the
// virtual-time span tracer.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_analysis.h"

namespace kadop::obs {
namespace {

TEST(JsonWriterTest, EscapesAndNesting) {
  JsonWriter w;
  w.BeginObject();
  w.Key("s");
  w.Value(std::string_view("a\"b\\c\nd"));
  w.Key("arr");
  w.BeginArray();
  w.Value(static_cast<uint64_t>(1));
  w.Value(true);
  w.Null();
  w.EndArray();
  w.EndObject();
  EXPECT_EQ(w.str(), "{\"s\":\"a\\\"b\\\\c\\nd\",\"arr\":[1,true,null]}");
}

TEST(JsonWriterTest, DoubleFormattingIsStable) {
  EXPECT_EQ(JsonWriter::FormatDouble(0.0), "0");
  EXPECT_EQ(JsonWriter::FormatDouble(3.0), "3");
  EXPECT_EQ(JsonWriter::FormatDouble(-17.0), "-17");
  EXPECT_EQ(JsonWriter::FormatDouble(0.5), "0.5");
  // Non-finite values have no JSON representation.
  EXPECT_EQ(JsonWriter::FormatDouble(std::numeric_limits<double>::quiet_NaN()),
            "null");
  EXPECT_EQ(JsonWriter::FormatDouble(std::numeric_limits<double>::infinity()),
            "null");
}

TEST(JsonWriterTest, Utf8PassesThroughAndControlCharsEscape) {
  // Multi-byte UTF-8 sequences are valid JSON string bytes and must pass
  // through untouched; C0 control characters must become \u00xx escapes.
  JsonWriter w;
  w.BeginObject();
  w.Key("s");
  w.Value(std::string_view("caf\xc3\xa9 \x01\x1f \xe6\x97\xa5"));
  w.EndObject();
  EXPECT_EQ(w.str(), "{\"s\":\"caf\xc3\xa9 \\u0001\\u001f \xe6\x97\xa5\"}");
}

TEST(JsonWriterTest, NonFiniteNumbersSerializeAsNull) {
  JsonWriter w;
  w.BeginArray();
  w.Value(std::numeric_limits<double>::infinity());
  w.Value(-std::numeric_limits<double>::infinity());
  w.Value(std::numeric_limits<double>::quiet_NaN());
  w.Value(1.5);
  w.EndArray();
  EXPECT_EQ(w.str(), "[null,null,null,1.5]");
}

TEST(MetricsTest, CounterIsAPlainAdd) {
  // Hot-path sanity: the handle is stable and Increment is just `+= n` —
  // no lookup on the increment path. (The structural guarantee is that
  // Counter has no indirection; here we pin the observable semantics.)
  MetricRegistry reg;
  Counter* c = reg.GetCounter("x");
  ASSERT_EQ(reg.GetCounter("x"), c);  // same handle, no re-registration
  c->Increment();
  c->Increment(41);
  EXPECT_EQ(c->value(), 42u);
}

TEST(MetricsTest, HistogramBucketBoundariesAreInclusiveUpper) {
  MetricRegistry reg;
  Histogram* h = reg.GetHistogram("h", {1.0, 2.0, 4.0});
  h->Observe(0.5);   // <= 1      -> bucket 0
  h->Observe(1.0);   // == bound  -> bucket 0 (inclusive upper)
  h->Observe(1.001); // > 1, <= 2 -> bucket 1
  h->Observe(4.0);   // == last   -> bucket 2
  h->Observe(100.0); // overflow  -> bucket 3
  ASSERT_EQ(h->counts().size(), 4u);
  EXPECT_EQ(h->counts()[0], 2u);
  EXPECT_EQ(h->counts()[1], 1u);
  EXPECT_EQ(h->counts()[2], 1u);
  EXPECT_EQ(h->counts()[3], 1u);
  EXPECT_EQ(h->count(), 5u);
  EXPECT_DOUBLE_EQ(h->sum(), 0.5 + 1.0 + 1.001 + 4.0 + 100.0);
}

TEST(MetricsTest, SnapshotDiffReset) {
  MetricRegistry reg;
  Counter* c = reg.GetCounter("c");
  Gauge* g = reg.GetGauge("g");
  Histogram* h = reg.GetHistogram("h", {1.0});
  c->Increment(10);
  g->Set(2.5);
  h->Observe(0.5);

  MetricsSnapshot base = reg.Snapshot();
  c->Increment(5);
  g->Set(7.0);
  h->Observe(10.0);

  MetricsSnapshot now = reg.Snapshot();
  MetricsSnapshot diff = now.DiffSince(base);
  EXPECT_EQ(diff.counters.at("c"), 5u);
  // Gauges are levels, not rates: the diff keeps the current value.
  EXPECT_DOUBLE_EQ(diff.gauges.at("g"), 7.0);
  const HistogramSnapshot& hs = diff.histograms.at("h");
  EXPECT_EQ(hs.count, 1u);
  EXPECT_EQ(hs.counts[0], 0u);  // the 0.5 observation was in `base`
  EXPECT_EQ(hs.counts[1], 1u);  // overflow bucket got the 10.0

  // Reset zeroes in place; handles stay valid and start counting again.
  reg.Reset();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_DOUBLE_EQ(g->value(), 0.0);
  EXPECT_EQ(h->count(), 0u);
  c->Increment();
  EXPECT_EQ(reg.Snapshot().counters.at("c"), 1u);
}

TEST(MetricsTest, DumpsAreDeterministicallyOrdered) {
  MetricRegistry reg;
  // Register in non-lexicographic order; dumps must sort by name.
  reg.GetCounter("zzz")->Increment(1);
  reg.GetCounter("aaa")->Increment(2);
  reg.GetGauge("mmm")->Set(3);
  MetricsSnapshot s1 = reg.Snapshot();
  MetricsSnapshot s2 = reg.Snapshot();
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(s1.ToJson(), s2.ToJson());
  EXPECT_EQ(s1.ToText(), s2.ToText());
  const std::string json = s1.ToJson();
  EXPECT_LT(json.find("\"aaa\""), json.find("\"zzz\""));
}

TEST(MetricsTest, NearestRankIsAnOrderStatistic) {
  EXPECT_DOUBLE_EQ(NearestRank({}, 0.5), 0.0);  // empty sample
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i * 0.01);
  // 1-based rank ceil(q * n), clamped to [1, n].
  EXPECT_DOUBLE_EQ(NearestRank(v, 0.0), 0.01);
  EXPECT_DOUBLE_EQ(NearestRank(v, 0.5), 0.50);
  EXPECT_DOUBLE_EQ(NearestRank(v, 0.99), 0.99);
  EXPECT_DOUBLE_EQ(NearestRank(v, 1.0), 1.00);
  EXPECT_DOUBLE_EQ(NearestRank(v, 0.999), 1.00);
  // Values, not bucket edges: a 0.328 s sample reads as 0.328 s.
  const std::vector<double> odd = {0.05, 0.1, 0.328};
  EXPECT_DOUBLE_EQ(NearestRank(odd, 0.5), 0.1);
  EXPECT_DOUBLE_EQ(NearestRank(odd, 0.99), 0.328);
  EXPECT_DOUBLE_EQ(NearestRank({7.0}, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(NearestRank({7.0}, 1.0), 7.0);
}

TEST(MetricsTest, NearestRankIsMonotoneOnAdversarialSamples) {
  // p50 <= p99 <= p999 and every read is a sample, for single values,
  // huge values, skewed heads and wide spreads alike.
  const std::vector<std::vector<double>> workloads = {
      {0.5}, {1e9, 2e9, 3e9},                     // huge values
      {0.1, 0.1, 0.1, 5.0},                       // skewed head
      {1.0, 2.0, 4.0, 8.0, 16.0, 1e6, 1e7, 1e8},  // wide spread
  };
  for (const auto& work : workloads) {
    double prev = 0;
    for (double q : {0.0, 0.001, 0.01, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999,
                     1.0}) {
      const double p = NearestRank(work, q);
      EXPECT_GE(p, prev) << "q=" << q;
      EXPECT_NE(std::find(work.begin(), work.end(), p), work.end());
      prev = p;
    }
    EXPECT_DOUBLE_EQ(prev, work.back());
  }
}

TEST(MetricsTest, WindowedSnapshotsRecordDeltas) {
  MetricRegistry reg;
  Counter* c = reg.GetCounter("c");
  c->Increment(7);  // before the window series starts: not in any delta
  WindowedSnapshots windows(reg);
  c->Increment(3);
  const WindowedSnapshots::Window& w1 = windows.Advance(1.0);
  EXPECT_DOUBLE_EQ(w1.end_time, 1.0);
  EXPECT_EQ(w1.delta.counters.at("c"), 3u);
  c->Increment(2);
  const WindowedSnapshots::Window& w2 = windows.Advance(2.5);
  EXPECT_EQ(w2.delta.counters.at("c"), 2u);
  ASSERT_EQ(windows.windows().size(), 2u);
  EXPECT_EQ(windows.windows()[0].delta.counters.at("c"), 3u);
}

TEST(MetricsTest, DefaultRegistryHasInstrumentationNamespaces) {
  // The process-wide registry picks up subsystem counters lazily; touching
  // it here must not crash and must stay the same object.
  EXPECT_EQ(&MetricRegistry::Default(), &MetricRegistry::Default());
}

TEST(TracerTest, DisabledTracingIsANoOp) {
  Tracer t;
  EXPECT_EQ(t.Begin("x"), 0u);
  t.End(0);
  t.Annotate(0, "k", "v");
  t.Event("e");
  EXPECT_TRUE(t.spans().empty());
}

TEST(TracerTest, SpansRecordVirtualTime) {
  Tracer t;
  double now = 1.5;
  t.SetClock([&now] { return now; }, &now);
  t.SetEnabled(true);
  SpanId s = t.Begin("publish");
  t.Annotate(s, "documents", "3");
  now = 4.0;
  t.Event("dpp.split", s);
  now = 9.25;
  t.End(s);
  ASSERT_EQ(t.spans().size(), 2u);
  const SpanRecord& span = t.spans()[0];
  EXPECT_EQ(span.name, "publish");
  EXPECT_DOUBLE_EQ(span.start, 1.5);
  EXPECT_DOUBLE_EQ(span.end, 9.25);
  const SpanRecord& ev = t.spans()[1];
  EXPECT_TRUE(ev.is_event);
  EXPECT_EQ(ev.parent, s);
  EXPECT_DOUBLE_EQ(ev.start, 4.0);

  // Ids restart from 1 after Clear, so dumps are run-relative.
  t.Clear();
  EXPECT_TRUE(t.spans().empty());
  EXPECT_EQ(t.Begin("again"), s);
  t.ClearClock(&now);
}

TEST(TracerTest, ClockOwnershipPreventsStaleClear) {
  Tracer t;
  int owner_a = 0, owner_b = 0;
  t.SetClock([] { return 1.0; }, &owner_a);
  t.SetClock([] { return 2.0; }, &owner_b);  // b takes over
  t.ClearClock(&owner_a);                    // stale owner: no-op
  t.SetEnabled(true);
  SpanId s = t.Begin("x");
  EXPECT_DOUBLE_EQ(t.spans()[0].start, 2.0);
  t.End(s);
  t.ClearClock(&owner_b);
  t.Clear();
  EXPECT_EQ(t.spans().size(), 0u);
}

TEST(TracerTest, CapacityBoundsMemory) {
  Tracer t;
  t.SetEnabled(true);
  t.SetCapacity(2);
  (void)t.Begin("a");
  t.Event("b");
  EXPECT_EQ(t.Begin("c"), 0u);  // dropped
  t.Event("d");                 // dropped
  EXPECT_EQ(t.spans().size(), 2u);
  EXPECT_EQ(t.dropped(), 2u);
  const std::string text = t.DumpText();
  EXPECT_NE(text.find("dropped 2"), std::string::npos);
}

TEST(TracerTest, OverflowCountsIntoRegistryAndDropped) {
  Counter* dropped =
      MetricRegistry::Default().GetCounter("trace.dropped_spans");
  const uint64_t before = dropped->value();
  Tracer t;
  t.SetEnabled(true);
  t.SetCapacity(1);
  (void)t.Begin("kept");
  EXPECT_EQ(t.Begin("lost"), 0u);
  t.Event("also_lost");
  EXPECT_EQ(t.dropped(), 2u);
  EXPECT_EQ(dropped->value(), before + 2);
}

TEST(TracerTest, OpenSpansTracksUnclosedSpans) {
  Tracer t;
  t.SetEnabled(true);
  EXPECT_EQ(t.OpenSpans(), 0u);
  const SpanId a = t.Begin("a");
  const SpanId b = t.Begin("b");
  t.Event("e");  // events are instantaneous, never "open"
  EXPECT_EQ(t.OpenSpans(), 2u);
  t.End(b);
  EXPECT_EQ(t.OpenSpans(), 1u);
  t.End(a);
  EXPECT_EQ(t.OpenSpans(), 0u);
}

TEST(TracerTest, ScopedContextParentsAndStampsSpans) {
  Tracer t;
  t.SetEnabled(true);
  const SpanId root = t.BeginRoot("query", /*node=*/3);
  const uint64_t trace = t.spans()[0].trace;
  EXPECT_NE(trace, 0u);
  EXPECT_EQ(t.spans()[0].node, 3u);
  {
    ScopedTraceContext scope(t.ContextFor(root));
    EXPECT_TRUE(CurrentTraceContext().active());
    const SpanId child = t.Begin("query.fetch");  // parent from the context
    const SpanRecord& rec = t.spans()[1];
    EXPECT_EQ(rec.parent, root);
    EXPECT_EQ(rec.trace, trace);
    EXPECT_EQ(rec.node, 3u);
    t.End(child);
  }
  EXPECT_FALSE(CurrentTraceContext().active());
  t.End(root);
  // A second root gets a distinct trace id from the deterministic sequence.
  const SpanId root2 = t.BeginRoot("query", 5);
  EXPECT_NE(t.spans()[2].trace, trace);
  t.End(root2);
}

TEST(TraceAnalysisTest, PhaseBreakdownSumsToRootDuration) {
  Tracer t;
  double now = 0.0;
  t.SetClock([&now] { return now; }, &now);
  t.SetEnabled(true);
  const SpanId root = t.BeginRoot("query", 0);
  ScopedTraceContext scope(t.ContextFor(root));
  now = 0.1;
  const SpanId route = t.Begin("query.route.directory");
  now = 0.3;
  t.End(route);
  const SpanId fetch = t.Begin("query.fetch");
  now = 0.7;
  t.End(fetch);
  now = 1.0;
  t.End(root);

  const TraceTree tree = BuildTraceTree(t, root);
  EXPECT_EQ(tree.disconnected, 0u);
  ASSERT_EQ(tree.spans.size(), 3u);

  const PhaseBreakdown pb = ComputePhaseBreakdown(tree);
  double sum = 0;
  double route_s = 0, fetch_s = 0, other_s = 0;
  for (const auto& [phase, seconds] : pb.phases) {
    sum += seconds;
    if (phase == "route") route_s = seconds;
    if (phase == "fetch") fetch_s = seconds;
    if (phase == "other") other_s = seconds;
  }
  EXPECT_DOUBLE_EQ(pb.total, 1.0);
  EXPECT_DOUBLE_EQ(sum, pb.total);  // exact partition, no residual loss
  EXPECT_DOUBLE_EQ(route_s, 0.2);
  EXPECT_DOUBLE_EQ(fetch_s, 0.4);
  EXPECT_DOUBLE_EQ(other_s, 0.4);  // root-only intervals

  const auto path = CriticalPath(tree);
  ASSERT_GE(path.size(), 2u);
  EXPECT_EQ(path[0].id, root);
  EXPECT_EQ(path[1].name, "query.fetch");  // the child ending last

  t.ClearClock(&now);
}

TEST(TraceAnalysisTest, ChromeTraceJsonShapesEvents) {
  Tracer t;
  double now = 0.5;
  t.SetClock([&now] { return now; }, &now);
  t.SetEnabled(true);
  const SpanId root = t.BeginRoot("query", 2);
  {
    ScopedTraceContext scope(t.ContextFor(root));
    t.Event("dpp.dir.serve");
  }
  now = 0.75;
  t.End(root);
  const std::string json = ChromeTraceJson(t);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":2"), std::string::npos);
  // ts in microseconds of virtual time.
  EXPECT_NE(json.find("\"ts\":500000"), std::string::npos);
  EXPECT_EQ(json, ChromeTraceJson(t));  // byte-reproducible
  t.ClearClock(&now);
}

TEST(TracerTest, DumpsAreReproducible) {
  Tracer t;
  double now = 0.125;
  t.SetClock([&now] { return now; }, &now);
  t.SetEnabled(true);
  SpanId s = t.Begin("query");
  t.Annotate(s, "strategy", "dpp");
  now = 0.5;
  t.End(s);
  const std::string json = t.DumpJson();
  const std::string text = t.DumpText();
  EXPECT_EQ(json, t.DumpJson());
  EXPECT_EQ(text, t.DumpText());
  EXPECT_NE(json.find("\"name\":\"query\""), std::string::npos);
  t.ClearClock(&now);
}

}  // namespace
}  // namespace kadop::obs
