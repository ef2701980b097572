// The whole system is deterministic given its seeds: two identical runs
// produce bit-identical virtual times, traffic counters and answers. This
// is what makes the experiment harnesses reproducible.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/random.h"
#include "core/kadop.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_analysis.h"
#include "sim/fault_plan.h"
#include "xml/corpus.h"
#include "xml/parser.h"

namespace kadop {
namespace {

struct RunOutcome {
  double publish_time = 0;
  double query_time = 0;
  uint64_t traffic_bytes = 0;
  uint64_t traffic_messages = 0;
  size_t answers = 0;
  uint64_t postings_stored = 0;

  friend bool operator==(const RunOutcome&, const RunOutcome&) = default;
};

RunOutcome RunScenario() {
  xml::corpus::DblpOptions copt;
  copt.target_bytes = 80 << 10;
  auto docs = xml::corpus::GenerateDblp(copt);

  core::KadopOptions opt;
  opt.peers = 16;
  opt.dpp.max_block_postings = 256;
  core::KadopNet net(opt);
  std::vector<const xml::Document*> ptrs;
  for (const auto& d : docs) ptrs.push_back(&d);

  const obs::Counter* stored =
      obs::MetricRegistry::Default().GetCounter("dht.postings_stored");
  const uint64_t stored_before = stored->value();
  RunOutcome out;
  out.publish_time = net.PublishAndWait(3, ptrs);
  query::QueryOptions qopt;
  qopt.strategy = query::QueryStrategy::kDpp;
  auto result =
      net.QueryAndWait(7, "//article//author[. contains 'Ullman']", qopt);
  EXPECT_TRUE(result.ok());
  out.query_time = result.value().metrics.ResponseTime();
  out.answers = result.value().answers.size();
  out.traffic_bytes = net.network().traffic().bytes;
  out.traffic_messages = net.network().traffic().messages;
  out.postings_stored = stored->value() - stored_before;
  return out;
}

TEST(DeterminismTest, IdenticalRunsProduceIdenticalOutcomes) {
  const RunOutcome a = RunScenario();
  const RunOutcome b = RunScenario();
  EXPECT_EQ(a, b);
  EXPECT_GT(a.publish_time, 0.0);
  EXPECT_GT(a.traffic_bytes, 0u);
}

// The strongest observable we have: the FULL metric registry. Two
// same-seed runs with a view and seeded faults both live must leave
// every counter, gauge and histogram bucket byte-identical — any
// wall-clock, RNG or hash-order escape anywhere in the stack shows up
// here as a diff.
obs::MetricsSnapshot RunScenarioFullSnapshot() {
  obs::MetricRegistry::Default().Reset();

  xml::corpus::DblpOptions copt;
  copt.target_bytes = 60 << 10;
  auto docs = xml::corpus::GenerateDblp(copt);

  core::KadopOptions opt;
  opt.peers = 12;
  opt.dpp.max_block_postings = 128;
  core::KadopNet net(opt);

  std::vector<const xml::Document*> ptrs;
  for (const auto& d : docs) ptrs.push_back(&d);
  (void)net.PublishAndWait(2, ptrs);
  EXPECT_TRUE(net.CreateViewAndWait("//article//title").ok());

  // Faults go live after publish (like the chaos suite): queries retry
  // through drops, and the retry/timeout schedule is itself seeded.
  sim::FaultOptions faults;
  faults.seed = 4242;
  faults.drop_p = 0.02;
  faults.dup_p = 0.01;
  faults.jitter_mean_s = 0.005;
  net.EnableFaults(faults);

  query::QueryOptions qopt;
  qopt.strategy = query::QueryStrategy::kDpp;
  qopt.fetch_retry.timeout_s = 0.5;
  qopt.fetch_retry.max_retries = 3;
  // Same query twice: the second pass runs from a warm owner cache.
  for (int pass = 0; pass < 2; ++pass) {
    auto result =
        net.QueryAndWait(5, "//article//author[. contains 'Ullman']", qopt);
    EXPECT_TRUE(result.ok());
  }
  // View serving (hit or guarded fallback — both deterministic under the
  // seeded fault plan).
  query::QueryOptions vopt;
  vopt.strategy = query::QueryStrategy::kView;
  vopt.fetch_retry = qopt.fetch_retry;
  for (int pass = 0; pass < 3; ++pass) {
    auto result = net.QueryAndWait(3, "//article//title", vopt);
    EXPECT_TRUE(result.ok());
  }
  return obs::MetricRegistry::Default().Snapshot();
}

TEST(DeterminismTest, FullMetricSnapshotIsSeedDeterministic) {
  const obs::MetricsSnapshot a = RunScenarioFullSnapshot();
  const obs::MetricsSnapshot b = RunScenarioFullSnapshot();
  obs::MetricRegistry::Default().Reset();

  EXPECT_EQ(a, b);
  // Byte-level check on the serialized form too: ToJson is itself part of
  // the deterministic surface (ordering, formatting).
  EXPECT_EQ(a.ToJson(), b.ToJson());
  EXPECT_FALSE(a.counters.empty());
}

// With wire-propagated trace contexts, the trace buffer (span ids, trace
// ids, parents, nodes, virtual timestamps) and its derived Chrome export
// are part of the deterministic surface too.
struct TraceDumps {
  std::string text;
  std::string json;
  std::string chrome;
};

TraceDumps RunScenarioTraced() {
  auto& tracer = obs::Tracer::Default();
  tracer.Clear();
  tracer.SetEnabled(true);

  TraceDumps dump;
  {
    xml::corpus::DblpOptions copt;
    copt.target_bytes = 60 << 10;
    auto docs = xml::corpus::GenerateDblp(copt);

    core::KadopOptions opt;
    opt.peers = 12;
    core::KadopNet net(opt);
    std::vector<const xml::Document*> ptrs;
    for (const auto& d : docs) ptrs.push_back(&d);
    (void)net.PublishAndWait(2, ptrs);

    query::QueryOptions qopt;
    qopt.strategy = query::QueryStrategy::kDppJoin;
    qopt.dpp_join_available = true;
    auto result = net.QueryAndWait(5, "//article[//author]//title", qopt);
    EXPECT_TRUE(result.ok());

    dump.text = tracer.DumpText();
    dump.json = tracer.DumpJson();
    dump.chrome = obs::ChromeTraceJson(tracer);
  }
  tracer.SetEnabled(false);
  tracer.Clear();
  return dump;
}

TEST(DeterminismTest, TraceDumpsAreSeedDeterministic) {
  const TraceDumps a = RunScenarioTraced();
  const TraceDumps b = RunScenarioTraced();
  EXPECT_EQ(a.text, b.text);
  EXPECT_EQ(a.json, b.json);
  EXPECT_EQ(a.chrome, b.chrome);
  EXPECT_NE(a.json.find("\"trace\""), std::string::npos);
  EXPECT_NE(a.chrome.find("\"ph\":\"X\""), std::string::npos);
}

// Serving-style load: an open-loop burst of Zipf-mixed queries measured
// by nearest-rank percentiles over the raw latencies plus the registry
// delta, the exact shape the serving bench emits. Both must be identical
// across same-seed runs.
std::pair<std::string, obs::MetricsSnapshot> RunServingSlice() {
  obs::MetricRegistry::Default().Reset();

  xml::corpus::DblpOptions copt;
  copt.target_bytes = 60 << 10;
  auto docs = xml::corpus::GenerateDblp(copt);

  core::KadopOptions opt;
  opt.peers = 12;
  core::KadopNet net(opt);
  std::vector<const xml::Document*> ptrs;
  for (const auto& d : docs) ptrs.push_back(&d);
  (void)net.PublishAndWait(0, ptrs);

  const char* mix[] = {"//article[//author]//title", "//article//author",
                       "//inproceedings//title"};
  Rng rng(99);
  const ZipfSampler zipf(3, 1.0);
  std::vector<double> latencies;
  obs::WindowedSnapshots windows(obs::MetricRegistry::Default());
  const double start = net.scheduler().Now();
  for (double t = start + rng.Exponential(0.1); t < start + 4.0;
       t += rng.Exponential(0.1)) {
    const size_t pick = zipf.Sample(rng);
    net.scheduler().At(t, [&net, &rng, &latencies, mix, pick]() {
      query::QueryOptions qopt;
      qopt.strategy = query::QueryStrategy::kAuto;
      qopt.dpp_join_available = true;
      const auto at = static_cast<sim::NodeIndex>(
          rng.Uniform(static_cast<uint64_t>(net.PeerCount())));
      const double submitted = net.scheduler().Now();
      (void)net.SubmitQuery(at, mix[pick], qopt,
                            [&net, &latencies, submitted](query::QueryResult) {
                              latencies.push_back(net.scheduler().Now() -
                                                  submitted);
                            });
    });
  }
  net.RunToIdle();
  std::sort(latencies.begin(), latencies.end());

  obs::JsonWriter w;
  w.BeginObject();
  w.Key("count");
  w.Value(static_cast<uint64_t>(latencies.size()));
  w.Key("p50");
  w.Value(obs::NearestRank(latencies, 0.5));
  w.Key("p99");
  w.Value(obs::NearestRank(latencies, 0.99));
  w.Key("p999");
  w.Value(obs::NearestRank(latencies, 0.999));
  w.EndObject();
  return {w.str(), windows.Advance(start + 4.0).delta};
}

TEST(DeterminismTest, ServingMetricsDeltaIsSeedDeterministic) {
  const auto a = RunServingSlice();
  const auto b = RunServingSlice();
  obs::MetricRegistry::Default().Reset();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  EXPECT_EQ(a.second.ToJson(), b.second.ToJson());
  EXPECT_NE(a.first.find("\"count\""), std::string::npos);
  // Per-holder load accounting moved during the slice.
  bool holder_load = false;
  for (const auto& [name, value] : a.second.counters) {
    if (name.rfind("load.holder.", 0) == 0 && value > 0) holder_load = true;
  }
  EXPECT_TRUE(holder_load);
}

TEST(DeterminismTest, CorporaAreDeterministic) {
  for (int round = 0; round < 2; ++round) {
    xml::corpus::SimpleCorpusOptions opt;
    opt.target_elements = 2000;
    auto a = xml::corpus::GenerateXmark(opt);
    auto b = xml::corpus::GenerateXmark(opt);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(xml::SerializeDocument(a[i]), xml::SerializeDocument(b[i]));
    }
  }
}

TEST(DeterminismTest, SeedChangesTheCorpusButNotItsShape) {
  xml::corpus::DblpOptions a_opt;
  a_opt.target_bytes = 40 << 10;
  xml::corpus::DblpOptions b_opt = a_opt;
  b_opt.seed = 777;
  auto a = xml::corpus::GenerateDblp(a_opt);
  auto b = xml::corpus::GenerateDblp(b_opt);
  EXPECT_NE(xml::SerializeDocument(a[0]), xml::SerializeDocument(b[0]));
  auto sa = xml::corpus::ComputeStats(a);
  auto sb = xml::corpus::ComputeStats(b);
  EXPECT_NEAR(static_cast<double>(sa.elements),
              static_cast<double>(sb.elements), sa.elements * 0.2);
}

}  // namespace
}  // namespace kadop
