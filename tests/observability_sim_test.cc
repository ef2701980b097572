// End-to-end determinism of the observability layer: two identical seeded
// simulation runs must produce byte-identical KadopStats dumps and span
// traces. Everything is stamped with the scheduler's virtual clock, so any
// wall-clock leakage or iteration-order instability shows up here.

#include <gtest/gtest.h>

#include <string>

#include "core/kadop.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "xml/corpus.h"

namespace kadop {
namespace {

struct RunDump {
  uint64_t executed_events = 0;
  double now = 0;
  std::string stats_text;
  std::string stats_json;
  std::string trace_text;
  std::string trace_json;
};

/// One full publish + query + join cycle on a small seeded network,
/// starting from clean process-wide observability state.
RunDump RunScenario() {
  obs::MetricRegistry::Default().Reset();
  auto& tracer = obs::Tracer::Default();
  tracer.Clear();
  tracer.SetEnabled(true);

  RunDump dump;
  {
    xml::corpus::DblpOptions copt;
    copt.target_bytes = 64 << 10;
    auto docs = xml::corpus::GenerateDblp(copt);

    core::KadopOptions opt;
    opt.peers = 12;
    core::KadopNet net(opt);
    std::vector<const xml::Document*> ptrs;
    for (const auto& d : docs) ptrs.push_back(&d);
    net.PublishAndWait(0, ptrs);

    query::QueryOptions qopt;
    qopt.strategy = query::QueryStrategy::kDpp;
    auto result = net.QueryAndWait(1, "//article//author", qopt);
    EXPECT_TRUE(result.ok());

    (void)net.JoinPeerAndWait();

    core::KadopStats stats = net.Stats();
    dump.executed_events = stats.executed_events;
    dump.now = stats.now;
    dump.stats_text = stats.ToText();
    dump.stats_json = stats.ToJson();
    dump.trace_text = tracer.DumpText();
    dump.trace_json = tracer.DumpJson();
  }
  tracer.SetEnabled(false);
  tracer.Clear();
  return dump;
}

TEST(ObservabilitySimTest, SeededRunsProduceByteIdenticalDumps) {
  RunDump a = RunScenario();
  RunDump b = RunScenario();
  EXPECT_EQ(a.stats_text, b.stats_text);
  EXPECT_EQ(a.stats_json, b.stats_json);
  EXPECT_EQ(a.trace_text, b.trace_text);
  EXPECT_EQ(a.trace_json, b.trace_json);

  // The dumps actually carry signal: counters moved and spans recorded.
  EXPECT_GT(a.executed_events, 0u);
  EXPECT_GT(a.now, 0.0);
  EXPECT_NE(a.stats_json.find("\"dht.postings_stored\""), std::string::npos);
  EXPECT_NE(a.stats_json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(a.trace_json.find("\"name\":\"publish\""), std::string::npos);
  EXPECT_NE(a.trace_json.find("\"name\":\"query\""), std::string::npos);
  EXPECT_NE(a.trace_json.find("\"name\":\"join_peer\""), std::string::npos);
}

}  // namespace
}  // namespace kadop
