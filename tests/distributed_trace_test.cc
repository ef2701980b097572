// End-to-end distributed tracing: a fig3-style twig query traced across a
// live network must yield ONE connected span tree whose remote spans (DHT
// get serving, holder-side block joins, directory lookups) causally parent
// to the originating query's root span via the wire-propagated
// TraceContext — and the derived analyses (critical path, phase breakdown,
// Chrome export) must be consistent with the query's reported metrics.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/kadop.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_analysis.h"
#include "xml/corpus.h"

namespace kadop {
namespace {

struct TracedQuery {
  query::QueryResult result;
  obs::SpanId root = 0;
};

/// Publishes a small dblp corpus on `peers` peers, then runs one traced
/// twig query (dpp_join unless told otherwise) from peer 1. Publish spans
/// are cleared first so the query root is the only root in the buffer.
TracedQuery RunTracedTwigQuery(
    size_t peers,
    query::QueryStrategy strategy = query::QueryStrategy::kDppJoin,
    const char* xpath = "//article[//author]//title",
    index::DppOptions dpp = {}) {
  auto& tracer = obs::Tracer::Default();
  tracer.Clear();
  tracer.SetEnabled(true);

  xml::corpus::DblpOptions copt;
  copt.target_bytes = 256 << 10;
  auto docs = xml::corpus::GenerateDblp(copt);

  core::KadopOptions opt;
  opt.peers = peers;
  opt.dpp = dpp;
  core::KadopNet net(opt);
  std::vector<const xml::Document*> ptrs;
  for (const auto& d : docs) ptrs.push_back(&d);
  net.PublishAndWait(0, ptrs);
  tracer.Clear();  // drop publish spans; keep tracing on for the query

  query::QueryOptions qopt;
  qopt.strategy = strategy;
  qopt.dpp_join_available = true;
  auto result = net.QueryAndWait(1, xpath, qopt);
  EXPECT_TRUE(result.ok());

  TracedQuery out;
  out.result = std::move(result).value();
  const std::vector<obs::SpanId> roots = obs::TraceRoots(tracer);
  EXPECT_EQ(roots.size(), 1u);
  out.root = roots.empty() ? 0 : roots.front();
  tracer.SetEnabled(false);
  return out;
}

TEST(DistributedTraceTest, TwigQueryYieldsOneConnectedTreeAcrossPeers) {
  const TracedQuery q = RunTracedTwigQuery(16);
  auto& tracer = obs::Tracer::Default();
  ASSERT_NE(q.root, 0u);

  const obs::TraceTree tree = obs::BuildTraceTree(tracer, q.root);
  ASSERT_NE(tree.root, nullptr);
  EXPECT_EQ(tree.root->name, "query");

  // Single connected tree: every span of this trace reaches the root.
  EXPECT_EQ(tree.disconnected, 0u);
  EXPECT_GE(tree.spans.size(), 4u);

  // Spans executed on >= 3 distinct peers: the query peer plus remote
  // holders/servers reached only via wire-propagated context.
  EXPECT_GE(tree.PeerCount(), 3u);
  std::set<std::string> names;
  bool remote_span = false;
  for (const obs::SpanRecord* s : tree.spans) {
    names.insert(s->name);
    if (!s->is_event && s->node != tree.root->node) remote_span = true;
  }
  EXPECT_TRUE(remote_span) << "no span executed on a remote peer";
  EXPECT_TRUE(names.count("query.route.directory"));
  EXPECT_TRUE(names.count("join.holder.task"));
  EXPECT_TRUE(names.count("dht.get.serve"));

  tracer.Clear();
}

TEST(DistributedTraceTest, CriticalPathAndPhasesMatchResponseTime) {
  const TracedQuery q = RunTracedTwigQuery(16);
  auto& tracer = obs::Tracer::Default();
  ASSERT_NE(q.root, 0u);
  const obs::TraceTree tree = obs::BuildTraceTree(tracer, q.root);

  // The root span's duration is the query's reported response time.
  const double response = q.result.metrics.ResponseTime();
  ASSERT_NE(tree.root, nullptr);
  EXPECT_NEAR(tree.root->end - tree.root->start, response, 1e-9);

  // Critical path: starts at the root, steps are causally nested, and each
  // step is a span of the tree.
  const auto path = obs::CriticalPath(tree);
  ASSERT_GE(path.size(), 2u);
  EXPECT_EQ(path.front().id, q.root);
  for (size_t i = 1; i < path.size(); ++i) {
    EXPECT_GE(path[i].start, path[i - 1].start - 1e-12);
  }

  // Phase totals partition the root duration exactly.
  const obs::PhaseBreakdown pb = obs::ComputePhaseBreakdown(tree);
  double sum = 0;
  for (const auto& [phase, seconds] : pb.phases) {
    EXPECT_GE(seconds, 0.0) << phase;
    sum += seconds;
  }
  EXPECT_DOUBLE_EQ(sum, pb.total);
  EXPECT_NEAR(pb.total, response, 1e-9);

  // The report renders without dying and mentions the phases.
  const std::string report = obs::PhaseReportText(tracer, q.root);
  EXPECT_NE(report.find("critical path"), std::string::npos);
  EXPECT_NE(report.find("route"), std::string::npos);

  tracer.Clear();
}

// kAuto's planning round is the directory span, also when the plan it
// picks needs only the counts: the span ends before that plan starts, and
// the root records the counts the plan came from.
TEST(DistributedTraceTest, AutoPlanningRoundIsTheDirectorySpan) {
  const TracedQuery q =
      RunTracedTwigQuery(16, query::QueryStrategy::kAuto,
                         "//article//author[. contains 'Ullman']");
  auto& tracer = obs::Tracer::Default();
  ASSERT_NE(q.root, 0u);
  ASSERT_EQ(q.result.metrics.effective_strategy,
            query::QueryStrategy::kSubQueryReducer);
  const obs::TraceTree tree = obs::BuildTraceTree(tracer, q.root);
  ASSERT_NE(tree.root, nullptr);
  EXPECT_EQ(tree.disconnected, 0u);

  const obs::SpanRecord* route = nullptr;
  for (const obs::SpanRecord* s : tree.spans) {
    if (s->name != "query.route.directory") continue;
    EXPECT_EQ(route, nullptr) << "more than one planning round";
    route = s;
  }
  ASSERT_NE(route, nullptr);
  EXPECT_EQ(route->parent, q.root);
  EXPECT_GT(route->end, route->start);
  for (const obs::SpanRecord* s : tree.spans) {
    if (s->is_event || s == route || s == tree.root) continue;
    if (s->parent == q.root) {
      EXPECT_GE(s->start, route->end) << s->name;
    }
  }
  const obs::PhaseBreakdown pb = obs::ComputePhaseBreakdown(tree);
  for (const auto& [phase, seconds] : pb.phases) {
    if (phase == "route") {
      EXPECT_GT(seconds, 0.0);
    }
  }

  std::string counts;
  for (const auto& [key, value] : tree.root->attrs) {
    if (key == "term_counts") counts = value;
  }
  EXPECT_NE(counts.find("l:article="), std::string::npos) << counts;
  EXPECT_NE(counts.find("l:author="), std::string::npos) << counts;
  EXPECT_NE(counts.find("w:ullman="), std::string::npos) << counts;
  EXPECT_NE(obs::PhaseReportText(tracer, q.root).find("term_counts=l:"),
            std::string::npos);

  tracer.Clear();
}

// The sub-query reducer's owners load partitioned lists through the DPP
// get proxy: that time is fetch time, under the reducer plan's fetch span,
// not unattributed `other`. The reducer runs explicitly: kAuto prices that
// gather and prefers kDppJoin here.
TEST(DistributedTraceTest, ReducerLoadsOfPartitionedTermsAreFetchTime) {
  index::DppOptions dpp;
  dpp.max_block_postings = 256;
  const TracedQuery q =
      RunTracedTwigQuery(16, query::QueryStrategy::kSubQueryReducer,
                         "//article//author[. contains 'Ullman']", dpp);
  auto& tracer = obs::Tracer::Default();
  ASSERT_NE(q.root, 0u);
  ASSERT_EQ(q.result.metrics.effective_strategy,
            query::QueryStrategy::kSubQueryReducer);
  EXPECT_TRUE(q.result.metrics.complete);
  const obs::TraceTree tree = obs::BuildTraceTree(tracer, q.root);
  ASSERT_NE(tree.root, nullptr);
  EXPECT_EQ(tree.disconnected, 0u);

  size_t proxies = 0;
  for (const obs::SpanRecord* s : tree.spans) {
    if (s->name != "dht.get.proxy") continue;
    ++proxies;
    EXPECT_GT(s->end, s->start);
    std::string blocks;
    for (const auto& [key, value] : s->attrs) {
      if (key == "blocks") blocks = value;
    }
    EXPECT_GE(std::stoul(blocks), 2u);
  }
  EXPECT_GE(proxies, 1u);

  const obs::PhaseBreakdown pb = obs::ComputePhaseBreakdown(tree);
  double fetch = 0;
  double other = 0;
  for (const auto& [phase, seconds] : pb.phases) {
    if (phase == "fetch") fetch = seconds;
    if (phase == "other") other = seconds;
  }
  EXPECT_GT(fetch, other);
  EXPECT_EQ(obs::PhaseForSpanName("dht.get.proxy"), "fetch");

  tracer.Clear();
}

TEST(DistributedTraceTest, ChromeExportCarriesTheDistributedTree) {
  const TracedQuery q = RunTracedTwigQuery(16);
  auto& tracer = obs::Tracer::Default();
  ASSERT_NE(q.root, 0u);

  const std::string json = obs::ChromeTraceJson(tracer);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"query\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"join.holder.task\""), std::string::npos);
  // Two exports of the same buffer are byte-identical.
  EXPECT_EQ(json, obs::ChromeTraceJson(tracer));

  tracer.Clear();
}

TEST(DistributedTraceTest, WireContextSurvivesMultiHopRouting) {
  // Even on a larger ring where appends/gets route through intermediate
  // peers, every recorded span of the query's trace must still reach the
  // root — forwarding re-stamps the context instead of dropping it.
  const TracedQuery q = RunTracedTwigQuery(32);
  auto& tracer = obs::Tracer::Default();
  ASSERT_NE(q.root, 0u);
  const obs::TraceTree tree = obs::BuildTraceTree(tracer, q.root);
  EXPECT_EQ(tree.disconnected, 0u);
  EXPECT_GE(tree.PeerCount(), 3u);
  tracer.Clear();
}

}  // namespace
}  // namespace kadop
