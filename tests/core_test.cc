#include <gtest/gtest.h>

#include <algorithm>

#include "core/kadop.h"
#include "obs/metrics.h"
#include "xml/corpus.h"

namespace kadop::core {
namespace {

TEST(KadopNetTest, ConstructionWiresAllPeers) {
  KadopOptions opt;
  opt.peers = 5;
  KadopNet net(opt);
  EXPECT_EQ(net.PeerCount(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_NE(net.peer(static_cast<sim::NodeIndex>(i)), nullptr);
  }
}

TEST(KadopNetTest, PublishStoresDocsLocallyAndIndexesGlobally) {
  xml::corpus::DblpOptions copt;
  copt.target_bytes = 40 << 10;
  auto docs = xml::corpus::GenerateDblp(copt);
  KadopOptions opt;
  opt.peers = 6;
  KadopNet net(opt);
  std::vector<const xml::Document*> ptrs;
  for (const auto& d : docs) ptrs.push_back(&d);
  const obs::Counter* stored =
      obs::MetricRegistry::Default().GetCounter("dht.postings_stored");
  const uint64_t stored_before = stored->value();
  const double elapsed = net.PublishAndWait(3, ptrs);
  EXPECT_GT(elapsed, 0.0);
  EXPECT_EQ(net.peer(3)->doc_store().size(), docs.size());
  // All postings landed somewhere.
  store::IoStats io = net.dht().AggregateIo();
  EXPECT_GT(io.write_bytes, 0u);
  EXPECT_GT(stored->value() - stored_before, docs.size());
}

TEST(KadopNetTest, ParallelPublishFasterThanSerial) {
  xml::corpus::DblpOptions copt;
  copt.target_bytes = 160 << 10;
  copt.doc_bytes = 8 << 10;
  auto docs = xml::corpus::GenerateDblp(copt);
  std::vector<const xml::Document*> ptrs;
  for (const auto& d : docs) ptrs.push_back(&d);

  double serial, parallel;
  {
    KadopOptions opt;
    opt.peers = 10;
    KadopNet net(opt);
    serial = net.PublishAndWait(0, ptrs);
  }
  {
    KadopOptions opt;
    opt.peers = 10;
    KadopNet net(opt);
    std::vector<std::pair<sim::NodeIndex,
                          std::vector<const xml::Document*>>> batches(4);
    for (size_t i = 0; i < ptrs.size(); ++i) {
      batches[i % 4].first = static_cast<sim::NodeIndex>(i % 4);
      batches[i % 4].second.push_back(ptrs[i]);
    }
    parallel = net.ParallelPublishAndWait(batches);
  }
  EXPECT_LT(parallel, serial);
}

TEST(KadopNetTest, FullTwoPhaseQueryProducesFinalAnswers) {
  xml::corpus::DblpOptions copt;
  copt.target_bytes = 60 << 10;
  auto docs = xml::corpus::GenerateDblp(copt);
  KadopOptions opt;
  opt.peers = 8;
  KadopNet net(opt);
  std::vector<const xml::Document*> ptrs;
  for (const auto& d : docs) ptrs.push_back(&d);
  net.PublishAndWait(2, ptrs);

  query::QueryOptions qopt;
  qopt.strategy = query::QueryStrategy::kDpp;
  auto full = net.QueryDocumentsAndWait(
      5, "//article//author[. contains 'Ullman']", qopt);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  // Phase 2 recomputes the same answers at the document peers.
  auto sorted = [](std::vector<query::Answer> v) {
    std::sort(v.begin(), v.end(),
              [](const query::Answer& a, const query::Answer& b) {
                if (a.doc != b.doc) return a.doc < b.doc;
                return a.elements < b.elements;
              });
    return v;
  };
  EXPECT_EQ(sorted(full.value().final_answers),
            sorted(full.value().index.answers));
  EXPECT_GT(full.value().total_time, 0.0);
}

TEST(KadopNetTest, DppDisabledNetworkStillAnswersQueries) {
  xml::corpus::DblpOptions copt;
  copt.target_bytes = 30 << 10;
  auto docs = xml::corpus::GenerateDblp(copt);
  KadopOptions opt;
  opt.peers = 6;
  opt.enable_dpp = false;
  KadopNet net(opt);
  std::vector<const xml::Document*> ptrs;
  for (const auto& d : docs) ptrs.push_back(&d);
  net.PublishAndWait(0, ptrs);
  query::QueryOptions qopt;
  qopt.strategy = query::QueryStrategy::kBaseline;
  auto result = net.QueryAndWait(1, "//article//author", qopt);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().answers.empty());
}

TEST(KadopNetTest, TrafficMeterSeesPublishAndQueryTraffic) {
  xml::corpus::DblpOptions copt;
  copt.target_bytes = 30 << 10;
  auto docs = xml::corpus::GenerateDblp(copt);
  KadopOptions opt;
  opt.peers = 6;
  KadopNet net(opt);
  std::vector<const xml::Document*> ptrs;
  for (const auto& d : docs) ptrs.push_back(&d);
  net.PublishAndWait(0, ptrs);
  const uint64_t publish_bytes = net.network().traffic().CategoryBytes(
      sim::TrafficCategory::kPublish);
  EXPECT_GT(publish_bytes, 0u);

  net.network().ResetTraffic();
  query::QueryOptions qopt;
  ASSERT_TRUE(net.QueryAndWait(1, "//article//title", qopt).ok());
  EXPECT_GT(net.network().traffic().CategoryBytes(
                sim::TrafficCategory::kPosting),
            0u);
  EXPECT_EQ(net.network().traffic().CategoryBytes(
                sim::TrafficCategory::kPublish),
            0u);
}

TEST(KadopNetTest, MultiplePublishersQueriedFromAnywhere) {
  xml::corpus::DblpOptions copt;
  copt.target_bytes = 60 << 10;
  copt.doc_bytes = 6 << 10;
  auto docs = xml::corpus::GenerateDblp(copt);
  KadopOptions opt;
  opt.peers = 9;
  KadopNet net(opt);
  std::vector<std::pair<sim::NodeIndex, std::vector<const xml::Document*>>>
      batches(3);
  for (size_t i = 0; i < docs.size(); ++i) {
    batches[i % 3].first = static_cast<sim::NodeIndex>(2 * (i % 3));
    batches[i % 3].second.push_back(&docs[i]);
  }
  net.ParallelPublishAndWait(batches);

  query::QueryOptions qopt;
  qopt.strategy = query::QueryStrategy::kDpp;
  auto result = net.QueryAndWait(8, "//article//author", qopt);
  ASSERT_TRUE(result.ok());
  // Answers reference documents from all three publishing peers.
  std::set<uint32_t> peers;
  for (const auto& d : result.value().matched_docs) peers.insert(d.peer);
  EXPECT_EQ(peers.size(), 3u);
}

}  // namespace
}  // namespace kadop::core
