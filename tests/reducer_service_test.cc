// Direct unit tests for the ReducerService state machine, including the
// degenerate deployments that stress it: a single peer owning every term
// (all roles on one node) and filters racing ahead of ReduceStart.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>

#include "core/kadop.h"
#include "dht/ring.h"
#include "index/dpp.h"
#include "obs/metrics.h"
#include "xml/corpus.h"

namespace kadop::query {
namespace {

std::vector<Answer> Sorted(std::vector<Answer> v) {
  std::sort(v.begin(), v.end(), [](const Answer& a, const Answer& b) {
    if (a.doc != b.doc) return a.doc < b.doc;
    return a.elements < b.elements;
  });
  return v;
}

class ReducerServiceTest : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override {
    xml::corpus::DblpOptions copt;
    copt.target_bytes = 60 << 10;
    docs_ = xml::corpus::GenerateDblp(copt);
    core::KadopOptions opt;
    opt.peers = GetParam();
    net_ = std::make_unique<core::KadopNet>(opt);
    std::vector<const xml::Document*> ptrs;
    for (const auto& d : docs_) ptrs.push_back(&d);
    net_->PublishAndWait(0, ptrs);
  }

  std::vector<Answer> Run(const char* expr, QueryStrategy strategy) {
    QueryOptions qopt;
    qopt.strategy = strategy;
    auto result = net_->QueryAndWait(0, expr, qopt);
    EXPECT_TRUE(result.ok());
    EXPECT_TRUE(result.value().metrics.complete);
    return result.value().answers;
  }

  std::vector<xml::Document> docs_;
  std::unique_ptr<core::KadopNet> net_;
};

TEST_P(ReducerServiceTest, AllStrategiesAgreeOnEveryNetworkSize) {
  const char* exprs[] = {
      "//article//author[. contains 'Ullman']",
      "//article[//journal]//year",
      "//article[//title][//pages]//author",
  };
  for (const char* expr : exprs) {
    auto baseline = Sorted(Run(expr, QueryStrategy::kBaseline));
    for (QueryStrategy strategy :
         {QueryStrategy::kAbReducer, QueryStrategy::kDbReducer,
          QueryStrategy::kBloomReducer, QueryStrategy::kSubQueryReducer}) {
      EXPECT_EQ(Sorted(Run(expr, strategy)), baseline)
          << expr << " with " << QueryStrategyName(strategy)
          << " on " << GetParam() << " peers";
    }
  }
}

// A single peer hosts every role (every term owner, the query peer, every
// filter hop); two peers force self/other mixes; larger sizes spread roles.
INSTANTIATE_TEST_SUITE_P(NetworkSizes, ReducerServiceTest,
                         ::testing::Values(1, 2, 3, 8));

TEST(ReducerCountersTest, ServiceCountsRolesAndFilters) {
  const obs::MetricsSnapshot base = obs::MetricRegistry::Default().Snapshot();
  xml::corpus::DblpOptions copt;
  copt.target_bytes = 40 << 10;
  auto docs = xml::corpus::GenerateDblp(copt);
  core::KadopOptions opt;
  opt.peers = 6;
  core::KadopNet net(opt);
  std::vector<const xml::Document*> ptrs;
  for (const auto& d : docs) ptrs.push_back(&d);
  net.PublishAndWait(0, ptrs);

  QueryOptions qopt;
  qopt.strategy = QueryStrategy::kBloomReducer;
  auto result =
      net.QueryAndWait(1, "//article//author[. contains 'Ullman']", qopt);
  ASSERT_TRUE(result.ok());

  const obs::MetricsSnapshot d =
      obs::MetricRegistry::Default().Snapshot().DiffSince(base);
  EXPECT_EQ(d.CounterValue("reducer.roles_started"), 3u);  // one per node
  EXPECT_GE(d.CounterValue("reducer.abf_built"), 1u);
  EXPECT_GE(d.CounterValue("reducer.dbf_built"), 1u);
  EXPECT_GT(d.CounterValue("reducer.postings_filtered_out"), 0u);
}

TEST(ReducerRepeatTest, SameQueryTwiceUsesFreshState) {
  xml::corpus::DblpOptions copt;
  copt.target_bytes = 40 << 10;
  auto docs = xml::corpus::GenerateDblp(copt);
  core::KadopOptions opt;
  opt.peers = 5;
  core::KadopNet net(opt);
  std::vector<const xml::Document*> ptrs;
  for (const auto& d : docs) ptrs.push_back(&d);
  net.PublishAndWait(0, ptrs);

  QueryOptions qopt;
  qopt.strategy = QueryStrategy::kDbReducer;
  const char* expr = "//article//author[. contains 'Ullman']";
  auto first = net.QueryAndWait(1, expr, qopt);
  auto second = net.QueryAndWait(2, expr, qopt);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(Sorted(first.value().answers), Sorted(second.value().answers));
}

TEST(ReducerRepeatTest, SameTermTwiceInOnePattern) {
  // //author//author: both pattern nodes resolve to the same owner, which
  // must keep two independent per-node states for the same query.
  xml::corpus::DblpOptions copt;
  copt.target_bytes = 30 << 10;
  auto docs = xml::corpus::GenerateDblp(copt);
  core::KadopOptions opt;
  opt.peers = 4;
  core::KadopNet net(opt);
  std::vector<const xml::Document*> ptrs;
  for (const auto& d : docs) ptrs.push_back(&d);
  net.PublishAndWait(0, ptrs);

  QueryOptions db;
  db.strategy = QueryStrategy::kDbReducer;
  auto reduced = net.QueryAndWait(1, "//dblp//article//author", db);
  QueryOptions base;
  auto baseline = net.QueryAndWait(1, "//dblp//article//author", base);
  ASSERT_TRUE(reduced.ok());
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(Sorted(reduced.value().answers),
            Sorted(baseline.value().answers));
}

// A block holder of a partitioned term that answers only after the retry
// budget is spent: the owner's load of the term cannot complete, so neither
// a sub-query reducer query nor a plain get of the term may come back as a
// short list marked complete.
TEST(ReducerIncompleteLoadTest, SlowBlockHolderMakesTheLoadIncomplete) {
  xml::corpus::DblpOptions copt;
  copt.target_bytes = 60 << 10;
  auto docs = xml::corpus::GenerateDblp(copt);
  core::KadopOptions opt;
  opt.peers = 8;
  opt.dpp.max_block_postings = 64;
  opt.dht.retry.timeout_s = 0.2;
  opt.dht.retry.max_retries = 1;
  core::KadopNet net(opt);
  std::vector<const xml::Document*> ptrs;
  for (const auto& d : docs) ptrs.push_back(&d);
  net.PublishAndWait(0, ptrs);

  const char* kTerm = "l:author";
  const char* expr = "//article//author[. contains 'Ullman']";
  const sim::NodeIndex query_peer = 1;
  std::vector<index::DppBlockInfo> dir;
  index::DppManager::FetchDirectory(
      net.peer(query_peer)->dht_peer(), kTerm,
      [&](Status, std::vector<index::DppBlockInfo> blocks) {
        dir = std::move(blocks);
      });
  net.RunToIdle();
  ASSERT_GE(dir.size(), 3u) << kTerm << " is not partitioned";

  // Slow the holder of a remote block that plays no other role in the
  // query: not the query peer and no pattern term's owner.
  std::set<sim::NodeIndex> roles = {query_peer};
  for (const char* term : {"l:article", "l:author", "w:ullman"}) {
    roles.insert(net.dht().OwnerOf(dht::HashKey(term)));
  }
  std::optional<sim::NodeIndex> slow;
  for (const index::DppBlockInfo& block : dir) {
    const sim::NodeIndex holder = net.dht().OwnerOf(dht::HashKey(block.key));
    if (!roles.count(holder)) {
      slow = holder;
      break;
    }
  }
  ASSERT_TRUE(slow.has_value()) << "every holder plays another role";
  sim::FaultOptions fo;
  fo.slow_extra_s = 5.0;  // far past 2 attempts of 0.2 s
  fo.slow_peers = {*slow};
  net.EnableFaults(fo);

  QueryOptions qopt;
  qopt.strategy = QueryStrategy::kSubQueryReducer;
  qopt.fetch_retry = opt.dht.retry;
  auto result = net.QueryAndWait(query_peer, expr, qopt);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().metrics.complete);
  EXPECT_TRUE(result.value().metrics.degraded);

  // A plain get whose per-attempt timeout outlasts the owner's budget for
  // the block pull: the owner must not fill the hole with an empty block.
  auto plain_get = [&]() {
    dht::GetSpec spec;
    spec.key = kTerm;
    spec.retry.timeout_s = 2.0;
    spec.retry.max_retries = 1;
    index::PostingList list;
    std::optional<bool> complete;
    net.peer(query_peer)->dht_peer()->GetBlocks(
        spec, [&](index::PostingList block, bool last, bool ok) {
          list.insert(list.end(), block.begin(), block.end());
          if (last) complete = ok;
        });
    net.RunToIdle();
    return std::pair(complete, list.size());
  };
  const auto [complete, size] = plain_get();
  ASSERT_TRUE(complete.has_value());
  EXPECT_FALSE(*complete) << size << " of " << index::DirectoryCount(dir)
                          << " postings";

  // Once the holder is fast again, both read the whole list.
  net.DisableFaults();
  auto healthy = net.QueryAndWait(query_peer, expr, qopt);
  ASSERT_TRUE(healthy.ok());
  EXPECT_TRUE(healthy.value().metrics.complete);
  EXPECT_EQ(plain_get(), std::pair(std::optional<bool>(true),
                                   static_cast<size_t>(
                                       index::DirectoryCount(dir))));
}

}  // namespace
}  // namespace kadop::query
