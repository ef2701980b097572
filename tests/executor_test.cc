#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "core/kadop.h"
#include "dht/ring.h"
#include "index/dpp.h"
#include "xml/corpus.h"

namespace kadop::query {
namespace {

using core::KadopNet;
using core::KadopOptions;

std::vector<Answer> Sorted(std::vector<Answer> v) {
  std::sort(v.begin(), v.end(), [](const Answer& a, const Answer& b) {
    if (a.doc != b.doc) return a.doc < b.doc;
    return a.elements < b.elements;
  });
  return v;
}

/// Ground truth by local evaluation, for `docs` all published in order by
/// peer 2.
std::vector<Answer> GroundTruth(const std::vector<xml::Document>& docs,
                                const char* expr) {
  const TreePattern pattern = ParsePattern(expr).take();
  std::vector<Answer> all;
  for (size_t d = 0; d < docs.size(); ++d) {
    auto answers = EvaluateOnDocument(
        pattern, docs[d], index::DocId{2, static_cast<uint32_t>(d)});
    all.insert(all.end(), answers.begin(), answers.end());
  }
  return all;
}

/// Shared fixture: a network with a published DBLP-like corpus and a
/// ground-truth oracle via local evaluation.
class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    xml::corpus::DblpOptions copt;
    copt.target_bytes = 150 << 10;
    copt.doc_bytes = 8 << 10;
    docs_ = xml::corpus::GenerateDblp(copt);

    KadopOptions opt;
    opt.peers = 12;
    opt.dpp.max_block_postings = 256;
    net_ = std::make_unique<KadopNet>(opt);
    net_->RegisterDocuments(docs_);
    std::vector<const xml::Document*> ptrs;
    for (const auto& d : docs_) ptrs.push_back(&d);
    net_->PublishAndWait(2, ptrs);
  }

  std::vector<Answer> GroundTruth(const char* expr) {
    return query::GroundTruth(docs_, expr);
  }

  QueryResult RunQuery(const char* expr, QueryStrategy strategy) {
    QueryOptions options;
    options.strategy = strategy;
    auto result = net_->QueryAndWait(1, expr, options);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.take();
  }

  std::vector<xml::Document> docs_;
  std::unique_ptr<KadopNet> net_;
};

constexpr const char* kQueries[] = {
    "//article//author",
    "//article//author[. contains 'Ullman']",
    "//article[//journal]//year",
    "//inproceedings//booktitle",
};

TEST_F(ExecutorTest, BaselineMatchesGroundTruth) {
  for (const char* expr : kQueries) {
    QueryResult result = RunQuery(expr, QueryStrategy::kBaseline);
    EXPECT_TRUE(result.metrics.complete);
    EXPECT_EQ(Sorted(result.answers), Sorted(GroundTruth(expr))) << expr;
  }
}

TEST_F(ExecutorTest, DppMatchesGroundTruth) {
  for (const char* expr : kQueries) {
    QueryResult result = RunQuery(expr, QueryStrategy::kDpp);
    EXPECT_TRUE(result.metrics.complete);
    EXPECT_EQ(Sorted(result.answers), Sorted(GroundTruth(expr))) << expr;
  }
}

TEST_F(ExecutorTest, ReducersKeepFullRecall) {
  // Bloom-filtered strategies may let extra postings through (one-sided
  // error) but can never lose answers — and since the final twig join is
  // exact, the answers are in fact identical.
  for (QueryStrategy strategy :
       {QueryStrategy::kAbReducer, QueryStrategy::kDbReducer,
        QueryStrategy::kBloomReducer, QueryStrategy::kSubQueryReducer}) {
    for (const char* expr : kQueries) {
      QueryResult result = RunQuery(expr, strategy);
      EXPECT_TRUE(result.metrics.complete);
      EXPECT_EQ(Sorted(result.answers), Sorted(GroundTruth(expr)))
          << expr << " with " << QueryStrategyName(strategy);
    }
  }
}

TEST_F(ExecutorTest, EmptyResultQueries) {
  for (QueryStrategy strategy :
       {QueryStrategy::kBaseline, QueryStrategy::kDpp,
        QueryStrategy::kDbReducer}) {
    QueryResult result = RunQuery("//article//nonexistenttag", strategy);
    EXPECT_TRUE(result.answers.empty());
    EXPECT_TRUE(result.matched_docs.empty());
  }
}

TEST_F(ExecutorTest, SelectiveQueryReducesDataVolume) {
  const char* expr = "//article//author[. contains 'Ullman']";
  QueryResult base = RunQuery(expr, QueryStrategy::kBaseline);
  QueryResult db = RunQuery(expr, QueryStrategy::kDbReducer);
  // The DB reducer ships far fewer posting bytes than the baseline.
  EXPECT_LT(db.metrics.posting_bytes, base.metrics.posting_bytes);
  EXPECT_LT(db.metrics.NormalizedDataVolume(), 1.0);
  EXPECT_GT(db.metrics.db_filter_bytes, 0u);
  EXPECT_EQ(db.metrics.ab_filter_bytes, 0u);
}

TEST_F(ExecutorTest, AbReducerSendsAbFilters) {
  QueryResult ab = RunQuery("//article//author", QueryStrategy::kAbReducer);
  EXPECT_GT(ab.metrics.ab_filter_bytes, 0u);
  EXPECT_EQ(ab.metrics.db_filter_bytes, 0u);
}

TEST_F(ExecutorTest, BloomReducerSendsBothFilterKinds) {
  QueryResult r =
      RunQuery("//article//author[. contains 'Ullman']",
               QueryStrategy::kBloomReducer);
  EXPECT_GT(r.metrics.ab_filter_bytes, 0u);
  EXPECT_GT(r.metrics.db_filter_bytes, 0u);
}

TEST_F(ExecutorTest, MetricsTimingsAreSane) {
  QueryResult r = RunQuery("//article//author", QueryStrategy::kBaseline);
  EXPECT_GT(r.metrics.ResponseTime(), 0.0);
  EXPECT_GE(r.metrics.TimeToFirstAnswer(), 0.0);
  EXPECT_LE(r.metrics.TimeToFirstAnswer(), r.metrics.ResponseTime());
  EXPECT_GT(r.metrics.postings_received, 0u);
  EXPECT_GT(r.metrics.posting_bytes, 0u);
}

TEST_F(ExecutorTest, DppSkipsBlocksViaDocumentInterval) {
  // 'Ullman' postings span a narrow document range relative to 'author';
  // with partitioned author lists some blocks must be skipped or at least
  // none lost.
  QueryResult r = RunQuery("//article//author[. contains 'Ullman']",
                           QueryStrategy::kDpp);
  EXPECT_TRUE(r.metrics.complete);
  EXPECT_GT(r.metrics.blocks_fetched, 0u);
}

TEST_F(ExecutorTest, WildcardQueryRejected) {
  QueryOptions options;
  options.strategy = QueryStrategy::kBaseline;
  auto result = net_->QueryAndWait(0, "//*[contains(.,'xml')]//title",
                                   options);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().metrics.complete);
  EXPECT_TRUE(result.value().answers.empty());
}

TEST_F(ExecutorTest, NonPipelinedGetAlsoCorrect) {
  QueryOptions options;
  options.strategy = QueryStrategy::kBaseline;
  options.pipelined = false;
  auto result = net_->QueryAndWait(0, "//article//author", options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(Sorted(result.value().answers),
            Sorted(GroundTruth("//article//author")));
}

TEST_F(ExecutorTest, IncompleteQueryMetricsStaySane) {
  // Regression: a timed-out query used to report first_answer_time = -1
  // relative to a positive submit_time, making TimeToFirstAnswer() a large
  // negative "latency". Both accessors must report -1 ("no such event")
  // for events that never happened, and a real duration otherwise.
  QueryOptions options;
  options.strategy = QueryStrategy::kBaseline;
  options.timeout_s = 1e-9;  // expires before any posting can arrive
  auto result = net_->QueryAndWait(1, "//article//author", options);
  ASSERT_TRUE(result.ok());
  const QueryMetrics& m = result.value().metrics;
  EXPECT_FALSE(m.complete);
  EXPECT_TRUE(result.value().answers.empty());
  EXPECT_DOUBLE_EQ(m.TimeToFirstAnswer(), -1.0);
  // The timeout still *finished* the query, so the response time is the
  // (tiny) timeout window, never negative.
  EXPECT_GE(m.ResponseTime(), 0.0);

  // A default-constructed metrics object reports "never happened" too.
  QueryMetrics fresh;
  fresh.submit_time = 5.0;
  EXPECT_DOUBLE_EQ(fresh.ResponseTime(), -1.0);
  EXPECT_DOUBLE_EQ(fresh.TimeToFirstAnswer(), -1.0);
}

/// A DPP-off network with a published DBLP-like corpus.
class ExecutorDppOffTest : public ::testing::Test {
 protected:
  static std::vector<xml::Document> Corpus() {
    xml::corpus::DblpOptions copt;
    copt.target_bytes = 150 << 10;
    copt.doc_bytes = 8 << 10;
    return xml::corpus::GenerateDblp(copt);
  }

  static KadopOptions DppOff() {
    KadopOptions opt;
    opt.peers = 8;
    opt.enable_dpp = false;
    return opt;
  }

  void SetUp() override {
    std::vector<const xml::Document*> ptrs;
    for (const auto& d : docs) ptrs.push_back(&d);
    net.PublishAndWait(2, ptrs);
  }

  const std::vector<xml::Document> docs = Corpus();
  KadopNet net{DppOff()};
};

// On a DPP-off network the reducer service answers directory requests
// from the store: the directory's count is the owner's stored count, and
// kAuto plans from it and runs.
TEST_F(ExecutorDppOffTest, AutoPlansFromStoreDirectories) {
  for (const char* term : {"l:article", "l:author", "w:ullman", "l:none"}) {
    std::optional<std::vector<index::DppBlockInfo>> dir;
    index::DppManager::FetchDirectory(
        net.peer(1)->dht_peer(), term,
        [&dir](Status st, std::vector<index::DppBlockInfo> blocks) {
          EXPECT_TRUE(st.ok());
          dir = std::move(blocks);
        });
    net.RunToIdle();
    ASSERT_TRUE(dir.has_value()) << term;
    EXPECT_LE(dir->size(), 1u) << term;
    const sim::NodeIndex owner = net.dht().OwnerOf(dht::HashKey(term));
    EXPECT_EQ(index::DirectoryCount(*dir),
              net.peer(owner)->dht_peer()->store()->PostingCount(term))
        << term;
  }

  for (const auto& [expr, plan] :
       {std::pair{"//article//author", QueryStrategy::kBaseline},
        std::pair{"//article//author[. contains 'Ullman']",
                  QueryStrategy::kSubQueryReducer}}) {
    QueryOptions options;
    options.strategy = QueryStrategy::kAuto;
    options.dpp_available = false;
    auto result = net.QueryAndWait(1, expr, options);
    ASSERT_TRUE(result.ok()) << expr;
    EXPECT_EQ(result.value().metrics.effective_strategy, plan) << expr;
    EXPECT_TRUE(result.value().metrics.complete) << expr;
    const std::vector<Answer> truth = GroundTruth(docs, expr);
    EXPECT_FALSE(truth.empty()) << expr;
    EXPECT_EQ(Sorted(result.value().answers), Sorted(truth)) << expr;
  }
}

// A DPP-off network clears `dpp_available` itself: with the options the
// shell passes (DPP and the distributed join advertised), `explain` prices
// neither kDpp nor kDppJoin and lists no join tasks, and kAuto runs
// neither and answers exactly.
TEST_F(ExecutorDppOffTest, PlanningIgnoresAdvertisedDpp) {
  QueryOptions options;
  options.dpp_join_available = true;
  for (const char* expr : kQueries) {
    auto explained = net.ExplainQueryAndWait(1, expr, options);
    ASSERT_TRUE(explained.ok()) << explained.status().ToString();
    const std::string& text = explained.value();
    EXPECT_NE(text.find("  baseline "), std::string::npos) << text;
    EXPECT_EQ(text.find("  dpp "), std::string::npos) << text;
    EXPECT_EQ(text.find("  dpp-join "), std::string::npos) << text;
    EXPECT_EQ(text.find("dpp-join tasks"), std::string::npos) << text;

    options.strategy = QueryStrategy::kAuto;
    auto result = net.QueryAndWait(1, expr, options);
    ASSERT_TRUE(result.ok()) << expr;
    const QueryStrategy ran = result.value().metrics.effective_strategy;
    EXPECT_NE(ran, QueryStrategy::kDpp) << expr;
    EXPECT_NE(ran, QueryStrategy::kDppJoin) << expr;
    EXPECT_TRUE(result.value().metrics.complete) << expr;
    EXPECT_EQ(Sorted(result.value().answers), Sorted(GroundTruth(docs, expr)))
        << expr;
  }
}

// A kView fallback runs only what the planner may run: with no view
// registered, an explicit kView on a DPP-off network falls back to the
// baseline even when the distributed join is advertised.
TEST_F(ExecutorDppOffTest, ViewFallbackRunsTheBaseline) {
  const char* expr = "//article//author";
  QueryOptions options;
  options.strategy = QueryStrategy::kView;
  options.dpp_join_available = true;
  auto result = net.QueryAndWait(1, expr, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const QueryMetrics& m = result.value().metrics;
  EXPECT_TRUE(m.view_fallback);
  EXPECT_EQ(m.effective_strategy, QueryStrategy::kBaseline)
      << QueryStrategyName(m.effective_strategy);
  EXPECT_TRUE(m.complete);
  EXPECT_EQ(Sorted(result.value().answers), Sorted(GroundTruth(docs, expr)));
}

// The random-split ablation (Section 4.1) leaves blocks with overlapping
// conditions, so kDpp collects each such term's blocks and merges them
// before the join instead of streaming them in order.
TEST(ExecutorRandomSplitTest, DppMergesOverlappingBlocksToGroundTruth) {
  xml::corpus::DblpOptions copt;
  copt.target_bytes = 150 << 10;
  copt.doc_bytes = 8 << 10;
  const std::vector<xml::Document> docs = xml::corpus::GenerateDblp(copt);
  KadopOptions opt;
  opt.peers = 12;
  opt.dpp.max_block_postings = 256;
  opt.dpp.ordered_splits = false;
  KadopNet net(opt);
  std::vector<const xml::Document*> ptrs;
  for (const auto& d : docs) ptrs.push_back(&d);
  net.PublishAndWait(2, ptrs);

  std::optional<std::vector<index::DppBlockInfo>> dir;
  index::DppManager::FetchDirectory(
      net.peer(1)->dht_peer(), "l:author",
      [&dir](Status st, std::vector<index::DppBlockInfo> blocks) {
        EXPECT_TRUE(st.ok());
        dir = std::move(blocks);
      });
  net.RunToIdle();
  ASSERT_TRUE(dir.has_value());
  bool overlapping = false;
  for (size_t i = 1; i < dir->size(); ++i) {
    overlapping |= (*dir)[i - 1].cond.Intersects((*dir)[i].cond);
  }
  ASSERT_TRUE(overlapping);

  for (const char* expr : kQueries) {
    QueryOptions options;
    options.strategy = QueryStrategy::kDpp;
    auto result = net.QueryAndWait(1, expr, options);
    ASSERT_TRUE(result.ok()) << expr;
    EXPECT_TRUE(result.value().metrics.complete) << expr;
    EXPECT_EQ(Sorted(result.value().answers), Sorted(GroundTruth(docs, expr)))
        << expr;
  }
}

TEST_F(ExecutorTest, ParseErrorSurfaces) {
  QueryOptions options;
  auto result = net_->QueryAndWait(0, "//a[", options);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

}  // namespace
}  // namespace kadop::query
