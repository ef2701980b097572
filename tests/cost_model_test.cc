// Unit tests for the kAuto strategy cost model (the optimizer the paper
// describes as current work: "select the best execution plan that
// minimizes query response time or traffic consumption").

#include <gtest/gtest.h>

#include "core/kadop.h"
#include "index/codec.h"
#include "query/executor.h"
#include "query/iterator.h"
#include "xml/corpus.h"

namespace kadop::query {
namespace {

TreePattern MustParse(const char* expr) {
  auto result = ParsePattern(expr);
  EXPECT_TRUE(result.ok());
  return result.take();
}

const StrategyCostEstimate* Find(
    const std::vector<StrategyCostEstimate>& costs, QueryStrategy s) {
  for (const auto& c : costs) {
    if (c.strategy == s) return &c;
  }
  return nullptr;
}

TEST(CostModelTest, UniformCountsOfferNoReducer) {
  TreePattern pattern = MustParse("//a//b");
  QueryOptions options;
  auto costs = EstimateStrategyCosts(pattern, {1000, 900}, options);
  EXPECT_NE(Find(costs, QueryStrategy::kBaseline), nullptr);
  EXPECT_NE(Find(costs, QueryStrategy::kDpp), nullptr);
  EXPECT_EQ(Find(costs, QueryStrategy::kSubQueryReducer), nullptr);
}

TEST(CostModelTest, SelectiveTermEnablesSubQueryReducer) {
  TreePattern pattern = MustParse("//a//b[. contains 'rare']");
  QueryOptions options;
  auto costs = EstimateStrategyCosts(pattern, {50000, 40000, 20}, options);
  const auto* sub = Find(costs, QueryStrategy::kSubQueryReducer);
  ASSERT_NE(sub, nullptr);
  const auto* baseline = Find(costs, QueryStrategy::kBaseline);
  ASSERT_NE(baseline, nullptr);
  // The reducer ships far less: the whole path collapses to ~20 postings.
  EXPECT_LT(sub->bytes, baseline->bytes / 10);
}

TEST(CostModelTest, DppHasLowerBottleneckThanBaseline) {
  TreePattern pattern = MustParse("//a//b");
  QueryOptions options;
  auto costs = EstimateStrategyCosts(pattern, {100000, 100000}, options);
  const auto* baseline = Find(costs, QueryStrategy::kBaseline);
  const auto* dpp = Find(costs, QueryStrategy::kDpp);
  ASSERT_NE(baseline, nullptr);
  ASSERT_NE(dpp, nullptr);
  EXPECT_EQ(baseline->bytes, dpp->bytes);  // same bytes move
  EXPECT_LT(dpp->bottleneck_bytes, baseline->bottleneck_bytes);
}

TEST(CostModelTest, DppExcludedWhenUnavailable) {
  TreePattern pattern = MustParse("//a//b");
  QueryOptions options;
  options.dpp_available = false;
  auto costs = EstimateStrategyCosts(pattern, {100, 100}, options);
  EXPECT_EQ(Find(costs, QueryStrategy::kDpp), nullptr);
}

TEST(CostModelTest, OffPathLongListsKeepBottleneckHigh) {
  // //a[//b]//c with rare c: the b branch is off the reduced path and
  // still ships entire, keeping the sub-query bottleneck near b's size.
  TreePattern pattern = MustParse("//a[//b]//c");
  QueryOptions options;
  auto costs = EstimateStrategyCosts(pattern, {50000, 60000, 10}, options);
  const auto* sub = Find(costs, QueryStrategy::kSubQueryReducer);
  ASSERT_NE(sub, nullptr);
  EXPECT_GE(sub->bottleneck_bytes,
            60000.0 * index::codec::EstimatedWirePostingBytes() * 0.9);
}

TEST(CostModelTest, IteratorEstimateFlipsDppJoinDecision) {
  // The kDppJoin egress term is cardinality-driven: each answer tuple is
  // priced at the answer codec's estimate (7 B for three nodes, more than
  // one 6 B posting). The intersect estimate (min term count) decides
  // whether shipping answers beats shipping inputs — so shrinking the
  // *larger* lists, which leaves the estimate untouched, flips the traffic
  // ranking. (A two-node answer costs less than a posting, so there the
  // distributed join always ships less.)
  TreePattern pattern = MustParse("//a//b//c");
  QueryOptions options;
  options.dpp_join_available = true;

  // Wide gap: inputs dwarf answers, kDppJoin ships less than kDpp.
  const std::vector<uint64_t> skewed{1000, 5000, 5000};
  auto costs = EstimateStrategyCosts(pattern, skewed, options);
  const auto* djoin = Find(costs, QueryStrategy::kDppJoin);
  const auto* dpp = Find(costs, QueryStrategy::kDpp);
  ASSERT_NE(djoin, nullptr);
  ASSERT_NE(dpp, nullptr);
  EXPECT_LT(djoin->bytes, dpp->bytes);

  // Equal lists: the estimate (still 1000) now prices the answer egress
  // above the input shipping it saves, and the ranking flips.
  const std::vector<uint64_t> balanced{1000, 1000, 1000};
  costs = EstimateStrategyCosts(pattern, balanced, options);
  djoin = Find(costs, QueryStrategy::kDppJoin);
  dpp = Find(costs, QueryStrategy::kDpp);
  ASSERT_NE(djoin, nullptr);
  ASSERT_NE(dpp, nullptr);
  EXPECT_GT(djoin->bytes, dpp->bytes);
}

TEST(CostModelTest, DppJoinBytesTrackEstimateTwigResults) {
  // The model consumes the iterator tree's EstimateResultsAmount, not a
  // fixed bytes-per-posting constant: the djoin byte cost reproduces the
  // closed form built from EstimateTwigResults exactly.
  TreePattern pattern = MustParse("//a//b//c");
  QueryOptions options;
  options.dpp_join_available = true;
  const std::vector<uint64_t> counts{40, 9000, 700};
  auto costs = EstimateStrategyCosts(pattern, counts, options);
  const auto* djoin = Find(costs, QueryStrategy::kDppJoin);
  ASSERT_NE(djoin, nullptr);
  const double kWire = index::codec::EstimatedWirePostingBytes();
  const double est =
      static_cast<double>(EstimateTwigResults(pattern, counts));
  EXPECT_EQ(est, 40.0);
  const double expected =
      (40.0 + 700.0) * kWire +
      est * index::codec::EstimatedWireAnswerBytes(pattern.size());
  EXPECT_DOUBLE_EQ(djoin->bytes, expected);
}

TEST(CostModelTest, OwnerGatherFlipsSubQueryReducer) {
  // The same counts twice. Unpartitioned, the sub-query reducer ships ~200
  // postings per path term and wins. With the long on-path term b split
  // into 256-posting blocks, b's owner first pulls its other 39744
  // postings through its own downlink, and kAuto leaves the reducer.
  TreePattern pattern = MustParse("//a//b//c");
  const std::vector<uint64_t> counts{2000, 40000, 200};
  const std::vector<uint64_t> flat{0, 0, 0};
  const std::vector<uint64_t> partitioned{2000 - 256, 40000 - 256, 0};
  QueryOptions options;
  options.dpp_join_available = true;
  const auto kTime = QueryOptions::Objective::kTime;
  const auto kTraffic = QueryOptions::Objective::kTraffic;

  const auto unsplit =
      EstimateStrategyCosts(pattern, counts, options, std::nullopt, flat);
  EXPECT_EQ(PickStrategy(unsplit, kTime), QueryStrategy::kSubQueryReducer);
  EXPECT_EQ(PickStrategy(unsplit, kTraffic),
            QueryStrategy::kSubQueryReducer);
  // An all-zero gather prices exactly like no partitioning information.
  const auto plain = EstimateStrategyCosts(pattern, counts, options);
  ASSERT_EQ(plain.size(), unsplit.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i].bytes, unsplit[i].bytes);
    EXPECT_EQ(plain[i].bottleneck_bytes, unsplit[i].bottleneck_bytes);
  }

  const auto split = EstimateStrategyCosts(pattern, counts, options,
                                           std::nullopt, partitioned);
  EXPECT_EQ(PickStrategy(split, kTime), QueryStrategy::kDppJoin);
  EXPECT_EQ(PickStrategy(split, kTraffic), QueryStrategy::kDppJoin);
  // Every gathered posting crosses the wire once.
  const auto* sub_flat = Find(unsplit, QueryStrategy::kSubQueryReducer);
  const auto* sub_split = Find(split, QueryStrategy::kSubQueryReducer);
  ASSERT_NE(sub_flat, nullptr);
  ASSERT_NE(sub_split, nullptr);
  const double kWire = index::codec::EstimatedWirePostingBytes();
  EXPECT_NEAR(sub_split->bytes - sub_flat->bytes,
              (1744.0 + 39744.0) * kWire, 1e-6);
  // The owners gather side by side: the largest gather, spread over the
  // block fetch parallelism, is added to the bottleneck.
  EXPECT_NEAR(sub_split->bottleneck_bytes - sub_flat->bottleneck_bytes,
              39744.0 * kWire / 8, 1e-6);

  // Without kDppJoin the split term sends kTime to kDpp.
  options.dpp_join_available = false;
  EXPECT_EQ(PickStrategy(EstimateStrategyCosts(pattern, counts, options,
                                               std::nullopt, flat),
                         kTime),
            QueryStrategy::kSubQueryReducer);
  EXPECT_EQ(PickStrategy(EstimateStrategyCosts(pattern, counts, options,
                                               std::nullopt, partitioned),
                         kTime),
            QueryStrategy::kDpp);
}

TEST(CostModelTest, OffPathGatherIsNotPriced) {
  // An off-path term already ships entire from its owner, so its owner's
  // gather adds nothing the estimate did not charge.
  TreePattern pattern = MustParse("//a[//b]//c");
  const std::vector<uint64_t> counts{50000, 60000, 10};
  QueryOptions options;
  const auto plain = EstimateStrategyCosts(pattern, counts, options);
  const auto split = EstimateStrategyCosts(pattern, counts, options,
                                           std::nullopt, {0, 59000, 0});
  const auto* a = Find(plain, QueryStrategy::kSubQueryReducer);
  const auto* b = Find(split, QueryStrategy::kSubQueryReducer);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->bytes, b->bytes);
  EXPECT_EQ(a->bottleneck_bytes, b->bottleneck_bytes);
}

TEST(CostModelTest, TinyExtentFlipsAutoToView) {
  // A selective view collapses both inputs and egress to its tiny extent:
  // kView must beat kDppJoin (and everything else) under both objectives.
  TreePattern pattern = MustParse("//a//b");
  QueryOptions options;
  options.dpp_join_available = true;
  auto costs = EstimateStrategyCosts(pattern, {1000, 5000}, options,
                                     ViewPricing{10, 0});
  const auto* view = Find(costs, QueryStrategy::kView);
  const auto* djoin = Find(costs, QueryStrategy::kDppJoin);
  ASSERT_NE(view, nullptr);
  ASSERT_NE(djoin, nullptr);
  EXPECT_LT(view->bytes, djoin->bytes);
  EXPECT_LT(view->bottleneck_bytes, djoin->bottleneck_bytes);
  EXPECT_EQ(PickStrategy(costs, QueryOptions::Objective::kTraffic),
            QueryStrategy::kView);
  EXPECT_EQ(PickStrategy(costs, QueryOptions::Objective::kTime),
            QueryStrategy::kView);
}

TEST(CostModelTest, HugeExtentKeepsAutoOnDppJoin) {
  // An unselective view whose extent nearly reprints the base lists loses
  // to kDppJoin's answer-tuple shipping even with a cheap residual term:
  // kDppJoin moves the 1000-posting list plus ~5 B per estimated answer,
  // about a third of the 6100 postings the view ships.
  TreePattern pattern = MustParse("//a//b");
  QueryOptions options;
  options.dpp_join_available = true;
  auto costs = EstimateStrategyCosts(pattern, {1000, 5000}, options,
                                     ViewPricing{5800, 300});
  const auto* view = Find(costs, QueryStrategy::kView);
  const auto* djoin = Find(costs, QueryStrategy::kDppJoin);
  ASSERT_NE(view, nullptr);
  ASSERT_NE(djoin, nullptr);
  EXPECT_GT(view->bytes, djoin->bytes);
  EXPECT_EQ(PickStrategy(costs, QueryOptions::Objective::kTraffic),
            QueryStrategy::kDppJoin);
  EXPECT_EQ(PickStrategy(costs, QueryOptions::Objective::kTime),
            QueryStrategy::kDppJoin);
}

TEST(CostModelTest, NoViewCandidateWithoutRewrite) {
  TreePattern pattern = MustParse("//a//b");
  QueryOptions options;
  options.dpp_join_available = true;
  auto costs = EstimateStrategyCosts(pattern, {1000, 5000}, options);
  EXPECT_EQ(Find(costs, QueryStrategy::kView), nullptr);
}

class ObjectiveTest : public ::testing::Test {
 protected:
  void SetUp() override {
    xml::corpus::DblpOptions copt;
    copt.target_bytes = 100 << 10;
    docs_ = xml::corpus::GenerateDblp(copt);
    core::KadopOptions opt;
    opt.peers = 10;
    opt.dpp.max_block_postings = 256;
    net_ = std::make_unique<core::KadopNet>(opt);
    std::vector<const xml::Document*> ptrs;
    for (const auto& d : docs_) ptrs.push_back(&d);
    net_->PublishAndWait(0, ptrs);
  }
  std::vector<xml::Document> docs_;
  std::unique_ptr<core::KadopNet> net_;
};

TEST_F(ObjectiveTest, TrafficObjectivePrefersReducerOnSelectiveQuery) {
  QueryOptions qopt;
  qopt.strategy = QueryStrategy::kAuto;
  qopt.objective = QueryOptions::Objective::kTraffic;
  auto result =
      net_->QueryAndWait(1, "//article//author[. contains 'Ullman']", qopt);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().metrics.effective_strategy,
            QueryStrategy::kSubQueryReducer);
}

TEST_F(ObjectiveTest, BothObjectivesPickDppWhenNothingIsSelective) {
  for (QueryOptions::Objective objective :
       {QueryOptions::Objective::kTime, QueryOptions::Objective::kTraffic}) {
    QueryOptions qopt;
    qopt.strategy = QueryStrategy::kAuto;
    qopt.objective = objective;
    auto result = net_->QueryAndWait(1, "//article//author", qopt);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().metrics.effective_strategy,
              QueryStrategy::kDpp);
  }
}

TEST_F(ObjectiveTest, AutoAnswersMatchExplicitStrategy) {
  for (const char* expr :
       {"//article//author", "//article//author[. contains 'Ullman']"}) {
    QueryOptions auto_opt;
    auto_opt.strategy = QueryStrategy::kAuto;
    auto auto_result = net_->QueryAndWait(1, expr, auto_opt);
    ASSERT_TRUE(auto_result.ok());
    QueryOptions dpp_opt;
    dpp_opt.strategy = QueryStrategy::kDpp;
    auto dpp_result = net_->QueryAndWait(1, expr, dpp_opt);
    ASSERT_TRUE(dpp_result.ok());
    EXPECT_EQ(auto_result.value().answers.size(),
              dpp_result.value().answers.size())
        << expr;
  }
}

}  // namespace
}  // namespace kadop::query
