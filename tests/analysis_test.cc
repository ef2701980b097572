// Tests for pattern analysis (index-query completeness/precision,
// Section 2), the brutal broadcast fallback, and Doc-relation lookups.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/kadop.h"
#include "xml/corpus.h"

namespace kadop::query {
namespace {

TreePattern MustParse(const char* expr) {
  auto result = ParsePattern(expr);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.take();
}

TEST(PatternAnalysisTest, PlainPatternsAreCompleteAndPrecise) {
  for (const char* expr :
       {"//article//author", "//a[//b]//c[. contains 'word']"}) {
    PatternAnalysis a = AnalyzePattern(MustParse(expr));
    EXPECT_TRUE(a.complete) << expr;
    EXPECT_TRUE(a.precise) << expr;
    EXPECT_TRUE(a.notes.empty());
  }
}

TEST(PatternAnalysisTest, WildcardsLosePrecision) {
  PatternAnalysis a = AnalyzePattern(MustParse("//*[contains(.,'xml')]//title"));
  EXPECT_TRUE(a.complete);
  EXPECT_FALSE(a.precise);
  EXPECT_NE(a.notes.find("wildcard"), std::string::npos);
}

TEST(PatternAnalysisTest, StopWordsLoseCompleteness) {
  // Single-character words fall under the default indexing cutoff (2).
  PatternAnalysis a = AnalyzePattern(MustParse("//p[. contains 'a']"));
  EXPECT_FALSE(a.complete);
  EXPECT_TRUE(a.precise);
  EXPECT_NE(a.notes.find("stop-word"), std::string::npos);
  // With a cutoff of 1 the same pattern is fine.
  EXPECT_TRUE(AnalyzePattern(MustParse("//p[. contains 'a']"), 1).complete);
}

class BroadcastTest : public ::testing::Test {
 protected:
  void SetUp() override {
    xml::corpus::DblpOptions copt;
    copt.target_bytes = 50 << 10;
    docs_ = xml::corpus::GenerateDblp(copt);
    core::KadopOptions opt;
    opt.peers = 8;
    net_ = std::make_unique<core::KadopNet>(opt);
    std::vector<const xml::Document*> ptrs;
    for (const auto& d : docs_) ptrs.push_back(&d);
    net_->PublishAndWait(2, ptrs);
  }
  std::vector<xml::Document> docs_;
  std::unique_ptr<core::KadopNet> net_;
};

TEST_F(BroadcastTest, BroadcastMatchesIndexedTwoPhaseQuery) {
  const char* expr = "//article//author[. contains 'Ullman']";
  QueryOptions qopt;
  auto indexed = net_->QueryDocumentsAndWait(1, expr, qopt);
  ASSERT_TRUE(indexed.ok());
  auto broadcast = net_->BroadcastQueryAndWait(1, expr);
  ASSERT_TRUE(broadcast.ok());
  auto sorted = [](std::vector<Answer> v) {
    std::sort(v.begin(), v.end(), [](const Answer& a, const Answer& b) {
      if (a.doc != b.doc) return a.doc < b.doc;
      return a.elements < b.elements;
    });
    return v;
  };
  EXPECT_EQ(sorted(broadcast.value().final_answers),
            sorted(indexed.value().final_answers));
}

TEST_F(BroadcastTest, BroadcastHandlesWildcardQueries) {
  // The distributed index rejects this; broadcast answers it.
  auto broadcast =
      net_->BroadcastQueryAndWait(0, "//*[contains(.,'ullman')]//year");
  ASSERT_TRUE(broadcast.ok());
  EXPECT_FALSE(broadcast.value().final_answers.empty());
}

TEST_F(BroadcastTest, BroadcastCostsMoreQueryTraffic) {
  net_->network().ResetTraffic();
  QueryOptions qopt;
  ASSERT_TRUE(
      net_->QueryAndWait(1, "//article//author[. contains 'Ullman']", qopt)
          .ok());
  const uint64_t indexed_query_bytes = net_->network().traffic().
      CategoryBytes(sim::TrafficCategory::kQuery);
  net_->network().ResetTraffic();
  ASSERT_TRUE(
      net_->BroadcastQueryAndWait(1, "//article//author[. contains 'Ullman']")
          .ok());
  const uint64_t broadcast_query_bytes = net_->network().traffic().
      CategoryBytes(sim::TrafficCategory::kQuery);
  EXPECT_GT(broadcast_query_bytes, indexed_query_bytes);
}

TEST_F(BroadcastTest, ExplainReportsCountsAndPick) {
  query::QueryOptions options;
  auto explained = net_->ExplainQueryAndWait(
      1, "//article//author[. contains 'Ullman']", options);
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  const std::string& text = explained.value();
  EXPECT_NE(text.find("l:article"), std::string::npos);
  EXPECT_NE(text.find("l:author"), std::string::npos);
  EXPECT_NE(text.find("w:ullman"), std::string::npos);
  EXPECT_NE(text.find("complete, precise"), std::string::npos);
  // Each term's count comes with the directory blocks it sums.
  EXPECT_NE(text.find(" postings in 1 block\n"), std::string::npos) << text;
  EXPECT_NE(text.find("auto would run: subquery-reducer"),
            std::string::npos)
      << text;
  // Parse errors surface as Status.
  EXPECT_FALSE(net_->ExplainQueryAndWait(1, "//a[", options).ok());
}

TEST_F(BroadcastTest, DocUriLookup) {
  auto uri = net_->LookupDocUriAndWait(5, index::DocId{2, 0});
  ASSERT_TRUE(uri.ok()) << uri.status().ToString();
  EXPECT_EQ(uri.value(), docs_[0].uri);
  auto missing = net_->LookupDocUriAndWait(5, index::DocId{7, 123});
  EXPECT_FALSE(missing.ok());
  EXPECT_TRUE(missing.status().IsNotFound());
}

}  // namespace
}  // namespace kadop::query
