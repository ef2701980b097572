#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/kadop.h"
#include "obs/metrics.h"
#include "xml/corpus.h"

namespace kadop::fundex {
namespace {

using core::KadopNet;
using core::KadopOptions;
using index::DocId;

constexpr const char* kInexQuery =
    "//article[contains(.//title,'system') and "
    "contains(.//abstract,'interface')]";

/// Fixture: an INEX-like two-file collection published under a given
/// intensional mode.
class FundexTest : public ::testing::TestWithParam<IntensionalMode> {
 protected:
  void SetUp() override {
    xml::corpus::InexOptions copt;
    copt.publications = 120;
    copt.planted_matches = 6;
    docs_ = xml::corpus::GenerateInex(copt);

    KadopOptions opt;
    opt.peers = 10;
    net_ = std::make_unique<KadopNet>(opt);
    net_->RegisterDocuments(docs_);
    // Publish only the main documents; abstracts are intensional targets.
    std::vector<const xml::Document*> mains;
    for (size_t i = 0; i < 120; ++i) mains.push_back(&docs_[i]);
    net_->FundexPublishAndWait(1, mains, GetParam());
  }

  /// Oracle: documents whose title matches AND whose abstract (resolved)
  /// matches — what a user means by the query.
  std::set<uint32_t> TrueMatches() {
    std::set<uint32_t> out;
    auto title = query::ParsePattern(
        "//article[contains(.//title,'system')]");
    auto abs = query::ParsePattern("//abstractBody//\"interface\"");
    for (uint32_t i = 0; i < 120; ++i) {
      const bool title_hit =
          query::MatchesDocument(title.value(), docs_[i]);
      const bool abs_hit =
          query::MatchesDocument(abs.value(), docs_[120 + i]);
      if (title_hit && abs_hit) out.insert(i);
    }
    return out;
  }

  std::set<uint32_t> MatchedDocSeqs(const FundexQueryResult& result) {
    std::set<uint32_t> out;
    for (const DocId& d : result.matched_docs) out.insert(d.doc);
    return out;
  }

  std::vector<xml::Document> docs_;
  std::unique_ptr<KadopNet> net_;
};

TEST_P(FundexTest, RecallAndPrecisionPerMode) {
  auto result = net_->FundexQueryAndWait(0, kInexQuery, GetParam());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::set<uint32_t> found = MatchedDocSeqs(result.value());
  const std::set<uint32_t> truth = TrueMatches();
  ASSERT_FALSE(truth.empty());

  switch (GetParam()) {
    case IntensionalMode::kNaive:
      // Naive misses everything: the word 'interface' never occurs
      // extensionally in the main documents.
      EXPECT_TRUE(found.empty());
      break;
    case IntensionalMode::kFundexSimple:
    case IntensionalMode::kInline:
      // Complete AND precise.
      EXPECT_EQ(found, truth);
      break;
    case IntensionalMode::kFundexRepresentative:
      // Complete but imprecise: every true match is found, and extra
      // candidates may appear ("conditions underneath are ignored").
      for (uint32_t seq : truth) {
        EXPECT_TRUE(found.count(seq)) << "lost true match " << seq;
      }
      EXPECT_GE(found.size(), truth.size());
      break;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, FundexTest,
    ::testing::Values(IntensionalMode::kNaive, IntensionalMode::kFundexSimple,
                      IntensionalMode::kFundexRepresentative,
                      IntensionalMode::kInline),
    [](const ::testing::TestParamInfo<IntensionalMode>& info) {
      std::string name(IntensionalModeName(info.param));
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

TEST(FundexUnitTest, KeysAndFids) {
  EXPECT_EQ(FunKey("a.xml"), "fun:a.xml");
  EXPECT_TRUE(FidSeq("a.xml") & 0x80000000u);
  EXPECT_EQ(FidSeq("a.xml"), FidSeq("a.xml"));
  EXPECT_NE(FidSeq("a.xml"), FidSeq("b.xml"));
  EXPECT_TRUE(IsFunctionalDoc(index::Posting{0, FidSeq("a.xml"), {1, 2, 1}}));
  EXPECT_FALSE(IsFunctionalDoc(index::Posting{0, 5, {1, 2, 1}}));
  EXPECT_EQ(RevKey(FidSeq("a.xml")),
            "rev:" + std::to_string(FidSeq("a.xml")));
}

TEST(FundexUnitTest, FunctionIndexingIsDeduplicated) {
  const obs::MetricsSnapshot base = obs::MetricRegistry::Default().Snapshot();
  xml::corpus::InexOptions copt;
  copt.publications = 20;
  copt.planted_matches = 2;
  auto docs = xml::corpus::GenerateInex(copt);
  // Every main document includes the SAME abstract: rewrite entities.
  for (size_t i = 0; i < 20; ++i) {
    docs[i].entities["thisabstract"] = docs[20].uri;
  }
  KadopOptions opt;
  opt.peers = 6;
  KadopNet net(opt);
  net.RegisterDocuments(docs);
  std::vector<const xml::Document*> mains;
  for (size_t i = 0; i < 20; ++i) mains.push_back(&docs[i]);
  net.FundexPublishAndWait(0, mains, IntensionalMode::kFundexSimple);

  const obs::MetricsSnapshot d =
      obs::MetricRegistry::Default().Snapshot().DiffSince(base);
  EXPECT_EQ(d.CounterValue("fundex.functions_indexed"), 1u);
  EXPECT_EQ(d.CounterValue("fundex.duplicate_requests"), 19u);
  EXPECT_EQ(d.CounterValue("fundex.rev_entries"), 20u);
}

/// Postings the DHT stores while peer 0 publishes `mains` under `mode` on
/// a fresh 6-peer network (a delta: the registry is process-wide).
uint64_t PostingsStored(const std::vector<xml::Document>& docs,
                        const std::vector<const xml::Document*>& mains,
                        IntensionalMode mode) {
  const obs::Counter* stored =
      obs::MetricRegistry::Default().GetCounter("dht.postings_stored");
  const uint64_t before = stored->value();
  KadopOptions opt;
  opt.peers = 6;
  KadopNet net(opt);
  net.RegisterDocuments(docs);
  net.FundexPublishAndWait(0, mains, mode);
  return stored->value() - before;
}

TEST(FundexUnitTest, InliningCostsMoreIndexingForSharedContent) {
  xml::corpus::InexOptions copt;
  copt.publications = 30;
  auto docs = xml::corpus::GenerateInex(copt);
  for (size_t i = 0; i < 30; ++i) {
    docs[i].entities["thisabstract"] = docs[30].uri;  // all share one target
  }
  std::vector<const xml::Document*> mains;
  for (size_t i = 0; i < 30; ++i) mains.push_back(&docs[i]);

  const uint64_t inline_postings =
      PostingsStored(docs, mains, IntensionalMode::kInline);
  const uint64_t fundex_postings =
      PostingsStored(docs, mains, IntensionalMode::kFundexSimple);
  // In-lining re-indexes the shared abstract 30 times; the Fundex once.
  EXPECT_GT(inline_postings, fundex_postings + 500);
}

TEST(FundexUnitTest, RepresentativePublishesLessThanInlining) {
  xml::corpus::InexOptions copt;
  copt.publications = 40;
  auto docs = xml::corpus::GenerateInex(copt);
  std::vector<const xml::Document*> mains;
  for (size_t i = 0; i < 40; ++i) mains.push_back(&docs[i]);
  // The representative skeleton drops all words of the abstracts.
  EXPECT_LT(
      PostingsStored(docs, mains, IntensionalMode::kFundexRepresentative),
      PostingsStored(docs, mains, IntensionalMode::kInline));
}

}  // namespace
}  // namespace kadop::fundex
