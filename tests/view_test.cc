// Materialized tree-pattern views (docs/views.md): view-served answers must
// be byte-identical to kDpp / kDppJoin ground truth — after the initial
// materialization, after incremental maintenance under appends and
// unpublishes, and after any fallback — while a view hit ships strictly
// fewer posting bytes to the query peer. The freshness guard must
// disqualify an extent the moment a base list changes behind its back.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/kadop.h"
#include "dht/ring.h"
#include "index/publisher.h"
#include "obs/metrics.h"
#include "query/view.h"
#include "query/view_manager.h"
#include "xml/corpus.h"

namespace kadop::query {
namespace {

using core::KadopNet;
using core::KadopOptions;

uint64_t Counter(const char* name) {
  return obs::MetricRegistry::Default().Snapshot().CounterValue(name);
}

class ViewTest : public ::testing::Test {
 protected:
  void SetUp() override {
    xml::corpus::DblpOptions copt;
    copt.target_bytes = 120 << 10;
    copt.doc_bytes = 8 << 10;
    docs_ = xml::corpus::GenerateDblp(copt);

    KadopOptions opt;
    opt.peers = 12;
    net_ = std::make_unique<KadopNet>(opt);
    net_->RegisterDocuments(docs_);
    std::vector<const xml::Document*> ptrs;
    for (const auto& d : docs_) ptrs.push_back(&d);
    net_->PublishAndWait(2, ptrs);
  }

  QueryResult RunQuery(const char* expr, QueryStrategy strategy) {
    QueryOptions options;
    options.strategy = strategy;
    options.dpp_join_available = true;
    auto result = net_->QueryAndWait(1, expr, options);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.take();
  }

  /// Publishes a second same-shape batch through the network's (hooked)
  /// publish path, so view deltas ride along.
  void PublishMore(uint64_t seed) {
    xml::corpus::DblpOptions copt;
    copt.seed = seed;
    copt.target_bytes = 40 << 10;
    copt.doc_bytes = 8 << 10;
    more_.push_back(xml::corpus::GenerateDblp(copt));
    std::vector<const xml::Document*> ptrs;
    for (const auto& d : more_.back()) ptrs.push_back(&d);
    net_->PublishAndWait(3, ptrs);
  }

  std::vector<xml::Document> docs_;
  std::vector<std::vector<xml::Document>> more_;
  std::unique_ptr<KadopNet> net_;
};

TEST_F(ViewTest, ExactRewriteServesByteIdenticalAnswers) {
  auto name = net_->CreateViewAndWait("//article//author");
  ASSERT_TRUE(name.ok()) << name.status().ToString();

  const QueryResult dpp = RunQuery("//article//author", QueryStrategy::kDpp);
  const QueryResult djoin =
      RunQuery("//article//author", QueryStrategy::kDppJoin);
  const QueryResult view = RunQuery("//article//author", QueryStrategy::kView);

  ASSERT_FALSE(dpp.answers.empty());
  EXPECT_TRUE(view.metrics.view_hit);
  EXPECT_TRUE(view.metrics.view_exact);
  EXPECT_FALSE(view.metrics.view_fallback);
  EXPECT_TRUE(view.metrics.complete);
  EXPECT_FALSE(view.metrics.degraded);
  EXPECT_EQ(view.metrics.effective_strategy, QueryStrategy::kView);
  // Not just set equality: document-order output, element for element.
  EXPECT_EQ(view.answers, dpp.answers);
  EXPECT_EQ(view.matched_docs, dpp.matched_docs);
  EXPECT_EQ(view.answers, djoin.answers);
}

TEST_F(ViewTest, ViewHitShipsFewerPostingBytes) {
  ASSERT_TRUE(net_->CreateViewAndWait("//article//author").ok());
  const QueryResult dpp = RunQuery("//article//author", QueryStrategy::kDpp);
  const QueryResult view = RunQuery("//article//author", QueryStrategy::kView);
  ASSERT_TRUE(view.metrics.view_hit);

  // The extent's deduplicated columns are strict subsets of the base term
  // lists (inproceedings authors never enter the view), so a hit moves
  // strictly fewer posting bytes to the query peer than a kDpp fetch.
  EXPECT_GT(view.metrics.posting_wire_bytes, 0u);
  EXPECT_LT(view.metrics.posting_wire_bytes, dpp.metrics.posting_wire_bytes);
  EXPECT_GT(Counter("view.hits"), 0u);
  EXPECT_GT(Counter("view.bytes_served"), 0u);
}

TEST_F(ViewTest, ContainmentRewriteFiltersResidualPredicates) {
  ASSERT_TRUE(net_->CreateViewAndWait("//article//author").ok());

  // //article[//journal]//author strictly contains the view pattern; the
  // journal branch stays residual and filters through the iterator tree.
  const char* expr = "//article[//journal]//author";
  const QueryResult dpp = RunQuery(expr, QueryStrategy::kDpp);
  const QueryResult view = RunQuery(expr, QueryStrategy::kView);

  ASSERT_FALSE(dpp.answers.empty());
  EXPECT_TRUE(view.metrics.view_hit);
  EXPECT_FALSE(view.metrics.view_exact);
  EXPECT_EQ(view.answers, dpp.answers);
  EXPECT_EQ(view.matched_docs, dpp.matched_docs);
  // The residual (journal) list was fetched alongside the extent columns.
  EXPECT_GT(view.metrics.posting_wire_bytes, 0u);
}

TEST_F(ViewTest, IncrementalMaintenanceTracksAppends) {
  ASSERT_TRUE(net_->CreateViewAndWait("//article//author").ok());
  const uint64_t tuples_before = Counter("view.maintenance_tuples");
  const uint64_t answers_before =
      net_->views().Find("v1") ? net_->views().Find("v1")->answers : 0;

  PublishMore(/*seed=*/77);

  // Delta maintenance ran inside the publish (no re-materialization).
  EXPECT_GT(Counter("view.maintenance_tuples"), tuples_before);
  const ViewCatalog::Entry* entry = net_->views().Find("v1");
  ASSERT_NE(entry, nullptr);
  EXPECT_GT(entry->answers, answers_before);

  // Before any resync the extent must never serve pre-append answers:
  // either it already caught up (acks resynced it) and serves fresh, or
  // the guard trips and the query falls back — both byte-identical to
  // fresh ground truth.
  const QueryResult early = RunQuery("//article//author", QueryStrategy::kView);
  const QueryResult truth = RunQuery("//article//author", QueryStrategy::kDpp);
  EXPECT_EQ(early.answers, truth.answers);

  net_->SyncViews();
  const QueryResult view = RunQuery("//article//author", QueryStrategy::kView);
  EXPECT_TRUE(view.metrics.view_hit);
  EXPECT_EQ(view.answers, truth.answers);
  EXPECT_EQ(view.matched_docs, truth.matched_docs);
}

TEST_F(ViewTest, IncrementalMaintenanceTracksUnpublish) {
  ASSERT_TRUE(net_->CreateViewAndWait("//article//author").ok());
  ASSERT_TRUE(net_->UnpublishAndWait(2, /*seq=*/0));
  net_->SyncViews();

  const QueryResult truth = RunQuery("//article//author", QueryStrategy::kDpp);
  const QueryResult view = RunQuery("//article//author", QueryStrategy::kView);
  EXPECT_TRUE(view.metrics.view_hit) << "extent should be in sync again";
  EXPECT_EQ(view.answers, truth.answers);
  EXPECT_EQ(view.matched_docs, truth.matched_docs);
  for (const auto& doc : view.matched_docs) {
    EXPECT_FALSE(doc.peer == 2 && doc.doc == 0)
        << "withdrawn document still served from the extent";
  }
}

TEST_F(ViewTest, UnhookedAppendDisqualifiesExtent) {
  ASSERT_TRUE(net_->CreateViewAndWait("//article//author").ok());
  ASSERT_TRUE(RunQuery("//article//author", QueryStrategy::kView)
                  .metrics.view_hit);

  // An append that bypasses delta maintenance (a raw Publisher without the
  // derive hook — modeling an unhooked or version-skewed publisher).
  xml::corpus::DblpOptions copt;
  copt.seed = 99;
  copt.target_bytes = 16 << 10;
  copt.doc_bytes = 8 << 10;
  const std::vector<xml::Document> extra = xml::corpus::GenerateDblp(copt);
  index::Publisher raw(net_->peer(4)->dht_peer(), &net_->peer(4)->doc_store(),
                       index::PublishOptions{});
  std::vector<const xml::Document*> ptrs;
  for (const auto& d : extra) ptrs.push_back(&d);
  raw.Publish(ptrs, [] {});
  net_->RunToIdle();

  // The base-term version oracle trips: kAuto plans past the view...
  QueryOptions auto_options;
  auto_options.strategy = QueryStrategy::kAuto;
  auto_options.dpp_join_available = true;
  auto auto_result = net_->QueryAndWait(1, "//article//author", auto_options);
  ASSERT_TRUE(auto_result.ok());
  EXPECT_NE(auto_result.value().metrics.effective_strategy,
            QueryStrategy::kView);
  EXPECT_FALSE(auto_result.value().metrics.degraded);

  // ...and an explicit kView falls back with degraded accounting, still
  // byte-identical to fresh ground truth.
  const QueryResult view = RunQuery("//article//author", QueryStrategy::kView);
  const QueryResult truth = RunQuery("//article//author", QueryStrategy::kDpp);
  EXPECT_FALSE(view.metrics.view_hit);
  EXPECT_TRUE(view.metrics.view_fallback);
  EXPECT_TRUE(view.metrics.degraded);
  EXPECT_EQ(view.answers, truth.answers);
  EXPECT_GT(Counter("view.fallbacks"), 0u);

  // A resync against the (now quiescent) network makes it servable again.
  net_->SyncViews();
  EXPECT_TRUE(RunQuery("//article//author", QueryStrategy::kView)
                  .metrics.view_hit);
}

TEST_F(ViewTest, CatalogPublishedUnderWellKnownKey) {
  auto name = net_->CreateViewAndWait("//article//author", "hot_authors");
  ASSERT_TRUE(name.ok());
  EXPECT_EQ(name.value(), "hot_authors");

  std::optional<std::string> blob;
  net_->peer(5)->dht_peer()->GetBlob(
      "view:catalog",
      [&blob](Result<std::string> b) {
        if (b.ok()) blob = b.value();
      });
  net_->RunToIdle();
  ASSERT_TRUE(blob.has_value());
  EXPECT_NE(blob->find("hot_authors"), std::string::npos);
  EXPECT_NE(blob->find("ready=1"), std::string::npos);
}

TEST_F(ViewTest, RegistrationRejectsDuplicatesAndWildcards) {
  ASSERT_TRUE(net_->CreateViewAndWait("//article//author", "a").ok());
  // Same pattern under a different name: one extent per pattern.
  EXPECT_FALSE(net_->CreateViewAndWait("//article//author", "b").ok());
  // Name collision.
  EXPECT_FALSE(net_->CreateViewAndWait("//article//title", "a").ok());
  // Views never cover wildcard patterns.
  EXPECT_FALSE(net_->CreateViewAndWait("//article//*", "w").ok());
  // Dropping frees both the name and the pattern for re-creation under a
  // fresh extent generation.
  EXPECT_TRUE(net_->DropView("a"));
  EXPECT_FALSE(net_->DropView("a"));
  auto again = net_->CreateViewAndWait("//article//author", "a");
  ASSERT_TRUE(again.ok());
  const QueryResult view = RunQuery("//article//author", QueryStrategy::kView);
  EXPECT_TRUE(view.metrics.view_hit);
  EXPECT_EQ(view.answers, RunQuery("//article//author",
                                   QueryStrategy::kDpp).answers);
}

// Views have no switch: the catalog rewrites exactly while it holds a
// registered view. Before the first one, kAuto's consult counts nothing.
TEST_F(ViewTest, RewritingFollowsRegistration) {
  const uint64_t rewrites_before = Counter("view.rewrites");
  const uint64_t misses_before = Counter("view.misses");
  QueryOptions auto_options;
  auto_options.strategy = QueryStrategy::kAuto;
  auto_options.dpp_join_available = true;
  auto planned = net_->QueryAndWait(1, "//article//author", auto_options);
  ASSERT_TRUE(planned.ok());
  EXPECT_NE(planned.value().metrics.effective_strategy, QueryStrategy::kView);
  EXPECT_EQ(Counter("view.rewrites"), rewrites_before);
  EXPECT_EQ(Counter("view.misses"), misses_before);

  auto name = net_->CreateViewAndWait("//article//author");
  ASSERT_TRUE(name.ok()) << name.status().ToString();
  EXPECT_TRUE(RunQuery("//article//author", QueryStrategy::kView)
                  .metrics.view_hit);

  ASSERT_TRUE(net_->DropView(name.value()));
  const QueryResult view = RunQuery("//article//author", QueryStrategy::kView);
  EXPECT_FALSE(view.metrics.view_hit);
  EXPECT_TRUE(view.metrics.view_fallback);
  EXPECT_EQ(view.answers, RunQuery("//article//author",
                                   QueryStrategy::kDpp).answers);
}

// kAuto prices the view from its planning round; when the view then fails
// to serve, the fallback into kDpp runs on the directories that round
// already fetched instead of fetching them again.
TEST_F(ViewTest, AutoViewFallbackReusesThePlanningDirectories) {
  auto name = net_->CreateViewAndWait("//article//author");
  ASSERT_TRUE(name.ok());
  QueryOptions options;
  options.strategy = QueryStrategy::kAuto;
  options.fetch_retry.timeout_s = 0.5;
  options.fetch_retry.max_retries = 0;
  ASSERT_TRUE(net_->QueryAndWait(1, "//article//author", options)
                  .value()
                  .metrics.view_hit);

  // Slow the first extent column's holder past the fetch timeout: the
  // catalog still reads the rewrite as servable, but the column pull
  // times out and fails verification. (The late reply lands soon after,
  // so it does not hold up the fallback's own pulls for long.)
  const ViewCatalog::Entry* entry = net_->views().Find(name.value());
  ASSERT_NE(entry, nullptr);
  sim::FaultOptions slow;
  slow.slow_extra_s = 0.7;
  slow.slow_peers = {
      net_->dht().OwnerOf(dht::HashKey(entry->def.ColumnKey(0)))};
  net_->EnableFaults(slow);
  const uint64_t before = Counter("dpp.dir_requests");
  auto fallen = net_->QueryAndWait(1, "//article//author", options);
  net_->DisableFaults();
  ASSERT_TRUE(fallen.ok());
  const QueryMetrics& m = fallen.value().metrics;
  EXPECT_TRUE(m.view_fallback);
  EXPECT_TRUE(m.complete);
  EXPECT_EQ(m.effective_strategy, QueryStrategy::kDpp);
  EXPECT_EQ(Counter("dpp.dir_requests") - before, 2u);

  options.strategy = QueryStrategy::kDpp;
  auto truth = net_->QueryAndWait(1, "//article//author", options);
  ASSERT_TRUE(truth.ok());
  EXPECT_EQ(fallen.value().answers, truth.value().answers);
}

// `explain` prices a servable view from the same plan kAuto runs, and
// names the strategy kAuto then serves with.
TEST_F(ViewTest, ExplainPricesTheViewAutoServesFrom) {
  auto name = net_->CreateViewAndWait("//article//author");
  ASSERT_TRUE(name.ok()) << name.status().ToString();
  QueryOptions options;
  options.strategy = QueryStrategy::kAuto;
  auto explained = net_->ExplainQueryAndWait(1, "//article//author", options);
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  const std::string& text = explained.value();
  EXPECT_NE(text.find("view rewrite: " + name.value() + " (exact, extent="),
            std::string::npos)
      << text;
  auto ran = net_->QueryAndWait(1, "//article//author", options);
  ASSERT_TRUE(ran.ok());
  EXPECT_EQ(ran.value().metrics.effective_strategy, QueryStrategy::kView);
  EXPECT_TRUE(ran.value().metrics.view_hit);
  EXPECT_NE(text.find("auto would run: view\n"), std::string::npos) << text;
  EXPECT_EQ(ran.value().answers, RunQuery("//article//author",
                                          QueryStrategy::kDpp).answers);
}

}  // namespace
}  // namespace kadop::query
