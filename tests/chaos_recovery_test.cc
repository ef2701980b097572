// Seeded chaos harness: publish a corpus fault-free, then crash DPP block
// holders mid-query while the network drops and duplicates messages. Every
// query must terminate inside a virtual-time watchdog window with either
// the full answer set or an explicit incomplete/degraded result — never a
// hang. Restarting the crashed peers (stores intact) must restore full
// answers. The whole scenario is byte-identical across same-seed runs.
//
// The fault seed comes from KADOP_FAULT_SEED when set (the CI chaos job
// sweeps several), defaulting to 11.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/kadop.h"
#include "dht/ring.h"
#include "index/terms.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/local_eval.h"
#include "xml/corpus.h"

namespace kadop {
namespace {

uint64_t FaultSeed() {
  const char* env = std::getenv("KADOP_FAULT_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 11;
}

constexpr sim::NodeIndex kPublisher = 2;
constexpr sim::NodeIndex kQuerier = 5;
constexpr const char* kQuery = "//article//author";

struct ChaosOutcome {
  bool finished_in_time = false;
  bool complete = false;
  bool degraded = false;
  size_t answers = 0;
  size_t expected_answers = 0;
  bool recovered_complete = false;
  size_t recovered_answers = 0;
  std::string trace;
  std::string metrics_delta;

  friend bool operator==(const ChaosOutcome&, const ChaosOutcome&) = default;
};

/// One full crash-and-recover scenario. Self-contained and deterministic:
/// everything observable (virtual times, traces, metric deltas) depends
/// only on `seed`.
ChaosOutcome RunChaosScenario(uint64_t seed) {
  auto& tracer = obs::Tracer::Default();
  tracer.SetEnabled(true);
  tracer.Clear();
  // Zero the registry (not just snapshot-and-diff): histogram sums are
  // running double accumulations, and subtracting two different bases can
  // differ in the last ulp. From zero, both runs add the same values in
  // the same order and the dumps match byte for byte.
  obs::MetricRegistry::Default().Reset();
  const obs::MetricsSnapshot base = obs::MetricRegistry::Default().Snapshot();

  xml::corpus::DblpOptions copt;
  copt.target_bytes = 150 << 10;
  auto docs = xml::corpus::GenerateDblp(copt);

  core::KadopOptions opt;
  opt.peers = 12;
  opt.dpp.max_block_postings = 256;  // force splits -> many block holders
  core::KadopNet net(opt);
  std::vector<const xml::Document*> ptrs;
  for (const auto& d : docs) ptrs.push_back(&d);
  net.PublishAndWait(kPublisher, ptrs);

  query::QueryOptions qopt;
  qopt.strategy = query::QueryStrategy::kDpp;

  // Fault-free baseline: the answer set the index must reproduce.
  ChaosOutcome out;
  {
    auto baseline = net.QueryAndWait(kQuerier, kQuery, qopt);
    EXPECT_TRUE(baseline.ok());
    if (baseline.ok()) out.expected_answers = baseline.value().answers.size();
  }

  // Pick crash victims among the holders of interior DPP blocks of the
  // query's terms (interior blocks sit inside the [min, max] window, so a
  // holder that dies is *detectably* missing data).
  std::set<sim::NodeIndex> protected_nodes{kPublisher, kQuerier};
  std::vector<sim::NodeIndex> victims;
  for (const std::string& term :
       {index::LabelKey("article"), index::LabelKey("author")}) {
    protected_nodes.insert(net.dht().OwnerOf(dht::HashKey(term)));
  }
  for (const std::string& term :
       {index::LabelKey("article"), index::LabelKey("author")}) {
    std::vector<index::DppBlockInfo> dir;
    index::DppManager::FetchDirectory(
        net.peer(0)->dht_peer(), term,
        [&](Status st, std::vector<index::DppBlockInfo> blocks) {
          EXPECT_TRUE(st.ok());
          dir = std::move(blocks);
        });
    net.RunToIdle();
    for (size_t i = 1; i + 1 < dir.size() && victims.size() < 2; ++i) {
      const sim::NodeIndex holder =
          net.dht().OwnerOf(dht::HashKey(dir[i].key));
      if (protected_nodes.count(holder) > 0) continue;
      protected_nodes.insert(holder);
      victims.push_back(holder);
    }
  }
  EXPECT_EQ(victims.size(), 2u) << "corpus too small to pick crash victims";

  // Faults on: lossy links plus two crashes mid-query.
  sim::FaultOptions fopts;
  fopts.seed = seed;
  fopts.drop_p = 0.08;
  fopts.dup_p = 0.02;
  const double t0 = net.scheduler().Now();
  std::vector<sim::CrashEvent> schedule;
  for (size_t i = 0; i < victims.size(); ++i) {
    schedule.push_back(
        sim::CrashEvent{t0 + 0.02 + 0.02 * static_cast<double>(i),
                        victims[i], /*up=*/false});
  }
  net.EnableFaults(fopts, schedule);

  qopt.fetch_retry.timeout_s = 0.5;
  qopt.fetch_retry.max_retries = 3;
  std::optional<query::QueryResult> result;
  EXPECT_TRUE(net.SubmitQuery(kQuerier, kQuery, qopt,
                              [&](query::QueryResult r) {
                                result = std::move(r);
                              })
                  .ok());
  // Virtual-time watchdog: the retry budget bounds every code path, so the
  // query must resolve well before this deadline even with both crashes.
  net.scheduler().RunUntil(t0 + 60.0);
  out.finished_in_time = result.has_value();
  EXPECT_TRUE(out.finished_in_time) << "query hung under faults";
  if (result.has_value()) {
    out.complete = result->metrics.complete;
    out.degraded = result->metrics.degraded;
    out.answers = result->answers.size();
    if (out.complete) {
      // Full termination: the exact fault-free answer set.
      EXPECT_EQ(out.answers, out.expected_answers);
    } else {
      // Explicit partial answers: a sound subset, flagged as such.
      EXPECT_TRUE(out.degraded);
      EXPECT_LE(out.answers, out.expected_answers);
    }
  }

  // Recovery: restart the crashed peers (stores intact), lift the faults,
  // and the full answer set comes back.
  net.RunToIdle();
  net.DisableFaults();
  for (const sim::NodeIndex v : victims) net.RestartPeerAndStabilize(v);
  auto after = net.QueryAndWait(kQuerier, kQuery, qopt);
  EXPECT_TRUE(after.ok());
  if (after.ok()) {
    out.recovered_complete = after.value().metrics.complete;
    out.recovered_answers = after.value().answers.size();
    EXPECT_TRUE(out.recovered_complete);
    EXPECT_EQ(out.recovered_answers, out.expected_answers);
  }

  out.trace = tracer.DumpText();
  out.metrics_delta =
      obs::MetricRegistry::Default().Snapshot().DiffSince(base).ToText();
  return out;
}

TEST(ChaosRecoveryTest, CrashedHoldersDegradeGracefullyAndRecover) {
  const ChaosOutcome out = RunChaosScenario(FaultSeed());
  EXPECT_TRUE(out.finished_in_time);
  EXPECT_TRUE(out.recovered_complete);
  EXPECT_GT(out.expected_answers, 0u);
}

std::vector<query::Answer> Sorted(std::vector<query::Answer> v) {
  std::sort(v.begin(), v.end(),
            [](const query::Answer& a, const query::Answer& b) {
              if (a.doc != b.doc) return a.doc < b.doc;
              return a.elements < b.elements;
            });
  return v;
}

/// Ground truth for `docs`, all published in order by kPublisher.
std::vector<query::Answer> Oracle(const std::vector<xml::Document>& docs) {
  const query::TreePattern pattern = query::ParsePattern(kQuery).take();
  std::vector<query::Answer> all;
  for (size_t d = 0; d < docs.size(); ++d) {
    auto answers = query::EvaluateOnDocument(
        pattern, docs[d], index::DocId{kPublisher, static_cast<uint32_t>(d)});
    all.insert(all.end(), answers.begin(), answers.end());
  }
  return Sorted(std::move(all));
}

// Freshness under faults: with messages duplicated and jittered (so
// appends arrive as retried or duplicated AppendRequests), a query after
// the append must see exactly the new ground truth — never the
// pre-append answer set, and never a duplicate-applied append.
TEST(ChaosRecoveryTest, FaultedAppendIsVisibleToTheNextQuery) {
  obs::MetricRegistry::Default().Reset();
  xml::corpus::DblpOptions copt;
  copt.target_bytes = 80 << 10;
  auto docs = xml::corpus::GenerateDblp(copt);
  copt.seed = 77;
  copt.target_bytes = 40 << 10;
  auto extra = xml::corpus::GenerateDblp(copt);

  core::KadopOptions opt;
  opt.peers = 10;
  // Retry-capable publishes: batches carry dedup ids, so the duplicated
  // AppendRequests below apply at most once (the at-most-once contract
  // from docs/fault_injection.md).
  opt.publish.append_retry.timeout_s = 0.5;
  opt.publish.append_retry.max_retries = 3;
  core::KadopNet net(opt);
  std::vector<const xml::Document*> ptrs;
  for (const auto& d : docs) ptrs.push_back(&d);
  net.PublishAndWait(kPublisher, ptrs);

  // Duplication + jitter only (no drops): every message eventually
  // arrives, some twice — the dup-append path, and retried fetches.
  sim::FaultOptions fopts;
  fopts.seed = FaultSeed();
  fopts.dup_p = 0.2;
  fopts.jitter_mean_s = 0.002;
  net.EnableFaults(fopts);

  query::QueryOptions qopt;
  qopt.strategy = query::QueryStrategy::kDpp;
  qopt.fetch_retry.timeout_s = 0.5;
  qopt.fetch_retry.max_retries = 3;

  auto before = net.QueryAndWait(kQuerier, kQuery, qopt);
  ASSERT_TRUE(before.ok());
  EXPECT_TRUE(before.value().metrics.complete);
  EXPECT_EQ(Sorted(before.value().answers), Oracle(docs));
  const size_t pre_append_answers = before.value().answers.size();
  EXPECT_GT(pre_append_answers, 0u);

  // Append under active faults: the new postings flow through duplicated
  // and delayed AppendRequests.
  std::vector<const xml::Document*> extra_ptrs;
  for (const auto& d : extra) extra_ptrs.push_back(&d);
  net.PublishAndWait(kPublisher, extra_ptrs);
  std::vector<xml::Document> all = std::move(docs);
  all.insert(all.end(), std::make_move_iterator(extra.begin()),
             std::make_move_iterator(extra.end()));

  auto after = net.QueryAndWait(kQuerier, kQuery, qopt);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after.value().metrics.complete);
  EXPECT_EQ(Sorted(after.value().answers), Oracle(all));
  EXPECT_GT(after.value().answers.size(), pre_append_answers);
}

// Views under chaos: appends ride dropped, duplicated and jittered links
// while a materialized view is registered. A view-served re-query must
// equal fresh ground truth — never the pre-append extent. When the delta
// stream loses an ack the freshness guard trips and the query falls back;
// serving a stale extent is the one outcome that must never happen.
TEST(ChaosRecoveryTest, ViewsNeverServePreAppendExtentsUnderFaults) {
  obs::MetricRegistry::Default().Reset();
  xml::corpus::DblpOptions copt;
  copt.target_bytes = 80 << 10;
  auto docs = xml::corpus::GenerateDblp(copt);
  copt.seed = 77;
  copt.target_bytes = 40 << 10;
  auto extra = xml::corpus::GenerateDblp(copt);

  core::KadopOptions opt;
  opt.peers = 10;
  // Retry-capable publishes: base batches and view deltas carry dedup ids,
  // so duplicated AppendRequests apply at most once and dropped ones are
  // retried until the ack lands.
  opt.publish.append_retry.timeout_s = 0.5;
  opt.publish.append_retry.max_retries = 5;
  core::KadopNet net(opt);
  std::vector<const xml::Document*> ptrs;
  for (const auto& d : docs) ptrs.push_back(&d);
  net.PublishAndWait(kPublisher, ptrs);
  ASSERT_TRUE(net.CreateViewAndWait(kQuery, "chaos").ok());

  sim::FaultOptions fopts;
  fopts.seed = FaultSeed();
  fopts.drop_p = 0.02;
  fopts.dup_p = 0.2;
  fopts.jitter_mean_s = 0.002;
  net.EnableFaults(fopts);

  query::QueryOptions vopt;
  vopt.strategy = query::QueryStrategy::kView;
  vopt.fetch_retry.timeout_s = 0.5;
  vopt.fetch_retry.max_retries = 5;
  query::QueryOptions fresh = vopt;
  fresh.strategy = query::QueryStrategy::kDpp;

  auto warm = net.QueryAndWait(kQuerier, kQuery, vopt);
  ASSERT_TRUE(warm.ok());
  const size_t pre_append_answers = warm.value().answers.size();
  EXPECT_GT(pre_append_answers, 0u);

  // Append under active faults: base postings and view deltas both flow
  // through the lossy links.
  std::vector<const xml::Document*> extra_ptrs;
  for (const auto& d : extra) extra_ptrs.push_back(&d);
  net.PublishAndWait(kPublisher, extra_ptrs);
  net.SyncViews();

  auto after_view = net.QueryAndWait(kQuerier, kQuery, vopt);
  auto after_fresh = net.QueryAndWait(kQuerier, kQuery, fresh);
  ASSERT_TRUE(after_view.ok());
  ASSERT_TRUE(after_fresh.ok());
  EXPECT_TRUE(after_fresh.value().metrics.complete);
  // Hit or guarded fallback — either way, fresh ground truth, not the
  // pre-append extent.
  EXPECT_EQ(after_view.value().answers, after_fresh.value().answers);
  EXPECT_EQ(after_view.value().matched_docs,
            after_fresh.value().matched_docs);
  EXPECT_GT(after_view.value().answers.size(), pre_append_answers);
}

// A crashed extent-column holder must never serve a short column: the
// count verification (or the version oracle) trips and the query falls
// back to kDppJoin with degraded accounting — same answers as running
// kDppJoin directly against the surviving index, and never a hang.
// Restarting the holder (store intact) restores view serving.
TEST(ChaosRecoveryTest, ViewColumnHolderCrashFallsBackToDppJoin) {
  obs::MetricRegistry::Default().Reset();
  xml::corpus::DblpOptions copt;
  copt.target_bytes = 80 << 10;
  auto docs = xml::corpus::GenerateDblp(copt);

  core::KadopOptions opt;
  opt.peers = 12;
  core::KadopNet net(opt);
  std::vector<const xml::Document*> ptrs;
  for (const auto& d : docs) ptrs.push_back(&d);
  net.PublishAndWait(kPublisher, ptrs);
  ASSERT_TRUE(net.CreateViewAndWait(kQuery, "crashme").ok());

  query::QueryOptions vopt;
  vopt.strategy = query::QueryStrategy::kView;
  vopt.dpp_join_available = true;
  vopt.fetch_retry.timeout_s = 0.5;
  vopt.fetch_retry.max_retries = 3;
  ASSERT_TRUE(net.QueryAndWait(kQuerier, kQuery, vopt).value().metrics
                  .view_hit);

  // Crash the owner of the view's first extent column (avoiding the
  // querier so the query-side state survives).
  const query::ViewCatalog::Entry* entry = net.views().Find("crashme");
  ASSERT_NE(entry, nullptr);
  const sim::NodeIndex victim =
      net.dht().OwnerOf(dht::HashKey(entry->def.ColumnKey(0)));
  ASSERT_NE(victim, kQuerier);
  net.FailPeerAndStabilize(victim);

  auto fallen = net.QueryAndWait(kQuerier, kQuery, vopt);
  ASSERT_TRUE(fallen.ok());
  EXPECT_FALSE(fallen.value().metrics.view_hit);
  EXPECT_TRUE(fallen.value().metrics.view_fallback);
  EXPECT_TRUE(fallen.value().metrics.degraded);
  EXPECT_EQ(fallen.value().metrics.effective_strategy,
            query::QueryStrategy::kDppJoin);

  query::QueryOptions jopt = vopt;
  jopt.strategy = query::QueryStrategy::kDppJoin;
  auto direct = net.QueryAndWait(kQuerier, kQuery, jopt);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(fallen.value().answers, direct.value().answers);

  // Crash-stop with durable storage: the restarted holder brings the
  // column back, and a resync re-arms the extent.
  net.RestartPeerAndStabilize(victim);
  net.SyncViews();
  auto healed = net.QueryAndWait(kQuerier, kQuery, vopt);
  ASSERT_TRUE(healed.ok());
  EXPECT_TRUE(healed.value().metrics.view_hit);
  EXPECT_TRUE(healed.value().metrics.complete);
  EXPECT_FALSE(healed.value().metrics.degraded);
}

// Flash crowd under lossy links: a burst of concurrent queries slams one
// term while messages drop, duplicate and jitter. Every query must resolve
// inside the virtual-time watchdog with either the full answer set or an
// explicitly incomplete (degraded) one — the overload must never turn into
// a hang or a silent wrong answer.
TEST(ChaosRecoveryTest, FlashCrowdUnderFaults) {
  obs::MetricRegistry::Default().Reset();
  xml::corpus::DblpOptions copt;
  copt.target_bytes = 100 << 10;
  auto docs = xml::corpus::GenerateDblp(copt);

  core::KadopOptions opt;
  opt.peers = 12;
  core::KadopNet net(opt);
  std::vector<const xml::Document*> ptrs;
  for (const auto& d : docs) ptrs.push_back(&d);
  net.PublishAndWait(kPublisher, ptrs);

  query::QueryOptions qopt;
  qopt.strategy = query::QueryStrategy::kDpp;
  qopt.fetch_retry.timeout_s = 0.5;
  qopt.fetch_retry.max_retries = 3;

  // Fault-free ground truth.
  size_t expected_answers = 0;
  {
    auto baseline = net.QueryAndWait(kQuerier, "//author", qopt);
    ASSERT_TRUE(baseline.ok());
    expected_answers = baseline.value().answers.size();
    ASSERT_GT(expected_answers, 0u);
  }

  sim::FaultOptions fopts;
  fopts.seed = FaultSeed();
  fopts.drop_p = 0.05;
  fopts.dup_p = 0.02;
  fopts.jitter_mean_s = 0.002;
  net.EnableFaults(fopts);

  constexpr int kCrowd = 20;
  const double t0 = net.scheduler().Now();
  std::vector<std::optional<query::QueryResult>> results(kCrowd);
  for (int i = 0; i < kCrowd; ++i) {
    const auto at = static_cast<sim::NodeIndex>(i % opt.peers);
    ASSERT_TRUE(net.SubmitQuery(at, "//author", qopt,
                                [&results, i](query::QueryResult r) {
                                  results[i] = std::move(r);
                                })
                    .ok());
  }
  // Virtual-time watchdog: the per-fetch retry budget bounds every path,
  // crowd or no crowd — nothing may still be pending at the deadline.
  net.scheduler().RunUntil(t0 + 120.0);
  for (int i = 0; i < kCrowd; ++i) {
    ASSERT_TRUE(results[i].has_value()) << "query " << i << " hung";
    const query::QueryResult& r = *results[i];
    if (r.metrics.complete) {
      // Full termination: the exact fault-free answer set.
      EXPECT_EQ(r.answers.size(), expected_answers) << "query " << i;
    } else {
      // Explicitly incomplete: flagged degraded, sound subset.
      EXPECT_TRUE(r.metrics.degraded) << "query " << i;
      EXPECT_LE(r.answers.size(), expected_answers) << "query " << i;
    }
  }
  net.RunToIdle();
  net.DisableFaults();

  // Fault-free again: the crowd left no residue; answers are whole.
  auto after = net.QueryAndWait(kQuerier, "//author", qopt);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after.value().metrics.complete);
  EXPECT_EQ(after.value().answers.size(), expected_answers);
}

TEST(ChaosRecoveryTest, SameSeedRunsAreByteIdentical) {
  const ChaosOutcome a = RunChaosScenario(FaultSeed());
  const ChaosOutcome b = RunChaosScenario(FaultSeed());
  // Trace dumps and metric deltas are full transcripts of the run (every
  // span with virtual timestamps, every counter movement): equality here is
  // the byte-identical replay guarantee.
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.metrics_delta, b.metrics_delta);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.trace.empty());
}

}  // namespace
}  // namespace kadop
