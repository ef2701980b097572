// Hot-data replication + load-aware routing (dht/replication.h): the
// promotion/demotion state machine, the power-of-two-choices routing draw,
// the version guard that keeps replicas from ever serving stale postings,
// and the crash contracts — owner death answered from a live replica with
// degraded=false, replica death mid-pull falling back to the owner. Every
// replica-served answer must be byte-identical to the unreplicated ground
// truth, and same-seed runs with replication on must replay byte for byte.

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/kadop.h"
#include "dht/replication.h"
#include "dht/ring.h"
#include "index/terms.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "xml/corpus.h"

namespace kadop {
namespace {

using core::KadopNet;
using core::KadopOptions;
using dht::KeyLoadTracker;
using dht::PowerOfTwoChoice;
using dht::ReplicationManager;

uint64_t FaultSeed() {
  const char* env = std::getenv("KADOP_FAULT_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 11;
}

uint64_t CounterValue(const char* name) {
  const auto snap = obs::MetricRegistry::Default().Snapshot();
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

// ---------------------------------------------------------------------------
// KeyLoadTracker: the bounded replacement for the old per-key registry
// counters, whose cardinality grew with every distinct key ever served.

TEST(KeyLoadTrackerTest, StaysBoundedUnderHundredThousandDistinctKeys) {
  KeyLoadTracker tracker(64);
  const std::string hot = "hot-key";
  for (int i = 0; i < 100000; ++i) {
    tracker.RecordGet("key-" + std::to_string(i));
    if (i % 10 == 0) tracker.RecordGet(hot);
  }
  EXPECT_LE(tracker.tracked(), 64u);
  EXPECT_GT(tracker.evictions(), 0u);
  // Space-saving guarantee: the genuinely hot key is still tracked — the
  // stream of one-off keys cannot push it out.
  const auto window = tracker.DrainWindow();
  ASSERT_TRUE(window.count(hot) > 0);
  EXPECT_GE(window.at(hot), 10000u - 64u);
}

TEST(KeyLoadTrackerTest, RegistryCardinalityStaysFixed) {
  // The tracker registers exactly two metrics (an eviction counter and a
  // tracked-keys gauge) — never one counter per key.
  const auto before = obs::MetricRegistry::Default().Snapshot();
  KeyLoadTracker tracker(8);
  for (int i = 0; i < 1000; ++i) {
    tracker.RecordGet("cardinality-" + std::to_string(i));
  }
  const auto after = obs::MetricRegistry::Default().Snapshot();
  for (const auto& [name, value] : after.counters) {
    if (before.counters.count(name) > 0) continue;
    EXPECT_EQ(name, "load.key.evictions") << "unexpected new counter";
  }
  EXPECT_LE(tracker.tracked(), 8u);
}

TEST(KeyLoadTrackerTest, DecayForgetsColdKeys) {
  KeyLoadTracker tracker(16);
  tracker.RecordGet("a");
  tracker.RecordGet("a");
  tracker.RecordGet("b");
  EXPECT_EQ(tracker.tracked(), 2u);
  // "b" (count 1) decays to zero after one window, "a" (count 2) after two.
  tracker.DrainWindow();
  EXPECT_EQ(tracker.tracked(), 1u);
  tracker.DrainWindow();
  EXPECT_EQ(tracker.tracked(), 0u);
}

// ---------------------------------------------------------------------------
// Power-of-two-choices: deterministic for a fixed seed, always a member of
// the candidate set, and biased toward the less-loaded holder.

TEST(PowerOfTwoChoiceTest, DeterministicForFixedSeed) {
  const std::vector<sim::NodeIndex> candidates{3, 7, 11, 19};
  std::map<sim::NodeIndex, uint64_t> load{{3, 40}, {7, 10}, {11, 25}, {19, 5}};
  auto load_fn = [&load](sim::NodeIndex n) { return load.at(n); };
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) {
    const sim::NodeIndex pa = PowerOfTwoChoice(candidates, load_fn, a);
    const sim::NodeIndex pb = PowerOfTwoChoice(candidates, load_fn, b);
    EXPECT_EQ(pa, pb);
    EXPECT_TRUE(load.count(pa) > 0) << "picked a non-candidate";
  }
}

TEST(PowerOfTwoChoiceTest, FavorsTheLessLoadedReplicaOverManyDraws) {
  // Three candidates, one far lighter than the rest. The light one wins
  // whenever either draw includes it: P = 1 - (2/3 * 1/2) = 2/3 over 10k
  // draws, so its count concentrates tightly around 6667.
  const std::vector<sim::NodeIndex> candidates{0, 1, 2};
  auto load_fn = [](sim::NodeIndex n) -> uint64_t {
    return n == 2 ? 10 : 100;
  };
  Rng rng(FaultSeed());
  int light_picks = 0;
  for (int i = 0; i < 10000; ++i) {
    if (PowerOfTwoChoice(candidates, load_fn, rng) == 2) light_picks++;
  }
  EXPECT_GT(light_picks, 5500);
  EXPECT_LT(light_picks, 7800);
}

TEST(PowerOfTwoChoiceTest, LoadTieBreaksOnSmallerNodeIndex) {
  const std::vector<sim::NodeIndex> candidates{9, 4};
  auto load_fn = [](sim::NodeIndex) -> uint64_t { return 7; };
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(PowerOfTwoChoice(candidates, load_fn, rng), 4u);
  }
}

// ---------------------------------------------------------------------------
// Promotion / demotion state machine, driven deterministically through the
// manager's lazy windows on a small published network.

class ReplicationStateMachineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    xml::corpus::DblpOptions copt;
    copt.target_bytes = 100 << 10;
    docs_ = xml::corpus::GenerateDblp(copt);

    KadopOptions opt;
    opt.peers = 10;
    opt.dht.repl.enabled = true;
    opt.dht.repl.replicas = 2;
    opt.dht.repl.window_s = 1.0;
    opt.dht.repl.hot_gets_per_window = 4;
    opt.dht.repl.hot_windows = 2;
    opt.dht.repl.cool_gets_per_window = 1;
    opt.dht.repl.cool_windows = 2;
    net_ = std::make_unique<KadopNet>(opt);
    net_->RegisterDocuments(docs_);
    std::vector<const xml::Document*> ptrs;
    for (const auto& d : docs_) ptrs.push_back(&d);
    net_->PublishAndWait(2, ptrs);
    key_ = index::LabelKey("author");
  }

  ReplicationManager& repl() { return net_->dht().replication(); }

  /// Closes one load window after recording `gets` on the hot key. The
  /// window clock only needs to move past the boundary; it is driven with
  /// synthetic times exactly like the Get/Append serve paths drive it.
  void Window(uint64_t gets) {
    for (uint64_t i = 0; i < gets; ++i) repl().RecordKeyGet(key_);
    now_ += 1.5;  // > window_s
    repl().MaybeTick(now_);
  }

  std::vector<xml::Document> docs_;
  std::unique_ptr<KadopNet> net_;
  std::string key_;
  double now_ = 0.0;
};

TEST_F(ReplicationStateMachineTest, PromotesAfterHotWindowsAndNotBefore) {
  repl().MaybeTick(now_);  // opens the first window
  Window(10);              // hot_streak = 1
  EXPECT_FALSE(repl().IsReplicated(key_));
  Window(10);  // hot_streak = 2 -> promote
  EXPECT_TRUE(repl().IsReplicated(key_));
  const auto replicas = repl().ReplicaNodes(key_);
  ASSERT_EQ(replicas.size(), 2u);
  // Replicas are the owner's first successors, never the owner itself.
  const auto succ = net_->dht().SuccessorsOf(dht::HashKey(key_), 3);
  ASSERT_EQ(succ.size(), 3u);
  EXPECT_EQ(replicas[0], succ[1]);
  EXPECT_EQ(replicas[1], succ[2]);

  // The copies travel as real messages; once installed and acked, the
  // replicas are ready and version-fresh.
  net_->RunToIdle();
  const uint64_t version =
      net_->peer(0)->dht_peer()->AuthoritativeVersion(key_);
  EXPECT_TRUE(repl().CanServeReplica(key_, replicas[0], version));
  EXPECT_TRUE(repl().CanServeReplica(key_, replicas[1], version));
}

TEST_F(ReplicationStateMachineTest, ColdStreakBelowThresholdNeverPromotes) {
  repl().MaybeTick(now_);
  for (int i = 0; i < 5; ++i) Window(3);  // below hot_gets_per_window
  EXPECT_FALSE(repl().IsReplicated(key_));
  EXPECT_EQ(repl().ReplicatedKeyCount(), 0u);
}

TEST_F(ReplicationStateMachineTest, InterruptedStreakStartsOver) {
  repl().MaybeTick(now_);
  Window(10);  // hot_streak = 1
  Window(0);   // streak broken
  Window(10);  // hot_streak = 1 again
  EXPECT_FALSE(repl().IsReplicated(key_));
  Window(10);  // hot_streak = 2 -> promote
  EXPECT_TRUE(repl().IsReplicated(key_));
}

TEST_F(ReplicationStateMachineTest, DemotesAfterCoolWindowsAndDropsCopies) {
  repl().MaybeTick(now_);
  Window(10);
  Window(10);
  net_->RunToIdle();
  ASSERT_TRUE(repl().IsReplicated(key_));
  const auto replicas = repl().ReplicaNodes(key_);

  Window(0);  // cool_streak = 1
  EXPECT_TRUE(repl().IsReplicated(key_));
  Window(0);  // cool_streak = 2 -> demote
  EXPECT_FALSE(repl().IsReplicated(key_));
  net_->RunToIdle();  // the drop messages land
  for (const sim::NodeIndex r : replicas) {
    EXPECT_TRUE(net_->peer(r)->dht_peer()->store()->GetPostings(key_).empty())
        << "replica " << r << " kept its copy after demotion";
  }
}

TEST_F(ReplicationStateMachineTest, AppendBumpsVersionAndGuardsTheReplica) {
  repl().MaybeTick(now_);
  Window(10);
  Window(10);
  net_->RunToIdle();
  ASSERT_TRUE(repl().IsReplicated(key_));
  const auto replicas = repl().ReplicaNodes(key_);
  const sim::NodeIndex owner = net_->dht().OwnerOf(dht::HashKey(key_));
  const uint64_t before =
      net_->peer(0)->dht_peer()->AuthoritativeVersion(key_);
  ASSERT_TRUE(repl().CanServeReplica(key_, replicas[0], before));

  // An append at the owner bumps the authoritative version: every replica
  // is instantly stale — the guard fails and routing collapses to the
  // owner (kNoReplica = use the normal routed path).
  net_->dht().peer(owner)->store()->BumpPostingVersion(key_);
  const uint64_t after =
      net_->peer(0)->dht_peer()->AuthoritativeVersion(key_);
  ASSERT_NE(before, after);
  EXPECT_FALSE(repl().CanServeReplica(key_, replicas[0], after));
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(repl().RouteGet(key_), ReplicationManager::kNoReplica);
  }

  // The next hot window refreshes the copy; the replica serves again.
  Window(10);
  net_->RunToIdle();
  EXPECT_TRUE(repl().CanServeReplica(key_, replicas[0], after));
}

TEST_F(ReplicationStateMachineTest, RouteGetNeverPicksACrashedReplica) {
  repl().MaybeTick(now_);
  Window(10);
  Window(10);
  net_->RunToIdle();
  const auto replicas = repl().ReplicaNodes(key_);
  ASSERT_EQ(replicas.size(), 2u);
  net_->FailPeerAndStabilize(replicas[1]);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_NE(repl().RouteGet(key_), replicas[1]);
  }
}

TEST_F(ReplicationStateMachineTest, DisablingDemotesEverything) {
  repl().MaybeTick(now_);
  Window(10);
  Window(10);
  net_->RunToIdle();
  ASSERT_TRUE(repl().IsReplicated(key_));
  const uint64_t demotions_before = CounterValue("repl.demotions");
  repl().SetEnabled(false);
  net_->RunToIdle();
  EXPECT_FALSE(repl().IsReplicated(key_));
  EXPECT_EQ(repl().ReplicatedKeyCount(), 0u);
  EXPECT_GT(CounterValue("repl.demotions"), demotions_before);
  EXPECT_EQ(repl().RouteGet(key_), ReplicationManager::kNoReplica);
}

// ---------------------------------------------------------------------------
// End-to-end: replica-served query answers must be byte-identical to the
// unreplicated ground truth, across kDpp and the distributed block join.

constexpr const char* kQueries[] = {
    "//article//author",
    "//inproceedings//booktitle",
    "//author",
};

struct GroundTruth {
  std::map<std::string, std::vector<query::Answer>> base;
  std::map<std::string, std::vector<query::Answer>> extended;
};

std::vector<xml::Document> BaseCorpus() {
  xml::corpus::DblpOptions copt;
  copt.target_bytes = 100 << 10;
  return xml::corpus::GenerateDblp(copt);
}

std::vector<xml::Document> ExtraCorpus() {
  xml::corpus::DblpOptions copt;
  copt.seed = 77;
  copt.target_bytes = 50 << 10;
  return xml::corpus::GenerateDblp(copt);
}

KadopOptions ReplNetOptions(bool enabled) {
  KadopOptions opt;
  opt.peers = 10;
  opt.dht.repl.enabled = enabled;
  opt.dht.repl.replicas = 2;
  // Aggressive thresholds so real query load promotes within a few runs
  // (a query takes ~0.1s virtual, so the window must be shorter than that
  // for the lazy tick to close windows between queries); cooling only on
  // fully idle windows so copies stay sticky.
  opt.dht.repl.window_s = 0.05;
  opt.dht.repl.hot_gets_per_window = 1;
  opt.dht.repl.hot_windows = 1;
  opt.dht.repl.cool_gets_per_window = 0;
  opt.dht.repl.cool_windows = 100;
  return opt;
}

TEST(ReplicationQueryTest, ReplicaServedAnswersByteIdenticalToGroundTruth) {
  const auto docs = BaseCorpus();
  const auto extra = ExtraCorpus();
  std::vector<const xml::Document*> ptrs;
  for (const auto& d : docs) ptrs.push_back(&d);
  std::vector<const xml::Document*> extra_ptrs;
  for (const auto& d : extra) extra_ptrs.push_back(&d);

  query::QueryOptions qopt;
  qopt.strategy = query::QueryStrategy::kDpp;

  // Unreplicated ground truth, before and after the append batch.
  GroundTruth truth;
  {
    KadopNet net(ReplNetOptions(false));
    net.RegisterDocuments(docs);
    net.RegisterDocuments(extra);
    net.PublishAndWait(2, ptrs);
    for (const char* expr : kQueries) {
      auto r = net.QueryAndWait(5, expr, qopt);
      ASSERT_TRUE(r.ok()) << expr;
      truth.base[expr] = r.take().answers;
    }
    net.PublishAndWait(2, extra_ptrs);
    for (const char* expr : kQueries) {
      auto r = net.QueryAndWait(5, expr, qopt);
      ASSERT_TRUE(r.ok()) << expr;
      truth.extended[expr] = r.take().answers;
    }
  }

  // The replicated twin: identical corpus and query sequence, replication
  // promoting under the real query load.
  KadopNet net(ReplNetOptions(true));
  net.RegisterDocuments(docs);
  net.RegisterDocuments(extra);
  net.PublishAndWait(2, ptrs);

  const uint64_t replica_gets_before = CounterValue("repl.replica_gets");
  for (int round = 0; round < 8; ++round) {
    for (const char* expr : kQueries) {
      auto r = net.QueryAndWait(5, expr, qopt);
      ASSERT_TRUE(r.ok()) << expr;
      const auto got = r.take();
      EXPECT_TRUE(got.metrics.complete) << expr;
      EXPECT_FALSE(got.metrics.degraded) << expr;
      // Not just set equality: document-order answers, element for element.
      EXPECT_EQ(got.answers, truth.base.at(expr)) << expr << " round "
                                                  << round;
    }
  }
  // The load was heavy enough to promote, and replicas actually served.
  EXPECT_GT(net.dht().replication().ReplicatedKeyCount(), 0u)
      << "windows=" << CounterValue("repl.windows")
      << " tracked=" << net.dht().replication().tracker().tracked()
      << " promotions=" << CounterValue("repl.promotions")
      << " now=" << net.scheduler().Now();
  EXPECT_GT(CounterValue("repl.replica_gets"), replica_gets_before);

  // Append during replication: versions bump, every replica is stale until
  // re-copied, and no query may ever see the pre-append answer set (the
  // version-guard sibling of FaultedAppendIsVisibleToTheNextQuery).
  net.PublishAndWait(2, extra_ptrs);
  for (int round = 0; round < 4; ++round) {
    for (const char* expr : kQueries) {
      auto r = net.QueryAndWait(5, expr, qopt);
      ASSERT_TRUE(r.ok()) << expr;
      const auto got = r.take();
      EXPECT_TRUE(got.metrics.complete) << expr;
      EXPECT_EQ(got.answers, truth.extended.at(expr))
          << expr << " served stale post-append answers, round " << round;
    }
  }

  // The replaced per-key registry counters must not have come back: the
  // only load.key.* metrics are the tracker's own bounded pair.
  const auto snap = obs::MetricRegistry::Default().Snapshot();
  for (const auto& [name, value] : snap.counters) {
    if (name.rfind("load.key.", 0) != 0) continue;
    EXPECT_EQ(name, "load.key.evictions") << "unbounded per-key counter";
  }
  EXPECT_LE(net.dht().replication().tracker().tracked(),
            net.options().dht.repl.max_tracked_keys);
}

TEST(ReplicationQueryTest, BlockJoinAnswersUnchangedWithReplicationOn) {
  const auto docs = BaseCorpus();
  std::vector<const xml::Document*> ptrs;
  for (const auto& d : docs) ptrs.push_back(&d);

  query::QueryOptions qopt;
  qopt.strategy = query::QueryStrategy::kDppJoin;
  qopt.dpp_join_available = true;

  std::map<std::string, std::vector<query::Answer>> truth;
  {
    KadopOptions opt = ReplNetOptions(false);
    opt.dpp.max_block_postings = 256;  // force splits -> many holders
    KadopNet net(opt);
    net.RegisterDocuments(docs);
    net.PublishAndWait(2, ptrs);
    for (const char* expr : kQueries) {
      auto r = net.QueryAndWait(5, expr, qopt);
      ASSERT_TRUE(r.ok()) << expr;
      truth[expr] = r.take().answers;
    }
  }

  KadopOptions opt = ReplNetOptions(true);
  opt.dpp.max_block_postings = 256;
  KadopNet net(opt);
  net.RegisterDocuments(docs);
  net.PublishAndWait(2, ptrs);
  for (int round = 0; round < 8; ++round) {
    for (const char* expr : kQueries) {
      auto r = net.QueryAndWait(5, expr, qopt);
      ASSERT_TRUE(r.ok()) << expr;
      const auto got = r.take();
      EXPECT_TRUE(got.metrics.complete) << expr;
      EXPECT_FALSE(got.metrics.degraded) << expr;
      EXPECT_EQ(got.answers, truth.at(expr)) << expr;
    }
  }
}

// ---------------------------------------------------------------------------
// Crash contracts.

class ReplicationCrashTest : public ::testing::Test {
 protected:
  void SetUp() override {
    docs_ = BaseCorpus();
    KadopOptions opt;
    opt.peers = 10;
    opt.dht.repl.enabled = true;
    opt.dht.repl.replicas = 2;
    opt.dht.repl.window_s = 1.0;
    opt.dht.repl.hot_gets_per_window = 4;
    opt.dht.repl.hot_windows = 2;
    opt.dht.repl.cool_gets_per_window = 0;
    opt.dht.repl.cool_windows = 100;
    net_ = std::make_unique<KadopNet>(opt);
    net_->RegisterDocuments(docs_);
    std::vector<const xml::Document*> ptrs;
    for (const auto& d : docs_) ptrs.push_back(&d);
    net_->PublishAndWait(2, ptrs);
    key_ = index::LabelKey("author");

    // Deterministic promotion of the query's term key.
    auto& repl = net_->dht().replication();
    double now = 0.0;
    repl.MaybeTick(now);
    for (int w = 0; w < 2; ++w) {
      for (int i = 0; i < 10; ++i) repl.RecordKeyGet(key_);
      now += 1.5;
      repl.MaybeTick(now);
    }
    net_->RunToIdle();
    ASSERT_TRUE(repl.IsReplicated(key_));
  }

  std::vector<xml::Document> docs_;
  std::unique_ptr<KadopNet> net_;
  std::string key_;
};

TEST_F(ReplicationCrashTest, OwnerCrashAnswersFromReplicaNotDegraded) {
  query::QueryOptions qopt;
  qopt.strategy = query::QueryStrategy::kDpp;

  const sim::NodeIndex owner = net_->dht().OwnerOf(dht::HashKey(key_));
  const auto replicas = net_->dht().replication().ReplicaNodes(key_);
  ASSERT_EQ(replicas.size(), 2u);
  const sim::NodeIndex querier =
      owner == 5 ? static_cast<sim::NodeIndex>(6) : 5;

  auto baseline = net_->QueryAndWait(querier, "//author", qopt);
  ASSERT_TRUE(baseline.ok());
  const auto expected = baseline.take().answers;
  ASSERT_FALSE(expected.empty());

  // Kill the owner. The ring re-stabilizes: the key's new owner is its
  // first successor — exactly the first replica, which holds the installed
  // copy. The query must complete from it with the full answer set and
  // degraded=false: replication turned a data-loss crash into a handoff.
  net_->FailPeerAndStabilize(owner);
  EXPECT_EQ(net_->dht().OwnerOf(dht::HashKey(key_)), replicas[0]);

  auto after = net_->QueryAndWait(querier, "//author", qopt);
  ASSERT_TRUE(after.ok());
  const auto got = after.take();
  EXPECT_TRUE(got.metrics.complete);
  EXPECT_FALSE(got.metrics.degraded);
  EXPECT_EQ(got.answers, expected);
}

TEST_F(ReplicationCrashTest, ReplicaCrashMidPullFallsBackToOwner) {
  query::QueryOptions qopt;
  qopt.strategy = query::QueryStrategy::kDpp;
  qopt.fetch_retry.timeout_s = 0.5;
  qopt.fetch_retry.max_retries = 3;

  const sim::NodeIndex owner = net_->dht().OwnerOf(dht::HashKey(key_));
  const auto replicas = net_->dht().replication().ReplicaNodes(key_);
  ASSERT_EQ(replicas.size(), 2u);
  const sim::NodeIndex querier =
      owner == 5 ? static_cast<sim::NodeIndex>(6) : 5;

  auto baseline = net_->QueryAndWait(querier, "//author", qopt);
  ASSERT_TRUE(baseline.ok());
  const auto expected = baseline.take().answers;

  // Crash the first replica an instant after the query starts: any pull
  // routed to it is lost in flight, NACKed by the client's per-attempt
  // timeout, and re-rolled — the crashed node is filtered out, so the
  // retry lands at the owner (or the surviving replica).
  const double t0 = net_->scheduler().Now();
  sim::FaultOptions fopts;
  fopts.seed = FaultSeed();
  net_->EnableFaults(fopts,
                     {sim::CrashEvent{t0 + 0.005, replicas[0], /*up=*/false}});

  std::optional<query::QueryResult> result;
  ASSERT_TRUE(net_->SubmitQuery(querier, "//author", qopt,
                                [&](query::QueryResult r) {
                                  result = std::move(r);
                                })
                  .ok());
  // Virtual-time watchdog: the retry budget bounds every path.
  net_->scheduler().RunUntil(t0 + 60.0);
  ASSERT_TRUE(result.has_value()) << "query hung after replica crash";
  EXPECT_TRUE(result->metrics.complete);
  EXPECT_FALSE(result->metrics.degraded);
  EXPECT_EQ(result->answers, expected);
  net_->RunToIdle();

  // Routing never offers the dead node again.
  for (int i = 0; i < 1000; ++i) {
    EXPECT_NE(net_->dht().replication().RouteGet(key_), replicas[0]);
  }
}

// ---------------------------------------------------------------------------
// Same-seed determinism with replication enabled: the full transcript
// (trace spans with virtual timestamps, every counter movement) replays
// byte for byte.

struct ReplDeterminismOutcome {
  size_t answers = 0;
  size_t replicated_keys = 0;
  std::string trace;
  std::string metrics_delta;

  friend bool operator==(const ReplDeterminismOutcome&,
                         const ReplDeterminismOutcome&) = default;
};

ReplDeterminismOutcome RunReplDeterminismScenario(uint64_t seed) {
  auto& tracer = obs::Tracer::Default();
  tracer.SetEnabled(true);
  tracer.Clear();
  obs::MetricRegistry::Default().Reset();
  const obs::MetricsSnapshot base = obs::MetricRegistry::Default().Snapshot();

  const auto docs = BaseCorpus();
  std::vector<const xml::Document*> ptrs;
  for (const auto& d : docs) ptrs.push_back(&d);

  KadopNet net(ReplNetOptions(true));
  net.RegisterDocuments(docs);
  net.PublishAndWait(2, ptrs);

  sim::FaultOptions fopts;
  fopts.seed = seed;
  fopts.drop_p = 0.03;
  fopts.dup_p = 0.02;
  fopts.jitter_mean_s = 0.002;
  net.EnableFaults(fopts);

  query::QueryOptions qopt;
  qopt.strategy = query::QueryStrategy::kDpp;
  qopt.fetch_retry.timeout_s = 0.5;
  qopt.fetch_retry.max_retries = 3;

  ReplDeterminismOutcome out;
  for (int round = 0; round < 6; ++round) {
    auto r = net.QueryAndWait(5, "//article//author", qopt);
    EXPECT_TRUE(r.ok());
    if (r.ok()) out.answers = r.take().answers.size();
  }
  out.replicated_keys = net.dht().replication().ReplicatedKeyCount();
  net.RunToIdle();

  out.trace = tracer.DumpText();
  out.metrics_delta =
      obs::MetricRegistry::Default().Snapshot().DiffSince(base).ToText();
  return out;
}

TEST(ReplicationDeterminismTest, SameSeedRunsAreByteIdentical) {
  const ReplDeterminismOutcome a = RunReplDeterminismScenario(FaultSeed());
  const ReplDeterminismOutcome b = RunReplDeterminismScenario(FaultSeed());
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.metrics_delta, b.metrics_delta);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.trace.empty());
  EXPECT_GT(a.answers, 0u);
}

}  // namespace
}  // namespace kadop
