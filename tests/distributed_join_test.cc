// Distributed block-level twig join (kDppJoin): answers must be
// byte-identical to kDpp while the query peer's posting ingress collapses
// to result tuples, task formation stays within the sum of surviving
// per-term block counts, and a crashed holder mid-BlockJoinRequest
// degrades into a per-task local fallback instead of a hang.

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/kadop.h"
#include "dht/ring.h"
#include "index/dpp.h"
#include "index/terms.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/block_join.h"
#include "xml/corpus.h"

namespace kadop::query {
namespace {

using core::KadopNet;
using core::KadopOptions;

uint64_t FaultSeed() {
  const char* env = std::getenv("KADOP_FAULT_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 11;
}

class DistributedJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    xml::corpus::DblpOptions copt;
    copt.target_bytes = 150 << 10;
    copt.doc_bytes = 8 << 10;
    docs_ = xml::corpus::GenerateDblp(copt);

    KadopOptions opt;
    opt.peers = 12;
    opt.dpp.max_block_postings = 256;  // force splits -> many block holders
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

  std::vector<xml::Document> docs_;
  std::unique_ptr<KadopNet> net_;
};

constexpr const char* kQueries[] = {
    "//article//author",
    "//article//author[. contains 'Ullman']",
    "//article[//journal]//year",
    "//inproceedings//booktitle",
    "//author",
};

TEST_F(DistributedJoinTest, AnswersByteIdenticalToDpp) {
  // Not just set equality: tasks partition the document window into
  // disjoint ascending intervals, so the merged answer stream must
  // reproduce kDpp's document-order output element for element.
  for (const char* expr : kQueries) {
    QueryResult dpp = RunQuery(expr, QueryStrategy::kDpp);
    QueryResult djoin = RunQuery(expr, QueryStrategy::kDppJoin);
    EXPECT_TRUE(djoin.metrics.complete) << expr;
    EXPECT_FALSE(djoin.metrics.degraded) << expr;
    EXPECT_EQ(djoin.answers, dpp.answers) << expr;
    EXPECT_EQ(djoin.matched_docs, dpp.matched_docs) << expr;
  }
}

TEST_F(DistributedJoinTest, QueryPeerIngressReducedAndTasksBounded) {
  const char* expr = "//article//author";
  QueryResult dpp = RunQuery(expr, QueryStrategy::kDpp);
  QueryResult djoin = RunQuery(expr, QueryStrategy::kDppJoin);
  ASSERT_FALSE(djoin.answers.empty());

  // The query peer receives answer tuples, never posting lists: its
  // posting ingress must drop by at least 2x vs kDpp (here: to zero,
  // since no task fell back to a local join).
  EXPECT_GT(dpp.metrics.posting_wire_bytes, 0u);
  EXPECT_LE(djoin.metrics.posting_wire_bytes * 2,
            dpp.metrics.posting_wire_bytes);
  EXPECT_EQ(djoin.metrics.posting_wire_bytes, 0u);
  EXPECT_EQ(djoin.metrics.postings_received, 0u);

  // Task bound of Section 4.3: at most one task per surviving block
  // (kDpp's blocks_fetched counts exactly the surviving blocks).
  EXPECT_GT(djoin.metrics.join_tasks, 0u);
  EXPECT_LE(djoin.metrics.join_tasks, dpp.metrics.blocks_fetched);

  // All tasks ran remotely and shipped result tuples back.
  EXPECT_EQ(djoin.metrics.join_remote, djoin.metrics.join_tasks);
  EXPECT_EQ(djoin.metrics.join_local_fallback, 0u);
  EXPECT_GT(djoin.metrics.join_result_postings, 0u);
  EXPECT_EQ(djoin.metrics.effective_strategy, QueryStrategy::kDppJoin);
  // What arrives instead is the holders' answer streams, counted as result
  // ingress; kDpp receives none.
  EXPECT_GT(djoin.metrics.result_wire_bytes, 0u);
  EXPECT_LT(djoin.metrics.result_wire_bytes, dpp.metrics.posting_wire_bytes);
  EXPECT_EQ(dpp.metrics.result_wire_bytes, 0u);
}

TEST_F(DistributedJoinTest, HolderAccountingFoldsIntoQueryMetrics) {
  QueryResult djoin = RunQuery("//article//author", QueryStrategy::kDppJoin);
  // Holders fetched every surviving input block on the query's behalf.
  EXPECT_GT(djoin.metrics.blocks_fetched, 0u);
  const auto snap = obs::MetricRegistry::Default().Snapshot();
  auto counter = [&snap](const char* name) -> uint64_t {
    auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  };
  EXPECT_GT(counter("query.join.holder.tasks"), 0u);
  EXPECT_GT(counter("query.join.holder.ingress_postings"), 0u);
  EXPECT_GT(counter("query.join.holder.egress_result_bytes"), 0u);
}

TEST_F(DistributedJoinTest, CorruptReplyFallsBackLocally) {
  const char* expr = "//article//author";
  QueryResult dpp = RunQuery(expr, QueryStrategy::kDpp);

  // Every peer's app handler is replaced: the first BlockJoinRequest any
  // peer receives is answered with an answer stream that cannot decode (a
  // matched-doc count with nothing behind it); every other request goes to
  // the peer's own services, in KadopPeer's dispatch order.
  int corrupted = 0;
  for (sim::NodeIndex n = 0; n < net_->PeerCount(); ++n) {
    core::KadopPeer* peer = net_->peer(n);
    peer->dht_peer()->SetAppHandler([peer, &corrupted](
                                        const dht::AppRequest& request,
                                        sim::NodeIndex from) {
      const auto* req =
          dynamic_cast<const index::BlockJoinRequest*>(request.inner.get());
      if (req != nullptr && corrupted == 0) {
        ++corrupted;
        auto reply = std::make_shared<index::JoinResultMessage>();
        reply->query_id = req->query_id;
        reply->task = req->task;
        reply->answers = {0x7f};
        peer->dht_peer()->Reply(request.origin, request.req_id,
                                std::move(reply),
                                sim::TrafficCategory::kResult);
        return;
      }
      if (peer->dpp() != nullptr && peer->dpp()->HandleApp(request, from)) {
        return;
      }
      if (peer->reducer().HandleApp(request, from)) return;
      if (peer->query_client().HandleApp(request, from)) return;
      if (peer->block_join().HandleApp(request, from)) return;
      EXPECT_TRUE(peer->fundex().HandleApp(request, from))
          << "unexpected app message " << request.inner->TypeName();
    });
  }

  QueryResult djoin = RunQuery(expr, QueryStrategy::kDppJoin);
  EXPECT_EQ(corrupted, 1);
  // The undecodable reply is treated like a NACK: that one task is redone
  // at the query peer, and the answers are still kDpp's, byte for byte.
  EXPECT_EQ(djoin.metrics.join_local_fallback, 1u);
  EXPECT_EQ(djoin.metrics.join_remote + 1, djoin.metrics.join_tasks);
  EXPECT_TRUE(djoin.metrics.complete);
  EXPECT_TRUE(djoin.metrics.degraded);
  EXPECT_EQ(djoin.answers, dpp.answers);
  EXPECT_EQ(djoin.matched_docs, dpp.matched_docs);
  // The corrupt reply crossed the wire too: 48 header bytes + 1.
  EXPECT_GT(djoin.metrics.result_wire_bytes, 49u);
}

TEST_F(DistributedJoinTest, EmptyAndProvablyEmptyQueries) {
  QueryResult r = RunQuery("//article//nonexistenttag",
                           QueryStrategy::kDppJoin);
  EXPECT_TRUE(r.answers.empty());
  EXPECT_TRUE(r.matched_docs.empty());
  EXPECT_TRUE(r.metrics.complete);
}

TEST_F(DistributedJoinTest, AutoPicksDppJoinOnlyWhenAvailable) {
  QueryOptions options;
  options.strategy = QueryStrategy::kAuto;
  options.dpp_join_available = true;
  auto with_flag = net_->QueryAndWait(1, "//article//author", options);
  ASSERT_TRUE(with_flag.ok());
  // Uniform lists: the distributed join dominates kDpp on both objectives
  // (the largest list never moves), so kAuto picks it when peers run the
  // BlockJoinService...
  EXPECT_EQ(with_flag.value().metrics.effective_strategy,
            QueryStrategy::kDppJoin);

  // ...and plans exactly as before when they do not.
  options.dpp_join_available = false;
  auto without_flag = net_->QueryAndWait(1, "//article//author", options);
  ASSERT_TRUE(without_flag.ok());
  EXPECT_EQ(without_flag.value().metrics.effective_strategy,
            QueryStrategy::kDpp);
  EXPECT_EQ(with_flag.value().answers, without_flag.value().answers);
}

// kAuto plans from the directories kDpp and kDppJoin run on: one planning
// round, so on a quiescent network it answers exactly as fast as an
// explicit run of the strategy it picked.
TEST_F(DistributedJoinTest, AutoRunsAsFastAsItsPick) {
  for (const bool join : {true, false}) {
    QueryOptions options;
    options.strategy = QueryStrategy::kAuto;
    options.dpp_join_available = join;
    auto planned = net_->QueryAndWait(1, "//article//author", options);
    ASSERT_TRUE(planned.ok());
    const QueryMetrics& m = planned.value().metrics;
    ASSERT_EQ(m.effective_strategy,
              join ? QueryStrategy::kDppJoin : QueryStrategy::kDpp);
    options.strategy = m.effective_strategy;
    auto direct = net_->QueryAndWait(1, "//article//author", options);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(planned.value().answers, direct.value().answers);
    EXPECT_NEAR(m.ResponseTime(), direct.value().metrics.ResponseTime(),
                1e-9)
        << QueryStrategyName(m.effective_strategy);
  }
}

// The planning round is the directory round, whatever plan it picks.
TEST_F(DistributedJoinTest, AutoFetchesEachDirectoryOnce) {
  std::set<QueryStrategy> picked;
  for (const char* expr : kQueries) {
    const size_t terms = ParsePattern(expr).value().size();
    const uint64_t before = net_->Stats().dpp.dir_requests;
    QueryResult r = RunQuery(expr, QueryStrategy::kAuto);
    picked.insert(r.metrics.effective_strategy);
    EXPECT_EQ(net_->Stats().dpp.dir_requests - before, terms)
        << expr << " ran "
        << QueryStrategyName(r.metrics.effective_strategy);
  }
  // Both kinds of plan are covered: one that reuses the directories and
  // one that needs only their counts.
  EXPECT_TRUE(picked.count(QueryStrategy::kDppJoin));
  EXPECT_TRUE(picked.count(QueryStrategy::kSubQueryReducer));
}

// `explain` and kAuto share one pick, ties included: under kTraffic the
// baseline and kDpp always tie on bytes.
TEST_F(DistributedJoinTest, ExplainNamesTheStrategyAutoRuns) {
  for (const auto objective : {QueryOptions::Objective::kTraffic,
                               QueryOptions::Objective::kTime}) {
    for (const bool join : {false, true}) {
      for (const char* expr : kQueries) {
        QueryOptions options;
        options.strategy = QueryStrategy::kAuto;
        options.objective = objective;
        options.dpp_join_available = join;
        auto explained = net_->ExplainQueryAndWait(1, expr, options);
        ASSERT_TRUE(explained.ok()) << explained.status().ToString();
        auto ran = net_->QueryAndWait(1, expr, options);
        ASSERT_TRUE(ran.ok());
        const std::string line =
            "auto would run: " +
            std::string(QueryStrategyName(
                ran.value().metrics.effective_strategy)) +
            "\n";
        EXPECT_NE(explained.value().find(line), std::string::npos)
            << explained.value();
      }
    }
  }
}

// A term owner that never answers makes `explain` return a Status naming
// the term, with or without a retry policy, instead of aborting.
TEST_F(DistributedJoinTest, ExplainReportsAnUnreachableTerm) {
  const sim::NodeIndex owner = net_->dht().OwnerOf(dht::HashKey("l:author"));
  net_->dht().FailPeer(owner);  // no re-stabilization: routes hit the corpse
  const sim::NodeIndex at = (owner + 1) % net_->PeerCount();
  QueryOptions options;
  auto silent = net_->ExplainQueryAndWait(at, "//article//author", options);
  ASSERT_FALSE(silent.ok());
  EXPECT_EQ(silent.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(silent.status().ToString().find("'l:author' (no reply)"),
            std::string::npos)
      << silent.status().ToString();
  options.fetch_retry.timeout_s = 0.5;
  auto retried = net_->ExplainQueryAndWait(at, "//article//author", options);
  ASSERT_FALSE(retried.ok());
  EXPECT_NE(retried.status().ToString().find(
                "'l:author' (retry budget exhausted)"),
            std::string::npos)
      << retried.status().ToString();
}

// A crashed term owner under a retry policy: kAuto never hangs, and
// finishes explicitly degraded and incomplete, whichever plan the other
// terms' counts would have picked.
TEST_F(DistributedJoinTest, AutoWithCrashedTermOwnerFinishesDegraded) {
  const sim::NodeIndex owner = net_->dht().OwnerOf(dht::HashKey("l:author"));
  net_->dht().FailPeer(owner);
  const sim::NodeIndex at = (owner + 1) % net_->PeerCount();
  for (const char* expr : kQueries) {
    if (std::string_view(expr).find("author") == std::string_view::npos) {
      continue;
    }
    QueryOptions options;
    options.strategy = QueryStrategy::kAuto;
    options.dpp_join_available = true;
    options.fetch_retry.timeout_s = 0.5;
    auto r = net_->QueryAndWait(at, expr, options);
    ASSERT_TRUE(r.ok()) << expr << ": " << r.status().ToString();
    EXPECT_TRUE(r.value().metrics.degraded) << expr;
    EXPECT_FALSE(r.value().metrics.complete) << expr;
    EXPECT_TRUE(r.value().answers.empty()) << expr;
  }
}

TEST_F(DistributedJoinTest, CostModelOffersDppJoinOnlyWhenAvailable) {
  TreePattern pattern = ParsePattern("//article//author").take();
  QueryOptions options;
  const std::vector<uint64_t> counts{1000, 5000};
  auto has_join = [&](const std::vector<StrategyCostEstimate>& costs) {
    for (const auto& c : costs) {
      if (c.strategy == QueryStrategy::kDppJoin) return true;
    }
    return false;
  };
  EXPECT_FALSE(has_join(EstimateStrategyCosts(pattern, counts, options)));
  options.dpp_join_available = true;
  const auto costs = EstimateStrategyCosts(pattern, counts, options);
  ASSERT_TRUE(has_join(costs));
  for (const auto& c : costs) {
    if (c.strategy != QueryStrategy::kDppJoin) continue;
    // The largest list never moves: only the smaller lists' bytes remain.
    for (const auto& other : costs) {
      if (other.strategy == QueryStrategy::kDpp) {
        EXPECT_LT(c.bytes, other.bytes);
        EXPECT_LT(c.bottleneck_bytes, other.bottleneck_bytes);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The short-pull rule shared by kDpp, the holder and the local fallback.

index::Posting At(uint32_t doc, uint32_t start) {
  return index::Posting{0, doc, {start, start + 1, 1}};
}

// Owner hints: after the directory round, every read of a term goes one
// hop to the node its directory reply named. With every term unpartitioned
// (each directory is one block 0 whose holder is the term owner), a
// query's routed hops on a quiescent network are exactly the directory
// round's plus one per hinted send.
TEST(OwnerHintTest, ReadsAfterTheDirectoryRoundTakeOneHop) {
  xml::corpus::DblpOptions copt;
  copt.target_bytes = 150 << 10;
  copt.doc_bytes = 8 << 10;
  const std::vector<xml::Document> docs = xml::corpus::GenerateDblp(copt);
  KadopOptions opt;
  opt.peers = 16;
  KadopNet net(opt);
  net.RegisterDocuments(docs);
  std::vector<const xml::Document*> ptrs;
  for (const auto& d : docs) ptrs.push_back(&d);
  net.PublishAndWait(2, ptrs);

  constexpr sim::NodeIndex kQuerier = 1;
  auto& registry = obs::MetricRegistry::Default();
  const obs::Counter* hops = registry.GetCounter("dht.route_hops");
  const obs::Counter* sends = registry.GetCounter("dht.hint.sends");
  const obs::Counter* forwards = registry.GetCounter("dht.hint.forwards");
  auto run = [&](const char* expr, QueryStrategy strategy) {
    QueryOptions options;
    options.strategy = strategy;
    options.dpp_join_available = true;
    auto result = net.QueryAndWait(kQuerier, expr, options);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.take();
  };

  for (const char* expr : {"//article//author", "//article[//journal]//year",
                           "//inproceedings//booktitle"}) {
    // The directory round alone, from the querier, as the query runs it.
    const TreePattern pattern = ParsePattern(expr).take();
    const uint64_t hops_before_round = hops->value();
    for (size_t n = 0; n < pattern.size(); ++n) {
      const std::string term = pattern.node(n).TermKey();
      index::DppManager::FetchDirectory(
          net.peer(kQuerier)->dht_peer(), term,
          [term](Status st, std::vector<index::DppBlockInfo> blocks) {
            EXPECT_TRUE(st.ok());
            ASSERT_EQ(blocks.size(), 1u) << term;
            EXPECT_EQ(blocks[0].key, term);
            EXPECT_TRUE(blocks[0].holder.has_value());
          });
    }
    net.RunToIdle();
    const uint64_t round_hops = hops->value() - hops_before_round;
    ASSERT_GT(round_hops, 0u) << expr;

    const QueryResult dpp = run(expr, QueryStrategy::kDpp);
    ASSERT_FALSE(dpp.answers.empty()) << expr;
    for (QueryStrategy strategy :
         {QueryStrategy::kDppJoin, QueryStrategy::kSubQueryReducer}) {
      const uint64_t hops0 = hops->value();
      const uint64_t sends0 = sends->value();
      const uint64_t forwards0 = forwards->value();
      const QueryResult r = run(expr, strategy);
      const std::string what =
          std::string(expr) + " " + std::string(QueryStrategyName(strategy));
      EXPECT_TRUE(r.metrics.complete) << what;
      EXPECT_FALSE(r.metrics.degraded) << what;
      EXPECT_EQ(r.answers, dpp.answers) << what;
      EXPECT_EQ(r.matched_docs, dpp.matched_docs) << what;
      const uint64_t hinted = sends->value() - sends0;
      EXPECT_GT(hinted, 0u) << what;
      EXPECT_EQ(forwards->value() - forwards0, 0u) << what;
      EXPECT_EQ(hops->value() - hops0, round_hops + hinted) << what;
    }
  }
}

TEST(ShortPullTest, OneRuleForEveryTrimShape) {
  index::DppBlockInfo block;
  block.key = "block";
  block.cond = {At(10, 5), At(20, 5)};
  block.count = 8;
  const index::Condition whole{At(0, 0), At(99, 0)};
  const index::Condition lower{At(15, 0), At(99, 0)};   // cuts the low end
  const index::Condition upper{At(0, 0), At(15, 0)};    // cuts the high end
  const index::Condition inside{At(12, 0), At(18, 0)};  // cuts both ends
  struct Row {
    const char* name;
    index::Condition window;
    size_t got;
    bool complete;
    bool short_pull;
  };
  const Row rows[] = {
      {"untrimmed full", whole, 8, true, false},
      {"untrimmed short", whole, 7, true, true},
      {"lower-trimmed empty", lower, 0, true, true},
      {"lower-trimmed non-empty", lower, 1, true, false},
      {"upper-trimmed empty", upper, 0, true, true},
      {"upper-trimmed non-empty", upper, 1, true, false},
      {"both ends trimmed, empty (unverifiable)", inside, 0, true, false},
      {"timed out", whole, 8, false, true},
      {"timed out, both ends trimmed", inside, 0, false, true},
  };
  for (const Row& row : rows) {
    const dht::GetSpec spec = BlockPullSpec(block, row.window, {});
    EXPECT_FALSE(spec.pipelined) << row.name;
    EXPECT_EQ(ShortPull(block, spec, row.got, row.complete), row.short_pull)
        << row.name;
  }
  // The clamp: the spec never reaches outside the block or the window.
  const dht::GetSpec spec = BlockPullSpec(block, lower, {});
  EXPECT_EQ(spec.key, "block");
  EXPECT_EQ(spec.lo, lower.lo);
  EXPECT_EQ(spec.hi, block.cond.hi);
}

// A kDpp pull trimmed at one end by the [min, max] window that comes back
// empty from a crashed holder's data-less successor has lost data: with a
// retry policy the query must say so instead of passing as complete.
TEST(ShortPullTest, KDppFlagsOneEndTrimmedEmptyPull) {
  xml::corpus::DblpOptions copt;
  copt.target_bytes = 150 << 10;
  auto docs = xml::corpus::GenerateDblp(copt);
  KadopOptions opt;
  opt.peers = 12;
  opt.dpp.max_block_postings = 256;
  KadopNet net(opt);
  std::vector<const xml::Document*> ptrs;
  for (const auto& d : docs) ptrs.push_back(&d);
  constexpr sim::NodeIndex kQuerier = 5;
  net.PublishAndWait(2, ptrs);

  // The rare word narrows the [min, max] window, so the first and last
  // 'author' blocks are each trimmed at one end.
  constexpr const char* kQuery = "//author[. contains 'Ullman']";
  TreePattern pattern = ParsePattern(kQuery).take();
  // Publishing is over, so only the querier and the directory owners
  // must survive.
  std::set<sim::NodeIndex> protected_nodes{kQuerier};
  std::vector<std::vector<index::DppBlockInfo>> dirs;
  for (size_t n = 0; n < pattern.size(); ++n) {
    const std::string term = pattern.node(n).TermKey();
    protected_nodes.insert(net.dht().OwnerOf(dht::HashKey(term)));
    index::DppManager::FetchDirectory(
        net.peer(0)->dht_peer(), term,
        [&](Status st, std::vector<index::DppBlockInfo> blocks) {
          EXPECT_TRUE(st.ok());
          dirs.push_back(std::move(blocks));
        });
    net.RunToIdle();
  }
  ASSERT_EQ(dirs.size(), pattern.size());
  // The executor's window: largest per-term minimum to smallest maximum.
  index::DocId lo{0, 0};
  index::DocId hi{UINT32_MAX, UINT32_MAX};
  for (const auto& dir : dirs) {
    ASSERT_FALSE(dir.empty());
    if (lo < dir.front().cond.MinDoc()) lo = dir.front().cond.MinDoc();
    if (dir.back().cond.MaxDoc() < hi) hi = dir.back().cond.MaxDoc();
  }
  const index::Condition window{
      index::Posting{lo.peer, lo.doc, {0, 0, 0}},
      index::Posting{hi.peer, hi.doc, {UINT32_MAX, UINT32_MAX, UINT16_MAX}}};

  // Victim: a holder whose every pulled block is trimmed at exactly one
  // end, so only the one-end-trimmed clause can notice its loss.
  std::map<sim::NodeIndex, bool> only_one_end_trimmed;
  for (const auto& dir : dirs) {
    for (const auto& b : dir) {
      if (!b.cond.Intersects(window)) continue;
      const bool one_end =
          (b.cond.lo < window.lo) != (window.hi < b.cond.hi);
      const sim::NodeIndex holder = net.dht().OwnerOf(dht::HashKey(b.key));
      auto [it, fresh] = only_one_end_trimmed.emplace(holder, one_end);
      if (!fresh) it->second = it->second && one_end;
    }
  }
  std::optional<sim::NodeIndex> victim;
  for (const auto& [holder, ok] : only_one_end_trimmed) {
    if (ok && protected_nodes.count(holder) == 0) {
      victim = holder;
      break;
    }
  }
  ASSERT_TRUE(victim.has_value()) << "no holder of only one-end-trimmed blocks";

  // Crash it for good: its range passes to a data-less successor that
  // answers the trimmed pull with an empty, complete list.
  const double t0 = net.scheduler().Now();
  net.EnableFaults(sim::FaultOptions{},
                   {sim::CrashEvent{t0, *victim, /*up=*/false}});
  QueryOptions qopt;
  qopt.strategy = QueryStrategy::kDpp;
  qopt.fetch_retry.timeout_s = 0.5;
  qopt.fetch_retry.max_retries = 3;
  std::optional<QueryResult> result;
  ASSERT_TRUE(net.SubmitQuery(kQuerier, kQuery, qopt, [&](QueryResult r) {
                   result = std::move(r);
                 }).ok());
  net.scheduler().RunUntil(t0 + 60.0);
  ASSERT_TRUE(result.has_value()) << "kDpp hung after the crash";
  EXPECT_FALSE(result->metrics.complete);
  EXPECT_TRUE(result->metrics.degraded);
}

// ---------------------------------------------------------------------------
// Chaos: crash a home-block holder mid-BlockJoinRequest.

struct JoinChaosOutcome {
  bool finished_in_time = false;
  bool complete = false;
  bool degraded = false;
  bool answers_match_ground_truth = false;
  uint64_t tasks = 0;
  uint64_t remote = 0;
  uint64_t local_fallback = 0;
  std::string trace;
  std::string metrics_delta;

  friend bool operator==(const JoinChaosOutcome&,
                         const JoinChaosOutcome&) = default;
};

/// The single-term pattern makes every join task have exactly one input
/// block — its home — so the crashed holder's blocks are touched only by
/// the tasks homed there: those tasks (and only those) must fall back to
/// a query-side join, and with the holder revived inside the fallback's
/// retry window the final answers equal the fault-free ground truth.
JoinChaosOutcome RunJoinChaosScenario(uint64_t seed) {
  auto& tracer = obs::Tracer::Default();
  tracer.SetEnabled(true);
  tracer.Clear();
  obs::MetricRegistry::Default().Reset();
  const obs::MetricsSnapshot base = obs::MetricRegistry::Default().Snapshot();

  xml::corpus::DblpOptions copt;
  copt.target_bytes = 150 << 10;
  auto docs = xml::corpus::GenerateDblp(copt);

  KadopOptions opt;
  opt.peers = 12;
  opt.dpp.max_block_postings = 256;
  KadopNet net(opt);
  std::vector<const xml::Document*> ptrs;
  for (const auto& d : docs) ptrs.push_back(&d);
  net.PublishAndWait(2, ptrs);

  constexpr sim::NodeIndex kQuerier = 5;
  constexpr const char* kQuery = "//author";

  query::QueryOptions qopt;
  qopt.strategy = query::QueryStrategy::kDppJoin;
  qopt.dpp_join_available = true;

  // Fault-free ground truth.
  std::vector<Answer> expected;
  {
    auto baseline = net.QueryAndWait(kQuerier, kQuery, qopt);
    EXPECT_TRUE(baseline.ok());
    if (baseline.ok()) expected = baseline.take().answers;
  }
  EXPECT_FALSE(expected.empty());

  // Victim: the holder of an interior 'author' block — the home of the
  // join tasks covering that document interval.
  const std::string term = index::LabelKey("author");
  std::set<sim::NodeIndex> protected_nodes{2, kQuerier,
                                           net.dht().OwnerOf(
                                               dht::HashKey(term))};
  std::optional<sim::NodeIndex> victim;
  std::vector<index::DppBlockInfo> dir;
  index::DppManager::FetchDirectory(
      net.peer(0)->dht_peer(), term,
      [&](Status st, std::vector<index::DppBlockInfo> blocks) {
        EXPECT_TRUE(st.ok());
        dir = std::move(blocks);
      });
  net.RunToIdle();
  for (size_t i = 1; i + 1 < dir.size() && !victim.has_value(); ++i) {
    const sim::NodeIndex holder = net.dht().OwnerOf(dht::HashKey(dir[i].key));
    if (protected_nodes.count(holder) > 0) continue;
    victim = holder;
  }
  EXPECT_TRUE(victim.has_value()) << "corpus too small to pick a victim";
  JoinChaosOutcome out;
  if (!victim.has_value()) return out;

  // Crash mid-request. The ring re-stabilizes around the crash, so the
  // victim's key range is inherited by a data-less successor that answers
  // pulls with empty-but-"complete" lists: the holder's directory check
  // catches that and NACKs (complete=false), which forces the affected
  // tasks onto the query-side fallback. The fallback's own verified
  // re-pulls out-wait the outage: the victim revives at t0+1.0, rejoins
  // the ring with its store intact, and the second fallback attempt
  // (~t0+1.1) recovers the full data.
  sim::FaultOptions fopts;
  fopts.seed = seed;
  fopts.drop_p = 0.05;
  fopts.dup_p = 0.02;
  fopts.jitter_mean_s = 0.002;
  const double t0 = net.scheduler().Now();
  net.EnableFaults(fopts,
                   {sim::CrashEvent{t0 + 0.02, *victim, /*up=*/false},
                    sim::CrashEvent{t0 + 1.0, *victim, /*up=*/true}});

  qopt.fetch_retry.timeout_s = 0.5;
  qopt.fetch_retry.max_retries = 3;
  std::optional<query::QueryResult> result;
  EXPECT_TRUE(net.SubmitQuery(kQuerier, kQuery, qopt,
                              [&](query::QueryResult r) {
                                result = std::move(r);
                              })
                  .ok());
  // Virtual-time watchdog: every path is bounded by the retry budget, so
  // the query must resolve far earlier than this — crash or no crash.
  net.scheduler().RunUntil(t0 + 60.0);
  out.finished_in_time = result.has_value();
  EXPECT_TRUE(out.finished_in_time) << "kDppJoin hung under faults";
  if (result.has_value()) {
    out.complete = result->metrics.complete;
    out.degraded = result->metrics.degraded;
    out.tasks = result->metrics.join_tasks;
    out.remote = result->metrics.join_remote;
    out.local_fallback = result->metrics.join_local_fallback;
    out.answers_match_ground_truth = result->answers == expected;
    // Exact contract: the crash forced at least one per-task fallback,
    // the run says so (degraded), and the answers are still the complete
    // fault-free set (complete).
    EXPECT_GE(out.local_fallback, 1u);
    EXPECT_EQ(out.remote + out.local_fallback, out.tasks);
    EXPECT_TRUE(out.degraded);
    EXPECT_TRUE(out.complete);
    EXPECT_TRUE(out.answers_match_ground_truth);
  }
  net.RunToIdle();

  out.trace = tracer.DumpText();
  out.metrics_delta =
      obs::MetricRegistry::Default().Snapshot().DiffSince(base).ToText();
  return out;
}

TEST(DistributedJoinChaosTest, HolderCrashFallsBackPerTask) {
  const JoinChaosOutcome out = RunJoinChaosScenario(FaultSeed());
  EXPECT_TRUE(out.finished_in_time);
  EXPECT_TRUE(out.answers_match_ground_truth);
}

TEST(DistributedJoinChaosTest, SameSeedRunsAreByteIdentical) {
  const JoinChaosOutcome a = RunJoinChaosScenario(FaultSeed());
  const JoinChaosOutcome b = RunJoinChaosScenario(FaultSeed());
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.metrics_delta, b.metrics_delta);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.trace.empty());
}

}  // namespace
}  // namespace kadop::query
