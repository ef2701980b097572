// Distributed block-level twig join (kDppJoin): answers must be
// byte-identical to kDpp while the query peer's posting ingress collapses
// to result tuples, task formation stays within the sum of surviving
// per-term block counts, and a crashed holder mid-BlockJoinRequest
// degrades into a per-task local fallback instead of a hang.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "core/kadop.h"
#include "dht/ring.h"
#include "index/dpp.h"
#include "index/publisher.h"
#include "index/terms.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/block_join.h"
#include "query/local_eval.h"
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
    // Selective, and every term is a single block: no owner gathers.
    "//dblp//incollection//\"graph\"",
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
  EXPECT_GT(snap.CounterValue("query.join.holder.tasks"), 0u);
  EXPECT_GT(snap.CounterValue("query.join.holder.ingress_postings"), 0u);
  EXPECT_GT(snap.CounterValue("query.join.holder.egress_result_bytes"), 0u);
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
// explicit run of the strategy it picked. The querier reads the pattern
// once first, so both runs find its owner cache equally warm.
TEST_F(DistributedJoinTest, AutoRunsAsFastAsItsPick) {
  RunQuery("//article//author", QueryStrategy::kDpp);
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
  const obs::Counter* dir_requests =
      obs::MetricRegistry::Default().GetCounter("dpp.dir_requests");
  std::set<QueryStrategy> picked;
  for (const char* expr : kQueries) {
    const size_t terms = ParsePattern(expr).value().size();
    const uint64_t before = dir_requests->value();
    QueryResult r = RunQuery(expr, QueryStrategy::kAuto);
    picked.insert(r.metrics.effective_strategy);
    EXPECT_EQ(dir_requests->value() - before, terms)
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

// `explain` lists the tasks a kDppJoin run dispatches, one line each with
// its window and home block, when kDppJoin is a candidate.
TEST_F(DistributedJoinTest, ExplainListsTheJoinTasks) {
  QueryOptions options;
  options.dpp_join_available = true;
  for (const char* expr : kQueries) {
    auto explained = net_->ExplainQueryAndWait(1, expr, options);
    ASSERT_TRUE(explained.ok()) << explained.status().ToString();
    const std::string& text = explained.value();
    const QueryResult djoin = RunQuery(expr, QueryStrategy::kDppJoin);
    const std::string header =
        "dpp-join tasks: " + std::to_string(djoin.metrics.join_tasks) + "\n";
    EXPECT_NE(text.find(header), std::string::npos) << text;
    size_t homes = 0;
    for (size_t at = text.find(" home "); at != std::string::npos;
         at = text.find(" home ", at + 1)) {
      ++homes;
    }
    EXPECT_EQ(homes, djoin.metrics.join_tasks) << text;
  }
  options.dpp_join_available = false;
  auto explained = net_->ExplainQueryAndWait(1, kQueries[0], options);
  ASSERT_TRUE(explained.ok());
  EXPECT_EQ(explained.value().find("dpp-join tasks"), std::string::npos);
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
// The kDppJoin task planner: windows cut at block ends, each task homed at
// the input block expected to hold the most of its window.

/// A block of `count` postings from publisher `peer`, docs `lo`..`hi`.
index::DppBlockInfo Block(const std::string& key, uint32_t peer, uint32_t lo,
                          uint32_t hi, uint64_t count) {
  index::DppBlockInfo b;
  b.key = key;
  b.cond = {index::Posting{peer, lo, {1, 2, 1}},
            index::Posting{peer, hi, {1, 2, 1}}};
  b.count = count;
  return b;
}

/// A block whose documents run from (lo_peer, lo) to (hi_peer, hi).
index::DppBlockInfo SpanBlock(const std::string& key, uint32_t lo_peer,
                              uint32_t lo, uint32_t hi_peer, uint32_t hi,
                              uint64_t count) {
  index::DppBlockInfo b = Block(key, lo_peer, lo, lo, count);
  b.cond.hi = index::Posting{hi_peer, hi, {1, 2, 1}};
  return b;
}

index::Condition Docs(uint32_t peer, uint32_t lo, uint32_t hi) {
  return {index::Posting{peer, lo, {0, 0, 0}},
          index::Posting{peer, hi, {UINT32_MAX, UINT32_MAX, UINT16_MAX}}};
}

const index::DppBlockInfo& Home(const JoinTaskPlan& task) {
  return task.inputs[task.home_node][task.home_block];
}

// A 1000-posting block over docs 0..999 holds about a tenth of each
// 100-document window; each window's 300-posting block holds all of its
// own. The count rule would home every task at the big block and pull
// every small one to it.
TEST(JoinTaskPlanTest, BigBlockNeverHomesAWindowItBarelyCovers) {
  std::vector<std::vector<index::DppBlockInfo>> blocks(2);
  blocks[0].push_back(Block("big", 2, 0, 999, 1000));
  for (uint32_t w = 0; w < 10; ++w) {
    blocks[1].push_back(
        Block("small" + std::to_string(w), 2, w * 100, w * 100 + 99, 300));
  }
  const auto tasks = PlanJoinTasks(blocks, Docs(2, 0, 999));
  ASSERT_EQ(tasks.size(), 10u);
  for (size_t t = 0; t < tasks.size(); ++t) {
    EXPECT_EQ(tasks[t].home_node, 1u) << t;
    EXPECT_EQ(Home(tasks[t]).key, "small" + std::to_string(t));
    EXPECT_DOUBLE_EQ(tasks[t].home_postings, 300.0);
    EXPECT_DOUBLE_EQ(InWindowPostings(blocks[0][0], tasks[t].window), 100.0);
  }
}

TEST(JoinTaskPlanTest, InWindowPostingsScalesByCoveredDocuments) {
  const index::DppBlockInfo b = Block("b", 2, 100, 199, 400);
  EXPECT_DOUBLE_EQ(InWindowPostings(b, Docs(2, 0, 999)), 400.0);
  EXPECT_DOUBLE_EQ(InWindowPostings(b, Docs(2, 150, 999)), 200.0);
  EXPECT_DOUBLE_EQ(InWindowPostings(b, Docs(2, 100, 100)), 4.0);
  EXPECT_DOUBLE_EQ(InWindowPostings(b, Docs(2, 200, 300)), 0.0);
  EXPECT_DOUBLE_EQ(InWindowPostings(b, Docs(3, 0, 999)), 0.0);
}

TEST(JoinTaskPlanTest, TiesGoToTheFirstBlockSeen) {
  // Equal estimates across nodes: node 0 wins.
  std::vector<std::vector<index::DppBlockInfo>> blocks(2);
  blocks[0].push_back(Block("a", 2, 0, 99, 50));
  blocks[1].push_back(Block("b", 2, 0, 99, 50));
  auto tasks = PlanJoinTasks(blocks, Docs(2, 0, 99));
  ASSERT_EQ(tasks.size(), 1u);
  EXPECT_EQ(Home(tasks[0]).key, "a");
  // Equal estimates within one node (overlapping random-split blocks): the
  // first in directory order wins.
  blocks[0] = {Block("a", 2, 0, 99, 10)};
  blocks[1] = {Block("b1", 2, 0, 99, 50), Block("b2", 2, 0, 99, 50)};
  tasks = PlanJoinTasks(blocks, Docs(2, 0, 99));
  ASSERT_EQ(tasks.size(), 1u);
  EXPECT_EQ(tasks[0].home_node, 1u);
  EXPECT_EQ(tasks[0].home_block, 0u);
  EXPECT_EQ(Home(tasks[0]).key, "b1");
}

TEST(JoinTaskPlanTest, AllZeroEstimatesStillGetAValidHome) {
  std::vector<std::vector<index::DppBlockInfo>> blocks(2);
  blocks[0].push_back(Block("a", 2, 0, 99, 0));
  blocks[1].push_back(Block("b", 2, 0, 99, 0));
  const auto tasks = PlanJoinTasks(blocks, Docs(2, 0, 99));
  ASSERT_EQ(tasks.size(), 1u);
  EXPECT_EQ(tasks[0].home_node, 0u);
  EXPECT_EQ(tasks[0].home_block, 0u);
  EXPECT_EQ(Home(tasks[0]).key, "a");
  EXPECT_EQ(tasks[0].home_postings, 0.0);
}

// Seeded random staggered splits: the windows partition the query window
// in document order at block ends, each task's inputs are exactly the
// blocks that meet its window, no task lacks a node, tasks <= sum(m_i),
// and the home is the first input with the largest estimate.
TEST(JoinTaskPlanTest, WindowsInputsAndTaskBoundHold) {
  Rng rng(7);
  for (int round = 0; round < 50; ++round) {
    const size_t nodes = 1 + rng.Uniform(3);
    std::vector<std::vector<index::DppBlockInfo>> blocks(nodes);
    size_t total = 0;
    for (size_t n = 0; n < nodes; ++n) {
      uint32_t doc = static_cast<uint32_t>(rng.Uniform(20));
      const size_t m = 1 + rng.Uniform(6);
      for (size_t i = 0; i < m; ++i) {
        const uint32_t end = doc + static_cast<uint32_t>(rng.Uniform(40));
        blocks[n].push_back(Block(std::to_string(n) + ":" + std::to_string(i),
                                  2, doc, end, 1 + rng.Uniform(500)));
        doc = end + 1 + static_cast<uint32_t>(rng.Uniform(3));
        ++total;
      }
    }
    DppBlockSelection selection = SelectDppBlocks(blocks);
    if (!selection.viable) continue;
    const auto tasks = PlanJoinTasks(selection.blocks, selection.window);
    EXPECT_LE(tasks.size(), total);
    const index::Condition* previous = nullptr;
    for (const JoinTaskPlan& task : tasks) {
      EXPECT_FALSE(task.window.Empty());
      EXPECT_TRUE(task.window.SubsetOf(selection.window));
      if (previous != nullptr) {
        EXPECT_TRUE(previous->Before(task.window));
      }
      previous = &task.window;
      double best = -1;
      size_t best_node = 0;
      size_t best_block = 0;
      for (size_t n = 0; n < nodes; ++n) {
        std::vector<std::string> expected;
        for (const auto& b : selection.blocks[n]) {
          if (b.cond.Intersects(task.window)) expected.push_back(b.key);
        }
        std::vector<std::string> got;
        for (size_t i = 0; i < task.inputs[n].size(); ++i) {
          const auto& b = task.inputs[n][i];
          got.push_back(b.key);
          if (InWindowPostings(b, task.window) > best) {
            best = InWindowPostings(b, task.window);
            best_node = n;
            best_block = i;
          }
        }
        EXPECT_FALSE(got.empty());
        EXPECT_EQ(got, expected);
      }
      EXPECT_EQ(task.home_node, best_node);
      EXPECT_EQ(task.home_block, best_block);
      EXPECT_EQ(task.home_postings, best);
    }
  }
}

// Four publishers of 100 documents each. 'x' has 5 postings per
// document in two blocks that span publishers; 'y' has one posting per
// document of publishers 1-3 in one block and two per document of
// publisher 4 in two. Documents are linearized as peer * 2^32 + doc, so a
// window that crosses a publisher boundary gives a spanning block the
// share of the boundaries it covers: there the estimate tracks the true
// in-window count, and the block with the most in-window postings is
// home. A window inside one publisher gives a spanning block almost
// nothing, so a block inside that publisher is home even when the
// spanning block holds more of the window: the last window's home is
// y's 100-posting block, where x's block holds 250.
TEST(JoinTaskPlanTest, MultiPublisherWindowsPickByLinearizedShare) {
  std::vector<std::vector<index::DppBlockInfo>> blocks(2);
  blocks[0] = {SpanBlock("x0", 1, 0, 2, 49, 750),
               SpanBlock("x1", 2, 50, 4, 99, 1250)};
  blocks[1] = {SpanBlock("y0", 1, 0, 3, 99, 300), Block("y1", 4, 0, 49, 100),
               Block("y2", 4, 50, 99, 100)};
  const index::Condition window{index::Posting{1, 0, {0, 0, 0}},
                                index::Posting{4, 99, {1, 2, 1}}};
  const auto tasks = PlanJoinTasks(blocks, window);
  // Cuts at (2,49), (3,99), (4,49) and (4,99).
  ASSERT_EQ(tasks.size(), 4u);
  // (1,0)..(2,49): x0 holds 750, y0 150.
  EXPECT_EQ(Home(tasks[0]).key, "x0");
  EXPECT_DOUBLE_EQ(tasks[0].home_postings, 750.0);
  EXPECT_NEAR(InWindowPostings(blocks[1][0], tasks[0].window), 150.0, 1e-6);
  // (2,50)..(3,99): x1 holds 750 (estimated 625), y0 150.
  EXPECT_EQ(Home(tasks[1]).key, "x1");
  EXPECT_NEAR(tasks[1].home_postings, 625.0, 1e-3);
  // (3,100)..(4,49): x1 holds 250 (estimated 625), y1 100.
  EXPECT_EQ(Home(tasks[2]).key, "x1");
  // (4,50)..(4,99): x1 holds 250 but is estimated at almost 0.
  EXPECT_EQ(Home(tasks[3]).key, "y2");
  EXPECT_DOUBLE_EQ(tasks[3].home_postings, 100.0);
  EXPECT_LT(InWindowPostings(blocks[0][1], tasks[3].window), 1e-3);
}

// ---------------------------------------------------------------------------
// The owner cache: each peer remembers which node owns each key it has
// read, learned only from messages it received, and hints its next
// directory round (and baseline, reducer and view reads) with it.

std::vector<xml::Document> CacheCorpus() {
  xml::corpus::DblpOptions copt;
  copt.target_bytes = 150 << 10;
  copt.doc_bytes = 8 << 10;
  return xml::corpus::GenerateDblp(copt);
}

std::vector<const xml::Document*> DocPtrs(const std::vector<xml::Document>& docs,
                                          size_t begin, size_t end) {
  std::vector<const xml::Document*> ptrs;
  for (size_t d = begin; d < end; ++d) ptrs.push_back(&docs[d]);
  return ptrs;
}

std::vector<Answer> Sorted(std::vector<Answer> v) {
  std::sort(v.begin(), v.end(), [](const Answer& a, const Answer& b) {
    if (a.doc != b.doc) return a.doc < b.doc;
    return a.elements < b.elements;
  });
  return v;
}

/// Ground truth for documents all published, in order, by peer 2.
std::vector<Answer> Oracle(const char* expr,
                           const std::vector<xml::Document>& docs) {
  const TreePattern pattern = ParsePattern(expr).take();
  std::vector<Answer> all;
  for (size_t d = 0; d < docs.size(); ++d) {
    auto answers = EvaluateOnDocument(
        pattern, docs[d], index::DocId{2, static_cast<uint32_t>(d)});
    all.insert(all.end(), answers.begin(), answers.end());
  }
  return Sorted(std::move(all));
}

/// `term`'s directory as `at` fetches it.
std::vector<index::DppBlockInfo> Directory(KadopNet& net, sim::NodeIndex at,
                                           const std::string& term) {
  std::optional<std::vector<index::DppBlockInfo>> got;
  index::DppManager::FetchDirectory(
      net.peer(at)->dht_peer(), term,
      [&got](Status st, std::vector<index::DppBlockInfo> blocks) {
        EXPECT_TRUE(st.ok());
        got = std::move(blocks);
      });
  net.RunToIdle();
  EXPECT_TRUE(got.has_value()) << term;
  return got.value_or(std::vector<index::DppBlockInfo>{});
}

void ExpectSameDirectory(const std::vector<index::DppBlockInfo>& a,
                         const std::vector<index::DppBlockInfo>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].count, b[i].count);
    EXPECT_EQ(a[i].types, b[i].types);
    EXPECT_EQ(a[i].holder, b[i].holder);
  }
}

obs::MetricsSnapshot MetricsNow() {
  return obs::MetricRegistry::Default().Snapshot();
}

obs::MetricsSnapshot MetricsSince(const obs::MetricsSnapshot& base) {
  return MetricsNow().DiffSince(base);
}

TEST(OwnerCacheTest, DirectoryRoundsFromAWarmPeerTakeOneHop) {
  const std::vector<xml::Document> docs = CacheCorpus();
  KadopOptions opt;
  opt.peers = 16;
  KadopNet net(opt);
  net.PublishAndWait(2, DocPtrs(docs, 0, docs.size()));

  const std::string term = index::LabelKey("author");
  const sim::NodeIndex owner = net.dht().OwnerOf(dht::HashKey(term));
  const sim::NodeIndex querier = owner == 1 ? 3 : 1;
  sim::NodeIndex bystander = 0;
  while (bystander == owner || bystander == querier) ++bystander;
  dht::DhtPeer* q = net.peer(querier)->dht_peer();
  EXPECT_FALSE(q->KnownOwner(term).has_value());

  // Cold: routed; the reply's block-0 holder teaches the cache.
  const std::vector<index::DppBlockInfo> cold = Directory(net, querier, term);
  ASSERT_FALSE(cold.empty());
  ASSERT_TRUE(q->KnownOwner(term).has_value());
  EXPECT_EQ(q->KnownOwner(term)->node, owner);

  // Warm: the request arrives in one hop (RouteEnvelope::hops == 1).
  obs::MetricsSnapshot base = MetricsNow();
  ExpectSameDirectory(Directory(net, querier, term), cold);
  obs::MetricsSnapshot d = MetricsSince(base);
  EXPECT_EQ(d.histograms.at("dht.hops_per_delivery").count, 1u);
  EXPECT_EQ(d.histograms.at("dht.hops_per_delivery").sum, 1.0);
  EXPECT_EQ(d.CounterValue("dht.hint.sends"), 1u);
  EXPECT_EQ(d.CounterValue("dht.hint.cached"), 1u);
  EXPECT_EQ(d.CounterValue("dht.hint.forwards"), 0u);

  // A stale entry naming a live bystander is forwarded to the owner: the
  // same directory comes back, and the cache names the owner again.
  q->LearnOwner(term, bystander);
  base = MetricsNow();
  ExpectSameDirectory(Directory(net, querier, term), cold);
  d = MetricsSince(base);
  EXPECT_EQ(d.CounterValue("dht.hint.cached"), 1u);
  EXPECT_EQ(d.CounterValue("dht.hint.forwards"), 1u);
  EXPECT_EQ(q->KnownOwner(term)->node, owner);
}

TEST(OwnerCacheTest, EveryRingChangeEmptiesEveryCache) {
  const std::vector<xml::Document> docs = CacheCorpus();
  KadopOptions opt;
  opt.peers = 12;
  KadopNet net(opt);
  net.PublishAndWait(2, DocPtrs(docs, 0, docs.size()));
  const char* expr = "//article//author";
  // A victim that owns neither term and did not publish.
  sim::NodeIndex victim = 3;
  for (const char* label : {"article", "author"}) {
    const std::string term = index::LabelKey(label);
    while (victim == 2 || victim == net.dht().OwnerOf(dht::HashKey(term))) {
      ++victim;
    }
  }
  ASSERT_NE(victim, net.dht().OwnerOf(dht::HashKey(index::LabelKey("article"))));
  ASSERT_NE(victim, net.dht().OwnerOf(dht::HashKey(index::LabelKey("author"))));

  auto warm_all = [&](std::optional<sim::NodeIndex> down) {
    for (sim::NodeIndex n = 0; n < net.PeerCount(); ++n) {
      if (n == down) continue;
      QueryOptions options;
      options.strategy = QueryStrategy::kDpp;
      ASSERT_TRUE(net.QueryAndWait(n, expr, options).ok());
      ASSERT_GT(net.peer(n)->dht_peer()->KnownOwnerCount(), 0u) << n;
    }
  };
  auto expect_all_empty = [&](const char* after,
                              std::optional<sim::NodeIndex> down) {
    for (sim::NodeIndex n = 0; n < net.PeerCount(); ++n) {
      if (n == down) continue;
      EXPECT_EQ(net.peer(n)->dht_peer()->KnownOwnerCount(), 0u)
          << "peer " << n << " after " << after;
    }
  };

  warm_all(std::nullopt);
  net.FailPeerAndStabilize(victim);
  expect_all_empty("FailPeerAndStabilize", victim);
  warm_all(victim);
  net.RestartPeerAndStabilize(victim);
  expect_all_empty("RestartPeerAndStabilize", std::nullopt);
  warm_all(std::nullopt);
  (void)net.JoinPeerAndWait();
  expect_all_empty("JoinPeerAndWait", std::nullopt);
}

// A warm peer's cached owner crashes and the ring re-stabilizes: the cache
// is empty again, so a query with no retry policy is routed to the new
// owner (which took over from the replicas) instead of hanging on a hint
// at the dead node.
TEST(OwnerCacheTest, CrashedCachedOwnerNeedsNoRetryPolicy) {
  const std::vector<xml::Document> docs = CacheCorpus();
  KadopOptions opt;
  opt.peers = 12;
  opt.enable_dpp = false;  // replication covers the flat index
  opt.dht.replication = 3;
  KadopNet net(opt);
  net.PublishAndWait(2, DocPtrs(docs, 0, docs.size()));
  const char* expr = "//article//author";
  const std::vector<Answer> truth = Oracle(expr, docs);
  ASSERT_FALSE(truth.empty());

  constexpr sim::NodeIndex kQuerier = 5;
  dht::DhtPeer* q = net.peer(kQuerier)->dht_peer();
  QueryOptions options;
  options.strategy = QueryStrategy::kBaseline;
  ASSERT_TRUE(net.QueryAndWait(kQuerier, expr, options).ok());
  std::optional<sim::NodeIndex> victim;
  for (const char* label : {"author", "article"}) {
    const auto known = q->KnownOwner(index::LabelKey(label));
    ASSERT_TRUE(known.has_value()) << label;
    if (known->node != kQuerier && known->node != 2) {
      victim = known->node;
      break;
    }
  }
  ASSERT_TRUE(victim.has_value());
  net.FailPeerAndStabilize(*victim);

  for (QueryStrategy strategy :
       {QueryStrategy::kBaseline, QueryStrategy::kAuto}) {
    options.strategy = strategy;
    auto r = net.QueryAndWait(kQuerier, expr, options);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r.value().metrics.complete) << QueryStrategyName(strategy);
    EXPECT_EQ(Sorted(r.value().answers), truth) << QueryStrategyName(strategy);
  }
}

/// `strategy`, with kDppJoin plannable.
QueryOptions StrategyOptions(QueryStrategy strategy) {
  QueryOptions options;
  options.strategy = strategy;
  options.dpp_join_available = true;
  return options;
}

/// A network whose DPP splits often (small blocks), with the first half of
/// the corpus published by peer 2 and every peer's cache warm.
class WarmSplitNetTest : public ::testing::Test {
 protected:
  static constexpr const char* kExprs[] = {
      "//article//author", "//article[//journal]//year",
      "//inproceedings//booktitle"};

  void SetUp() override {
    docs_ = CacheCorpus();
    KadopOptions opt;
    opt.peers = 12;
    opt.dpp.max_block_postings = 64;  // force splits
    net_ = std::make_unique<KadopNet>(opt);
    half_ = docs_.size() / 2;
    net_->PublishAndWait(2, DocPtrs(docs_, 0, half_));
    for (sim::NodeIndex n = 0; n < net_->PeerCount(); ++n) {
      for (const char* expr : kExprs) {
        for (QueryStrategy strategy :
             {QueryStrategy::kBaseline, QueryStrategy::kDpp}) {
          ASSERT_TRUE(
              net_->QueryAndWait(n, expr, StrategyOptions(strategy)).ok());
        }
      }
      ASSERT_GT(net_->peer(n)->dht_peer()->KnownOwnerCount(), 0u) << n;
    }
  }

  std::vector<xml::Document> docs_;
  std::unique_ptr<KadopNet> net_;
  size_t half_ = 0;
};

// Writes never take a hint, warm caches or not: publishing (appends, DPP
// splits and migrations, blob puts) adds no hinted send.
TEST_F(WarmSplitNetTest, PublishingSendsNoHint) {
  const obs::MetricsSnapshot base = MetricsNow();
  net_->PublishAndWait(2, DocPtrs(docs_, half_, docs_.size()));
  const obs::MetricsSnapshot d = MetricsSince(base);
  EXPECT_GT(d.CounterValue("dpp.splits"), 0u);
  EXPECT_GT(d.CounterValue("dht.appends_received"), 0u);
  EXPECT_EQ(d.CounterValue("dht.hint.sends"), 0u);
}

// Reads beside writes: queries from warm peers run while the second half
// of the corpus is published; at quiescence every strategy matches the
// oracle.
TEST_F(WarmSplitNetTest, ReadsBesideWritesMatchTheOracleAtQuiescence) {
  const double start = net_->scheduler().Now();
  std::vector<std::shared_ptr<index::Publisher>> publishers;
  for (size_t d = half_; d < docs_.size(); ++d) {
    const xml::Document* doc = &docs_[d];
    net_->scheduler().At(
        start + 0.02 * static_cast<double>(d - half_), [this, &publishers, doc] {
          auto pub = std::make_shared<index::Publisher>(
              net_->peer(2)->dht_peer(), &net_->peer(2)->doc_store(),
              net_->options().publish);
          publishers.push_back(pub);
          pub->Publish({doc}, [] {});
        });
  }
  constexpr QueryStrategy kStrategies[] = {QueryStrategy::kDpp,
                                           QueryStrategy::kDppJoin,
                                           QueryStrategy::kSubQueryReducer};
  size_t submitted = 0;
  size_t finished = 0;
  for (size_t i = 0; i < 60; ++i) {
    const auto at = static_cast<sim::NodeIndex>(i % net_->PeerCount());
    const char* expr = kExprs[i % std::size(kExprs)];
    const QueryStrategy strategy = kStrategies[i % std::size(kStrategies)];
    ++submitted;
    net_->scheduler().At(
        start + 0.011 * static_cast<double>(i),
        [this, at, expr, strategy, &finished] {
          net_->peer(at)->query_client().Submit(
              ParsePattern(expr).take(), StrategyOptions(strategy),
              [&finished](const QueryResult&) { ++finished; });
        });
  }
  net_->RunToIdle();
  EXPECT_EQ(finished, submitted);

  for (const char* expr : kExprs) {
    const std::vector<Answer> truth = Oracle(expr, docs_);
    ASSERT_FALSE(truth.empty()) << expr;
    for (const QueryStrategy strategy : kStrategies) {
      auto r = net_->QueryAndWait(1, expr, StrategyOptions(strategy));
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_TRUE(r.value().metrics.complete)
          << expr << " " << QueryStrategyName(strategy);
      EXPECT_EQ(Sorted(r.value().answers), truth)
          << expr << " " << QueryStrategyName(strategy);
    }
  }
}

// ---------------------------------------------------------------------------
// The short-pull rule shared by kDpp, the holder and the local fallback.

index::Posting At(uint32_t doc, uint32_t start) {
  return index::Posting{0, doc, {start, start + 1, 1}};
}

// Owner hints: after the directory round, every read of a term goes one
// hop to the node its directory reply named, and a warm querier's own
// directory round goes one hop to the owner its cache names. With every
// term unpartitioned (each directory is one block 0 whose holder is the
// term owner), every routed send of a warm query on a quiescent network is
// a one-hop hinted send.
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
  const obs::Counter* cached = registry.GetCounter("dht.hint.cached");
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
    // The directory round alone, from the querier, as a cold query runs
    // it: a re-stabilized ring starts every owner cache over.
    const TreePattern pattern = ParsePattern(expr).take();
    net.dht().Stabilize();
    const uint64_t hops_before_round = hops->value();
    const uint64_t sends_before_round = sends->value();
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
    // Terms the querier does not own: each costs one hinted send once warm.
    uint64_t remote_terms = 0;
    for (size_t n = 0; n < pattern.size(); ++n) {
      const std::string term = pattern.node(n).TermKey();
      if (net.dht().OwnerOf(dht::HashKey(term)) != kQuerier) ++remote_terms;
    }
    ASSERT_GT(remote_terms, 0u) << expr;
    // The cold round is routed through the ring, with no hint: at least a
    // hop a remote term (a digit-table route in a small ring is often one).
    EXPECT_EQ(sends->value(), sends_before_round) << expr;
    EXPECT_GE(round_hops, remote_terms) << expr;

    const QueryResult dpp = run(expr, QueryStrategy::kDpp);
    ASSERT_FALSE(dpp.answers.empty()) << expr;
    for (QueryStrategy strategy :
         {QueryStrategy::kDppJoin, QueryStrategy::kSubQueryReducer}) {
      const uint64_t hops0 = hops->value();
      const uint64_t sends0 = sends->value();
      const uint64_t forwards0 = forwards->value();
      const uint64_t cached0 = cached->value();
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
      EXPECT_EQ(hops->value() - hops0, hinted) << what;
      // The directory round: one send per remote term, hinted from the
      // cache. Every later read is hinted from the directory replies.
      EXPECT_EQ(cached->value() - cached0, remote_terms) << what;
    }
  }
}

// ---------------------------------------------------------------------------
// Named overflow holders: the term owner learns each overflow block's
// holder from the replies to its routed writes and names it in its
// directory, so reads of a partitioned term's blocks go one hop.

/// A network whose terms split into many blocks, the corpus published by
/// peer 2. Many blocks are made by splits on remote holders and see no
/// write after it: each term owner names their holders from the splits'
/// DppSplitDone replies alone.
struct SplitNet {
  static constexpr const char* kExprs[] = {"//article//author",
                                           "//article[//journal]//year"};

  SplitNet() : docs(CacheCorpus()) {
    KadopOptions opt;
    opt.peers = 12;
    opt.dpp.max_block_postings = 256;  // force splits
    net = std::make_unique<KadopNet>(opt);
    net->PublishAndWait(2, DocPtrs(docs, 0, docs.size()));
  }

  /// Each term of the queries, with its directory as `at` fetches it.
  std::map<std::string, std::vector<index::DppBlockInfo>> Directories(
      sim::NodeIndex at) {
    std::map<std::string, std::vector<index::DppBlockInfo>> dirs;
    for (const char* expr : kExprs) {
      const TreePattern pattern = ParsePattern(expr).take();
      for (size_t n = 0; n < pattern.size(); ++n) {
        const std::string term = pattern.node(n).TermKey();
        if (dirs.count(term) == 0) dirs[term] = Directory(*net, at, term);
      }
    }
    return dirs;
  }

  /// Overflow entries of `dirs` that name a holder, and all of them.
  static std::pair<size_t, size_t> NamedOverflow(
      const std::map<std::string, std::vector<index::DppBlockInfo>>& dirs) {
    size_t named = 0;
    size_t overflow = 0;
    for (const auto& [term, dir] : dirs) {
      for (const index::DppBlockInfo& b : dir) {
        if (b.key == term) continue;
        ++overflow;
        if (b.holder.has_value()) ++named;
      }
    }
    return {named, overflow};
  }

  std::vector<xml::Document> docs;
  std::unique_ptr<KadopNet> net;
};

// On a warm querier whose directories name every overflow holder, every
// routed send of a kDpp or kDppJoin query is a one-hop hinted send.
TEST(NamedHolderTest, WarmQueriesReadEveryBlockInOneHop) {
  SplitNet s;
  constexpr sim::NodeIndex kQuerier = 1;
  const auto dirs = s.Directories(kQuerier);
  for (const auto& [term, dir] : dirs) {
    for (const index::DppBlockInfo& b : dir) {
      ASSERT_TRUE(b.holder.has_value()) << term << " " << b.key;
      EXPECT_EQ(*b.holder, s.net->dht().OwnerOf(dht::HashKey(b.key)))
          << b.key;
    }
  }
  const auto [named, overflow] = SplitNet::NamedOverflow(dirs);
  ASSERT_GE(overflow, 4u);
  ASSERT_EQ(named, overflow);

  auto& registry = obs::MetricRegistry::Default();
  const obs::Counter* hops = registry.GetCounter("dht.route_hops");
  const obs::Counter* sends = registry.GetCounter("dht.hint.sends");
  const obs::Counter* forwards = registry.GetCounter("dht.hint.forwards");
  for (const char* expr : SplitNet::kExprs) {
    const std::vector<Answer> truth = Oracle(expr, s.docs);
    ASSERT_FALSE(truth.empty()) << expr;
    for (const QueryStrategy strategy :
         {QueryStrategy::kDpp, QueryStrategy::kDppJoin}) {
      const std::string what =
          std::string(expr) + " " + std::string(QueryStrategyName(strategy));
      const uint64_t hops0 = hops->value();
      const uint64_t sends0 = sends->value();
      const uint64_t forwards0 = forwards->value();
      auto r =
          s.net->QueryAndWait(kQuerier, expr, StrategyOptions(strategy));
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_TRUE(r.value().metrics.complete) << what;
      EXPECT_EQ(Sorted(r.value().answers), truth) << what;
      EXPECT_GT(sends->value() - sends0, 0u) << what;
      EXPECT_EQ(hops->value() - hops0, sends->value() - sends0) << what;
      EXPECT_EQ(forwards->value() - forwards0, 0u) << what;
    }
  }
}

// Every ring change empties every owner cache, so the directory names no
// overflow holder until a routed reply teaches the owner again (a write's,
// or a pull of its get proxy). Every strategy stays complete and correct,
// and whatever the owner re-learns names the holder on the new ring.
TEST(NamedHolderTest, RingChangesUnnameEveryOverflowHolder) {
  SplitNet s;
  constexpr sim::NodeIndex kQuerier = 1;
  const auto before = s.Directories(kQuerier);
  ASSERT_GT(SplitNet::NamedOverflow(before).first, 0u);
  // A victim that holds no block of the queries' terms: failing it loses
  // no data the queries read.
  std::set<sim::NodeIndex> busy{2, kQuerier};
  for (const auto& [term, dir] : before) {
    busy.insert(s.net->dht().OwnerOf(dht::HashKey(term)));
    for (const index::DppBlockInfo& b : dir) {
      busy.insert(s.net->dht().OwnerOf(dht::HashKey(b.key)));
    }
  }
  sim::NodeIndex victim = 0;
  while (busy.count(victim) > 0) ++victim;
  ASSERT_LT(victim, s.net->PeerCount());

  auto expect_unnamed_and_correct = [&](const char* after) {
    const auto [named, overflow] =
        SplitNet::NamedOverflow(s.Directories(kQuerier));
    EXPECT_GE(overflow, 4u) << after;
    EXPECT_EQ(named, 0u) << after;
    for (const char* expr : SplitNet::kExprs) {
      const std::vector<Answer> truth = Oracle(expr, s.docs);
      for (const QueryStrategy strategy :
           {QueryStrategy::kDpp, QueryStrategy::kDppJoin,
            QueryStrategy::kSubQueryReducer}) {
        const std::string what = std::string(after) + " " + expr + " " +
                                 std::string(QueryStrategyName(strategy));
        auto r =
            s.net->QueryAndWait(kQuerier, expr, StrategyOptions(strategy));
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        EXPECT_TRUE(r.value().metrics.complete) << what;
        EXPECT_EQ(Sorted(r.value().answers), truth) << what;
      }
    }
    for (const auto& [term, dir] : s.Directories(kQuerier)) {
      for (const index::DppBlockInfo& b : dir) {
        if (!b.holder.has_value()) continue;
        EXPECT_EQ(*b.holder, s.net->dht().OwnerOf(dht::HashKey(b.key)))
            << after << " " << b.key;
      }
    }
  };
  s.net->FailPeerAndStabilize(victim);
  expect_unnamed_and_correct("FailPeerAndStabilize");
  (void)s.net->JoinPeerAndWait();
  expect_unnamed_and_correct("JoinPeerAndWait");
}

// ---------------------------------------------------------------------------
// Pushed join inputs: at dispatch the query peer asks the holder of each
// input of a named home that the home does not hold to push it straight
// to the home (PushedInputs), so a task no longer waits a round trip for
// its pulls.

/// One kDppJoin query run with tracing on, and its spans.
struct TracedJoin {
  QueryResult result;
  std::map<obs::SpanId, obs::SpanRecord> spans;

  /// The span `id` names, or nullptr.
  const obs::SpanRecord* Span(obs::SpanId id) const {
    auto it = spans.find(id);
    return it == spans.end() ? nullptr : &it->second;
  }
  /// The first span called `name`.
  const obs::SpanRecord* Named(std::string_view name) const {
    for (const auto& [id, span] : spans) {
      if (span.name == name) return &span;
    }
    return nullptr;
  }
  /// Every get served for the query (by the store, or by a term owner's
  /// get proxy), with the span that caused it.
  std::vector<std::pair<const obs::SpanRecord*, const obs::SpanRecord*>>
  Serves() const {
    std::vector<std::pair<const obs::SpanRecord*, const obs::SpanRecord*>>
        out;
    for (const auto& [id, span] : spans) {
      const obs::SpanRecord* cause = Span(span.parent);
      if (span.name == "dht.get.serve" || span.name == "dht.get.proxy") {
        if (cause == nullptr || cause->name != "dht.get.proxy") {
          out.emplace_back(&span, cause);
        }
      }
    }
    return out;
  }
};

std::string SpanKey(const obs::SpanRecord& span) {
  for (const auto& [key, value] : span.attrs) {
    if (key == "key") return value;
  }
  return "";
}

/// Submits `expr` as kDppJoin at `at` under `options` and runs the
/// network until idle with tracing on.
TracedJoin RunTracedJoin(KadopNet& net, sim::NodeIndex at, const char* expr,
                         QueryOptions options = {}) {
  auto& tracer = obs::Tracer::Default();
  tracer.SetEnabled(true);
  tracer.Clear();
  options.strategy = QueryStrategy::kDppJoin;
  options.dpp_join_available = true;
  TracedJoin out;
  std::optional<QueryResult> result;
  EXPECT_TRUE(net.SubmitQuery(at, expr, options, [&](QueryResult r) {
                   result = std::move(r);
                 }).ok());
  net.RunToIdle();
  EXPECT_TRUE(result.has_value()) << expr;
  if (result.has_value()) out.result = std::move(*result);
  for (const obs::SpanRecord& span : tracer.spans()) out.spans[span.id] = span;
  tracer.Clear();
  tracer.SetEnabled(false);
  return out;
}

// On a warm network whose directories name every holder, no home sends a
// get for a foreign input: every get a task causes is the home reading
// its own block, and every foreign input is served on the query peer's
// push. A home at the query peer itself is the one exception: it asks at
// dispatch time, as early as a push. The answers are kDpp's, byte for
// byte, and the oracle's.
TEST(PushJoinTest, HomesAskForNoForeignInput) {
  SplitNet s;
  constexpr sim::NodeIndex kQuerier = 1;
  for (const char* expr : SplitNet::kExprs) {
    const TracedJoin run = RunTracedJoin(*s.net, kQuerier, expr);
    size_t pushed = 0;
    size_t home_reads = 0;
    for (const auto& [serve, cause] : run.Serves()) {
      ASSERT_NE(cause, nullptr) << expr;
      if (cause->name == "join.holder.task") {
        if (serve->node == cause->node) {
          ++home_reads;
        } else {
          EXPECT_EQ(cause->node, kQuerier) << expr << " " << SpanKey(*serve);
        }
      } else {
        EXPECT_EQ(cause->name, "query.join.dispatch") << expr;
        ++pushed;
      }
    }
    EXPECT_GT(pushed, 0u) << expr;
    EXPECT_GE(home_reads, run.result.metrics.join_tasks) << expr;
    EXPECT_TRUE(run.result.metrics.complete) << expr;
    EXPECT_FALSE(run.result.metrics.degraded) << expr;
    const auto dpp = s.net->QueryAndWait(kQuerier, expr,
                                         StrategyOptions(QueryStrategy::kDpp));
    ASSERT_TRUE(dpp.ok());
    EXPECT_EQ(run.result.answers, dpp.value().answers) << expr;
    EXPECT_EQ(run.result.matched_docs, dpp.value().matched_docs) << expr;
    EXPECT_EQ(Sorted(run.result.answers), Oracle(expr, s.docs)) << expr;
  }
}

// A block made by a split on a remote holder is named by the DppSplitDone
// that created it, so on a network that only published (no later write
// teaches the owners) every kDppJoin task's home is named and every input
// the home does not hold is pushed to it: no home asks for a foreign
// input, and the answers are the oracle's.
TEST(PushJoinTest, RemoteSplitBlocksAreNamedAndPushed) {
  SplitNet s;
  constexpr sim::NodeIndex kQuerier = 1;
  for (const char* expr : SplitNet::kExprs) {
    const TreePattern pattern = ParsePattern(expr).take();
    std::shared_ptr<const std::vector<TermDirectory>> dirs =
        FetchTermDirectories(s.net->peer(kQuerier)->dht_peer(), pattern, {},
                             nullptr);
    s.net->RunToIdle();
    const QueryPlan plan =
        PlanQuery(pattern, *dirs, std::nullopt,
                  StrategyOptions(QueryStrategy::kDppJoin), kQuerier);
    ASSERT_GE(plan.tasks.size(), 2u) << expr;
    size_t pushes = 0;
    for (const JoinTaskPlan& task : plan.tasks) {
      const std::optional<sim::NodeIndex> home = Home(task).holder;
      ASSERT_TRUE(home.has_value()) << expr << " " << Home(task).key;
      for (size_t node = 0; node < task.inputs.size(); ++node) {
        for (size_t idx = 0; idx < task.inputs[node].size(); ++idx) {
          const index::DppBlockInfo& block = task.inputs[node][idx];
          ASSERT_TRUE(block.holder.has_value()) << expr << " " << block.key;
          const bool pushed = task.pushed[node][idx];
          EXPECT_EQ(pushed, *home != kQuerier && block.holder != home)
              << expr << " " << block.key;
          pushes += pushed ? 1 : 0;
        }
      }
    }
    EXPECT_GT(pushes, 0u) << expr;

    const TracedJoin run = RunTracedJoin(*s.net, kQuerier, expr);
    size_t pushed = 0;
    for (const auto& [serve, cause] : run.Serves()) {
      ASSERT_NE(cause, nullptr) << expr;
      if (cause->name == "query.join.dispatch") {
        ++pushed;
      } else if (cause->node != kQuerier) {
        EXPECT_EQ(serve->node, cause->node) << expr << " " << SpanKey(*serve);
      }
    }
    EXPECT_EQ(pushed, pushes) << expr;
    EXPECT_EQ(run.result.metrics.join_tasks, plan.tasks.size()) << expr;
    EXPECT_TRUE(run.result.metrics.complete) << expr;
    EXPECT_FALSE(run.result.metrics.degraded) << expr;
    EXPECT_EQ(Sorted(run.result.answers), Oracle(expr, s.docs)) << expr;
  }
}

// A pushed input's holder starts serving one hop after dispatch, so the
// input reaches its home 2 hops plus its serve and transfer time after
// dispatch: every task's reply leaves within that, where a pull by the
// home would add a third hop.
TEST(PushJoinTest, PushedInputsReachTheirHomeTwoHopsAfterDispatch) {
  SplitNet s;
  constexpr sim::NodeIndex kQuerier = 1;
  const double hop = s.net->network().params().hop_latency_s;
  for (const char* expr : SplitNet::kExprs) {
    const TracedJoin run = RunTracedJoin(*s.net, kQuerier, expr);
    const obs::SpanRecord* dispatch = run.Named("query.join.dispatch");
    ASSERT_NE(dispatch, nullptr) << expr;
    double longest_serve = 0;
    for (const auto& [serve, cause] : run.Serves()) {
      if (cause != dispatch) continue;
      // One hop, plus this peer's uplink carrying the dispatches first.
      EXPECT_GE(serve->start - dispatch->start, hop) << SpanKey(*serve);
      EXPECT_LT(serve->start - dispatch->start, hop * 1.5) << SpanKey(*serve);
      longest_serve = std::max(longest_serve, serve->end - serve->start);
    }
    size_t tasks = 0;
    for (const auto& [id, span] : run.spans) {
      if (span.name != "join.holder.task") continue;
      ++tasks;
      // The reply leaves once the last input is in (the join takes no
      // virtual time): 2 hops, the serve, and well under a hop of
      // transfers and queueing.
      EXPECT_LT(span.end - dispatch->start, 2 * hop + longest_serve + hop * 0.75)
          << expr << " task at node " << span.node;
    }
    EXPECT_EQ(tasks, run.result.metrics.join_tasks) << expr;
  }
}

// `explain` marks exactly the inputs the executor pushes, and
// `load.holder.<N>.join_tasks` counts the tasks each home ran. After a
// ring change the directory names only each term's block-0 holder, the
// owner that answered: only tasks homed there are pushed to, so fewer
// inputs are pushed, and `explain` marks the other tasks' foreign inputs
// as asked for by their home.
TEST(PushJoinTest, ExplainMarksTheInputsTheQueryPeerPushes) {
  SplitNet s;
  constexpr sim::NodeIndex kQuerier = 1;
  auto count = [](const std::string& text, std::string_view what) {
    size_t n = 0;
    for (size_t at = text.find(what); at != std::string::npos;
         at = text.find(what, at + 1)) {
      ++n;
    }
    return n;
  };
  auto& registry = obs::MetricRegistry::Default();
  std::map<std::string, size_t> warm_pushed;
  for (const bool warm : {true, false}) {
    if (!warm) s.net->dht().Stabilize();
    for (const char* expr : SplitNet::kExprs) {
      QueryOptions options;
      options.dpp_join_available = true;
      auto explained = s.net->ExplainQueryAndWait(kQuerier, expr, options);
      ASSERT_TRUE(explained.ok()) << explained.status().ToString();
      const obs::MetricsSnapshot before = registry.Snapshot();
      const TracedJoin run = RunTracedJoin(*s.net, kQuerier, expr);
      const obs::MetricsSnapshot delta = registry.Snapshot().DiffSince(before);
      size_t pushed = 0;
      std::map<sim::NodeIndex, uint64_t> homes;
      for (const auto& [serve, cause] : run.Serves()) {
        if (cause != nullptr && cause->name == "query.join.dispatch") ++pushed;
      }
      for (const auto& [id, span] : run.spans) {
        if (span.name == "join.holder.task") ++homes[span.node];
      }
      EXPECT_EQ(count(explained.value(), " (pushed)"), pushed) << expr;
      if (warm) {
        EXPECT_GT(pushed, 0u) << expr;
        warm_pushed[expr] = pushed;
      } else {
        EXPECT_LT(pushed, warm_pushed[expr]) << expr;
        EXPECT_GT(count(explained.value(), " (asked)"), 0u) << expr;
      }
      for (const auto& [node, tasks] : homes) {
        const std::string name =
            "load.holder." + std::to_string(node) + ".join_tasks";
        EXPECT_EQ(delta.counters.count(name) ? delta.counters.at(name) : 0,
                  tasks)
            << expr << " " << name;
      }
    }
  }
}

/// KadopPeer's own app dispatch, for tests that wrap a peer's handler.
void HandleAppAsKadopPeer(core::KadopPeer* peer,
                          const dht::AppRequest& request,
                          sim::NodeIndex from) {
  if (peer->dpp() != nullptr && peer->dpp()->HandleApp(request, from)) return;
  if (peer->reducer().HandleApp(request, from)) return;
  if (peer->query_client().HandleApp(request, from)) return;
  if (peer->block_join().HandleApp(request, from)) return;
  EXPECT_TRUE(peer->fundex().HandleApp(request, from))
      << "unexpected app message " << request.inner->TypeName();
}

/// Every peer's app handler is wrapped: a BlockJoinRequest reaches the
/// block-join service `delay_s` late, so the inputs pushed to its home
/// arrive first. `held` is set when such a task finds pushed blocks
/// already tracked at its home.
void DelayJoinTasks(KadopNet& net, double delay_s, bool* held) {
  for (sim::NodeIndex n = 0; n < net.PeerCount(); ++n) {
    core::KadopPeer* peer = net.peer(n);
    sim::Scheduler* scheduler = &net.scheduler();
    peer->dht_peer()->SetAppHandler([peer, scheduler, delay_s, held](
                                        const dht::AppRequest& request,
                                        sim::NodeIndex from) {
      if (dynamic_cast<const index::BlockJoinRequest*>(
              request.inner.get()) == nullptr) {
        HandleAppAsKadopPeer(peer, request, from);
        return;
      }
      scheduler->After(delay_s, [peer, held, request, from]() {
        if (peer->dht_peer()->DeliveryCount() > 0) *held = true;
        EXPECT_TRUE(peer->block_join().HandleApp(request, from));
      });
    });
  }
}

// Pushed inputs that reach their home before its task (jitter) lose
// nothing: they are held until the task awaits them. Once the network is
// idle no get is awaited and nothing is held anywhere.
TEST(PushJoinTest, DeliveriesThatOvertakeTheirTaskAreHeld) {
  for (const bool jitter : {false, true}) {
    SplitNet s;
    constexpr sim::NodeIndex kQuerier = 1;
    bool held = false;
    QueryOptions options;
    if (jitter) {
      sim::FaultOptions fopts;
      fopts.seed = FaultSeed();
      fopts.jitter_mean_s = 0.004;
      s.net->EnableFaults(fopts, {});
      options.fetch_retry.timeout_s = 0.5;
    } else {
      DelayJoinTasks(*s.net, 0.01, &held);
    }
    for (const char* expr : SplitNet::kExprs) {
      const TracedJoin run = RunTracedJoin(*s.net, kQuerier, expr, options);
      EXPECT_TRUE(run.result.metrics.complete) << expr;
      EXPECT_EQ(run.result.metrics.join_local_fallback, 0u) << expr;
      EXPECT_EQ(Sorted(run.result.answers), Oracle(expr, s.docs)) << expr;
    }
    if (!jitter) {
      EXPECT_TRUE(held);
    }
    for (sim::NodeIndex n = 0; n < s.net->PeerCount(); ++n) {
      EXPECT_EQ(s.net->peer(n)->dht_peer()->PendingRequestCount(), 0u) << n;
      EXPECT_EQ(s.net->peer(n)->dht_peer()->DeliveryCount(), 0u) << n;
    }
  }
}

// Chaos: the named holder of a pushed input crashes at dispatch, before
// the push reaches it, and the ring re-stabilizes. The home awaits the
// push for the pull's timeout, then asks again, routed: the re-ask
// reaches the heir of the crashed holder's range. The heir has no data,
// so the home NACKs and the query peer redoes the task, out-waiting the
// outage (the holder revives 1 s later). Every other foreign input is
// still pushed. The answers are complete and equal the oracle.
TEST(PushJoinTest, CrashedPushHolderIsAskedAgainAtItsHeir) {
  SplitNet s;
  constexpr sim::NodeIndex kQuerier = 1;
  constexpr const char* kQuery = "//article//author";
  const TreePattern pattern = ParsePattern(kQuery).take();

  // The tasks as the querier plans them, from its directories.
  std::vector<std::vector<index::DppBlockInfo>> dirs;
  std::set<sim::NodeIndex> protected_nodes{kQuerier};
  for (size_t n = 0; n < pattern.size(); ++n) {
    const std::string term = pattern.node(n).TermKey();
    dirs.push_back(Directory(*s.net, kQuerier, term));
    protected_nodes.insert(s.net->dht().OwnerOf(dht::HashKey(term)));
  }
  const DppBlockSelection selection = SelectDppBlocks(dirs);
  ASSERT_TRUE(selection.viable);
  const std::vector<JoinTaskPlan> tasks =
      PlanJoinTasks(selection.blocks, selection.window);
  // Victim: a holder whose every input an empty reply from its heir would
  // show to be short, and whose push a home other than its heir awaits
  // (the heir reads an inherited block at once; any other home asks again
  // once the push times out). Whichever node of the layout that is, bar
  // the querier and the term owners, which the query's directory round
  // needs.
  struct Candidate {
    bool verifiable = true;
    std::set<sim::NodeIndex> pushed_to;  // homes awaiting its pushes
  };
  std::map<sim::NodeIndex, Candidate> candidates;
  for (const JoinTaskPlan& task : tasks) {
    const auto pushed = PushedInputs(task.inputs, task.home_node,
                                     task.home_block, kQuerier);
    for (size_t node = 0; node < task.inputs.size(); ++node) {
      for (size_t idx = 0; idx < task.inputs[node].size(); ++idx) {
        const index::DppBlockInfo& b = task.inputs[node][idx];
        ASSERT_TRUE(b.holder.has_value()) << b.key;
        const dht::GetSpec spec = BlockPullSpec(b, task.window, {});
        Candidate& c = candidates[*b.holder];
        c.verifiable = c.verifiable && b.count > 0 &&
                       ShortPull(b, spec, 0, /*complete=*/true);
        if (pushed[node][idx]) c.pushed_to.insert(*Home(task).holder);
      }
    }
  }
  // The node that inherits `node`'s range when it fails: its successor.
  auto heir = [&s](sim::NodeIndex node) {
    return s.net->dht().OwnerOf(s.net->dht().peer(node)->id() + 1);
  };
  std::optional<sim::NodeIndex> victim;
  for (const auto& [node, c] : candidates) {
    const bool asked_again =
        std::any_of(c.pushed_to.begin(), c.pushed_to.end(),
                    [&](sim::NodeIndex home) { return home != heir(node); });
    if (c.verifiable && asked_again && protected_nodes.count(node) == 0) {
      victim = node;
      break;
    }
  }
  ASSERT_TRUE(victim.has_value()) << "no verifiable holder of pushed inputs";
  std::set<std::string> victim_keys;
  for (const auto& dir : dirs) {
    for (const index::DppBlockInfo& b : dir) {
      if (b.holder == victim) victim_keys.insert(b.key);
    }
  }

  // A fault-free run finds when the query dispatches; the next run is
  // the same query on the same warm caches.
  const TracedJoin dry = RunTracedJoin(*s.net, kQuerier, kQuery);
  const obs::SpanRecord* dry_dispatch = dry.Named("query.join.dispatch");
  const obs::SpanRecord* dry_query = dry.Named("query");
  ASSERT_NE(dry_dispatch, nullptr);
  ASSERT_NE(dry_query, nullptr);
  const double hop = s.net->network().params().hop_latency_s;
  const double crash_at = s.net->scheduler().Now() +
                          (dry_dispatch->start - dry_query->start) + hop / 2;
  s.net->EnableFaults(sim::FaultOptions{},
                      {sim::CrashEvent{crash_at, *victim, /*up=*/false},
                       sim::CrashEvent{crash_at + 1.0, *victim, /*up=*/true}});
  QueryOptions options;
  options.fetch_retry.timeout_s = 0.5;
  options.fetch_retry.max_retries = 3;
  const TracedJoin run = RunTracedJoin(*s.net, kQuerier, kQuery, options);
  const obs::SpanRecord* dispatch = run.Named("query.join.dispatch");
  ASSERT_NE(dispatch, nullptr);
  EXPECT_EQ(dispatch->start - run.Named("query")->start,
            dry_dispatch->start - dry_query->start);

  // Each task's first run at its named home: the run the pushes were
  // meant for. A task that reached another node (the heir, when the
  // victim was its home) asks for all its inputs itself, and so does a
  // resent task (the query peer's dispatch timed out while its home
  // waited for the push), whose pushes its first run took.
  std::map<std::string, obs::SpanId> first_run;
  for (const auto& [id, span] : run.spans) {
    if (span.name != "join.holder.task") continue;
    for (const auto& [key, value] : span.attrs) {
      if (key != "task") continue;
      const JoinTaskPlan& task = tasks.at(std::stoul(value));
      if (span.node == *task.inputs[task.home_node][task.home_block].holder) {
        first_run.emplace(value, id);
      }
    }
  }
  size_t reasks = 0;
  size_t pushed = 0;
  for (const auto& [serve, cause] : run.Serves()) {
    if (cause == nullptr) continue;
    if (cause == dispatch) ++pushed;
    const bool first = std::any_of(
        first_run.begin(), first_run.end(),
        [&](const auto& entry) { return entry.second == cause->id; });
    if (!first || serve->node == cause->node) continue;
    // The only get a home's first run sends for a foreign input: the
    // victim's block, asked again of the heir once the push's timeout
    // passed.
    EXPECT_EQ(victim_keys.count(SpanKey(*serve)), 1u) << SpanKey(*serve);
    EXPECT_NE(serve->node, *victim);
    EXPECT_GE(serve->start - cause->start, options.fetch_retry.timeout_s);
    EXPECT_LT(serve->start, crash_at + 1.0);
    ++reasks;
  }
  EXPECT_GE(reasks, 1u);
  EXPECT_GT(pushed, reasks);
  EXPECT_TRUE(run.result.metrics.complete);
  EXPECT_GE(run.result.metrics.join_local_fallback, 1u);
  EXPECT_EQ(Sorted(run.result.answers), Oracle(kQuery, s.docs));
}

// ---------------------------------------------------------------------------
// Home choice end to end, on long_list's shape scaled down: a 256 KB
// corpus of 1 KB documents from one publisher, in 256-posting blocks.
// 'article' and 'author' split at staggered documents, so each window of
// //article//author meets one article block that spans many windows and
// one author block that holds most of the window.

/// The postings of `block` inside `window`, as a holder pulls them.
size_t WindowPostings(KadopNet& net, const index::DppBlockInfo& block,
                      const index::Condition& window) {
  size_t got = 0;
  net.peer(0)->dht_peer()->GetBlocks(
      BlockPullSpec(block, window, {}),
      [&got](index::PostingList part, bool, bool) { got += part.size(); });
  net.RunToIdle();
  return got;
}

TEST(JoinHomeTest, WindowShareHomesCutHolderForeignIngress) {
  xml::corpus::DblpOptions copt;
  copt.target_bytes = 256 << 10;
  copt.doc_bytes = 1 << 10;
  const std::vector<xml::Document> docs = xml::corpus::GenerateDblp(copt);
  KadopOptions opt;
  opt.peers = 16;
  opt.dpp.max_block_postings = 256;
  KadopNet net(opt);
  net.RegisterDocuments(docs);
  net.PublishAndWait(2, DocPtrs(docs, 0, docs.size()));
  constexpr sim::NodeIndex kQuerier = 1;
  constexpr const char* kQuery = "//article//author";

  auto dpp = net.QueryAndWait(kQuerier, kQuery,
                              StrategyOptions(QueryStrategy::kDpp));
  ASSERT_TRUE(dpp.ok());
  const obs::MetricsSnapshot base = MetricsNow();
  auto djoin = net.QueryAndWait(kQuerier, kQuery,
                                StrategyOptions(QueryStrategy::kDppJoin));
  ASSERT_TRUE(djoin.ok());
  const obs::MetricsSnapshot d = MetricsSince(base);
  const QueryMetrics& m = djoin.value().metrics;
  ASSERT_TRUE(m.complete);
  ASSERT_FALSE(m.degraded);
  ASSERT_EQ(m.join_remote, m.join_tasks);
  EXPECT_EQ(djoin.value().answers, dpp.value().answers);
  EXPECT_EQ(djoin.value().matched_docs, dpp.value().matched_docs);
  EXPECT_EQ(Sorted(djoin.value().answers), Oracle(kQuery, docs));

  // The plan the query ran, and what each task's inputs hold in its window.
  const TreePattern pattern = ParsePattern(kQuery).take();
  std::vector<std::vector<index::DppBlockInfo>> dirs;
  for (size_t n = 0; n < pattern.size(); ++n) {
    dirs.push_back(Directory(net, kQuerier, pattern.node(n).TermKey()));
  }
  const DppBlockSelection selection = SelectDppBlocks(dirs);
  ASSERT_TRUE(selection.viable);
  const std::vector<JoinTaskPlan> tasks =
      PlanJoinTasks(selection.blocks, selection.window);
  ASSERT_EQ(tasks.size(), m.join_tasks);
  auto holder = [&net](const index::DppBlockInfo& b) {
    return net.dht().OwnerOf(dht::HashKey(b.key));
  };
  // Postings a home at inputs[node][block] pulls from other peers.
  uint64_t window_home = 0;  // the plan's homes
  uint64_t count_home = 0;   // the largest directory count, first seen
  for (const JoinTaskPlan& task : tasks) {
    const index::DppBlockInfo* largest = nullptr;
    for (const auto& per_node : task.inputs) {
      for (const auto& b : per_node) {
        if (largest == nullptr || b.count > largest->count) largest = &b;
      }
    }
    for (const auto& per_node : task.inputs) {
      for (const auto& b : per_node) {
        const size_t postings = WindowPostings(net, b, task.window);
        if (holder(b) != holder(Home(task))) window_home += postings;
        if (holder(b) != holder(*largest)) count_home += postings;
      }
    }
  }
  // The holders' measured foreign reads are the plan's.
  EXPECT_EQ(d.CounterValue("query.join.holder.ingress_postings") -
                d.CounterValue("query.join.holder.local_postings"),
            window_home);
  EXPECT_LT(window_home, count_home);
  // Two ~240-posting article blocks each span about nine windows; each
  // window's ~164-posting author block holds most of it. The count rule
  // homes every task at an article block, which pulls whole author
  // blocks; the window share homes it at the author block, which pulls
  // article slivers.
  EXPECT_EQ(m.join_tasks, 18u);
  EXPECT_EQ(window_home, 387u);
  EXPECT_EQ(count_home, 2154u);
}

// kbench long_list's Ullman query at half its corpus and half its block
// size, so author still spans 17 blocks on 64 peers and the word is rare.
// The sub-query reducer would make author's owner pull its 16 overflow
// blocks before it reduces; kAuto prices that gather and runs kDppJoin,
// which answers sooner.
TEST(GatherPricingTest, PartitionedPathSendsAutoToTheDistributedJoin) {
  xml::corpus::DblpOptions copt;
  copt.target_bytes = 8 << 20;
  const std::vector<xml::Document> docs = xml::corpus::GenerateDblp(copt);
  KadopOptions opt;
  opt.peers = 64;
  opt.dpp.max_block_postings = 8192;
  KadopNet net(opt);
  net.RegisterDocuments(docs);
  net.PublishAndWait(2, DocPtrs(docs, 0, docs.size()));
  constexpr sim::NodeIndex kQuerier = 1;
  constexpr const char* kQuery = "//article//author//\"Ullman\"";
  const std::vector<Answer> truth = Oracle(kQuery, docs);
  ASSERT_FALSE(truth.empty());

  // Warm the querier's owner cache, so both timed runs start alike.
  ASSERT_TRUE(
      net.QueryAndWait(kQuerier, kQuery, StrategyOptions(QueryStrategy::kDpp))
          .ok());
  auto planned = net.QueryAndWait(kQuerier, kQuery,
                                  StrategyOptions(QueryStrategy::kAuto));
  ASSERT_TRUE(planned.ok());
  const QueryMetrics& m = planned.value().metrics;
  EXPECT_EQ(m.effective_strategy, QueryStrategy::kDppJoin);
  EXPECT_TRUE(m.complete);
  EXPECT_EQ(Sorted(planned.value().answers), truth);

  auto reduced = net.QueryAndWait(
      kQuerier, kQuery, StrategyOptions(QueryStrategy::kSubQueryReducer));
  ASSERT_TRUE(reduced.ok());
  EXPECT_EQ(Sorted(reduced.value().answers), truth);
  EXPECT_LT(m.ResponseTime(), reduced.value().metrics.ResponseTime());

  // `explain` reads the same plan: the same pick, and the sub-query line
  // prices author's gather at its overflow postings.
  auto explained = net.ExplainQueryAndWait(
      kQuerier, kQuery, StrategyOptions(QueryStrategy::kAuto));
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  const std::string& text = explained.value();
  EXPECT_NE(text.find("auto would run: dpp-join\n"), std::string::npos)
      << text;
  const std::string author = ParsePattern(kQuery).value().node(1).TermKey();
  const uint64_t gather =
      index::OverflowCount(Directory(net, kQuerier, author), author);
  EXPECT_GT(gather, 0u);
  const size_t sub = text.find("  subquery-reducer ");
  ASSERT_NE(sub, std::string::npos) << text;
  const std::string line = text.substr(sub, text.find('\n', sub) - sub);
  EXPECT_NE(line.find(" [1]=" + std::to_string(gather)), std::string::npos)
      << line;
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
  bool answers_match_oracle = false;
  /// The directory named the crashed victim as its block's holder, so the
  /// first dispatch of that block's task went one hop to the dead node.
  bool victim_named = false;
  /// When a join task first read the victim's block at the node that
  /// inherited it, in seconds after t0, and how long after that task
  /// reached the node; -1 when no task read it there.
  double heir_read_s = -1;
  double heir_read_wait_s = -1;
  uint64_t retries = 0;
  uint64_t tasks = 0;
  uint64_t remote = 0;
  uint64_t local_fallback = 0;
  std::string trace;
  std::string metrics_delta;

  friend bool operator==(const JoinChaosOutcome&,
                         const JoinChaosOutcome&) = default;
};

/// What the term owner knows of its overflow holders when the query runs.
enum class HolderNames {
  /// Every owner cache emptied first, as right after a ring change: the
  /// directory names no overflow holder, so every dispatch and pull is
  /// routed through the ring.
  kNone,
  /// Warm caches: the directory names every overflow holder, the victim
  /// included, so the victim's task is dispatched to it in one hop.
  kNamed,
};

/// Crashes `victim` (KadopNet::FailPeerAndStabilize) as the first
/// BlockJoinRequest reaches it, once that task has started, or at
/// `latest` if none has reached it by then (its dispatch was lost).
void CrashVictimMidTask(KadopNet& net, sim::NodeIndex victim, double latest) {
  auto crashed = std::make_shared<bool>(false);
  auto crash = [&net, victim, crashed]() {
    if (*crashed) return;
    *crashed = true;
    net.FailPeerAndStabilize(victim);
  };
  net.scheduler().At(latest, crash);
  core::KadopPeer* peer = net.peer(victim);
  peer->dht_peer()->SetAppHandler([&net, peer, crash](
                                      const dht::AppRequest& request,
                                      sim::NodeIndex from) {
    HandleAppAsKadopPeer(peer, request, from);
    if (dynamic_cast<const index::BlockJoinRequest*>(request.inner.get()) !=
        nullptr) {
      net.scheduler().After(0, crash);
    }
  });
}

/// The single-term pattern makes every join task have exactly one input
/// block — its home — so the crashed holder's blocks are touched only by
/// the tasks homed there. With routed dispatches (HolderNames::kNone)
/// those tasks must fall back to a query-side join; with the victim named
/// (kNamed) the task's routed retry may instead run it remotely. Either
/// way, with the holder revived inside the retry window the final answers
/// equal the fault-free ground truth.
JoinChaosOutcome RunJoinChaosScenario(uint64_t seed, HolderNames names) {
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
  const sim::NodeIndex owner = net.dht().OwnerOf(dht::HashKey(term));
  std::set<sim::NodeIndex> protected_nodes{2, kQuerier, owner};
  std::optional<sim::NodeIndex> victim;
  std::string victim_key;
  std::vector<index::DppBlockInfo> dir;
  index::DppManager::FetchDirectory(
      net.peer(0)->dht_peer(), term,
      [&](Status st, std::vector<index::DppBlockInfo> blocks) {
        EXPECT_TRUE(st.ok());
        dir = std::move(blocks);
      });
  net.RunToIdle();
  JoinChaosOutcome out;
  for (size_t i = 1; i + 1 < dir.size() && !victim.has_value(); ++i) {
    const sim::NodeIndex holder = net.dht().OwnerOf(dht::HashKey(dir[i].key));
    if (protected_nodes.count(holder) > 0) continue;
    victim = holder;
    victim_key = dir[i].key;
    out.victim_named = dir[i].holder == holder;
  }
  EXPECT_TRUE(victim.has_value()) << "corpus too small to pick a victim";
  if (!victim.has_value()) return out;
  if (names == HolderNames::kNone) {
    // Same ring, empty caches: the owner names no overflow holder until a
    // routed reply teaches it again, and no write runs before the query.
    net.dht().Stabilize();
    EXPECT_EQ(net.peer(owner)->dht_peer()->KnownOwnerCount(), 0u);
    out.victim_named = false;
  }

  // Crash mid-request: the victim crashes as its first join task starts
  // (or at t0+0.02 if that task's dispatch was lost), so the task's reply
  // is lost however fast the query runs. The ring re-stabilizes around
  // the crash, so the victim's key range is inherited by a data-less
  // successor that answers pulls with empty-but-"complete" lists. With routed dispatches the
  // holder's directory check catches that and NACKs (complete=false),
  // which forces the affected tasks onto the query-side fallback. The
  // fallback's own verified re-pulls out-wait the outage: the victim
  // revives at t0+1.0, rejoins the ring with its store intact, and the
  // second fallback attempt (~t0+1.1) recovers the full data. With the
  // victim named, the first dispatch and pulls go one hop to the dead
  // node; their routed retries run after the ring change, and may land
  // after the revival.
  sim::FaultOptions fopts;
  fopts.seed = seed;
  fopts.drop_p = 0.05;
  fopts.dup_p = 0.02;
  fopts.jitter_mean_s = 0.002;
  const double t0 = net.scheduler().Now();
  net.EnableFaults(fopts, {sim::CrashEvent{t0 + 1.0, *victim, /*up=*/true}});
  CrashVictimMidTask(net, *victim, t0 + 0.02);

  qopt.fetch_retry.timeout_s = 0.5;
  qopt.fetch_retry.max_retries = 3;
  const uint64_t retries_before =
      obs::MetricRegistry::Default().GetCounter("dht.retries")->value();
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
    out.answers_match_oracle =
        Sorted(result->answers) == Oracle(kQuery, docs);
    out.retries =
        obs::MetricRegistry::Default().GetCounter("dht.retries")->value() -
        retries_before;
    // Every task either ran remotely or fell back, and the answers are
    // still the complete fault-free set (complete).
    EXPECT_EQ(out.remote + out.local_fallback, out.tasks);
    EXPECT_TRUE(out.complete);
    EXPECT_TRUE(out.answers_match_ground_truth);
    EXPECT_TRUE(out.answers_match_oracle);
    if (names == HolderNames::kNone) {
      // Exact contract of the routed path: the crash forced at least one
      // per-task fallback, and the run says so (degraded).
      EXPECT_GE(out.local_fallback, 1u);
      EXPECT_TRUE(out.degraded);
    }
  }
  net.RunToIdle();

  std::map<obs::SpanId, const obs::SpanRecord*> spans;
  for (const obs::SpanRecord& s : tracer.spans()) spans[s.id] = &s;
  for (const obs::SpanRecord& serve : tracer.spans()) {
    auto parent = spans.find(serve.parent);
    const obs::SpanRecord* task =
        parent == spans.end() ? nullptr : parent->second;
    if (serve.name != "dht.get.serve" || serve.node == *victim ||
        task == nullptr || task->name != "join.holder.task" ||
        task->node != serve.node) {
      continue;
    }
    bool victim_block = false;
    for (const auto& [key, value] : serve.attrs) {
      victim_block = victim_block || (key == "key" && value == victim_key);
    }
    if (victim_block && out.heir_read_s < 0) {
      out.heir_read_s = serve.start - t0;
      out.heir_read_wait_s = serve.start - task->start;
    }
  }
  out.trace = tracer.DumpText();
  out.metrics_delta =
      obs::MetricRegistry::Default().Snapshot().DiffSince(base).ToText();
  return out;
}

TEST(DistributedJoinChaosTest, HolderCrashFallsBackPerTask) {
  const JoinChaosOutcome out =
      RunJoinChaosScenario(FaultSeed(), HolderNames::kNone);
  EXPECT_TRUE(out.finished_in_time);
  EXPECT_TRUE(out.answers_match_ground_truth);
}

TEST(DistributedJoinChaosTest, SameSeedRunsAreByteIdentical) {
  for (const HolderNames names : {HolderNames::kNone, HolderNames::kNamed}) {
    const JoinChaosOutcome a = RunJoinChaosScenario(FaultSeed(), names);
    const JoinChaosOutcome b = RunJoinChaosScenario(FaultSeed(), names);
    EXPECT_EQ(a.trace, b.trace);
    EXPECT_EQ(a.metrics_delta, b.metrics_delta);
    EXPECT_EQ(a, b);
    EXPECT_FALSE(a.trace.empty());
  }
}

// The directory names the crashed holder of the victim's block, so that
// task's first dispatch goes one hop to a dead node: its routed retry
// resolves it, and the answers are complete and equal the oracle.
TEST(DistributedJoinChaosTest, HintedDispatchToCrashedHolderResolvesByRetry) {
  const JoinChaosOutcome out =
      RunJoinChaosScenario(FaultSeed(), HolderNames::kNamed);
  EXPECT_TRUE(out.victim_named);
  EXPECT_TRUE(out.finished_in_time);
  EXPECT_GT(out.retries, 0u);
  EXPECT_TRUE(out.complete);
  EXPECT_TRUE(out.answers_match_ground_truth);
  EXPECT_TRUE(out.answers_match_oracle);
}

// The victim's task reaches, on its routed retry, the node that inherited
// the victim's range, with inputs naming the dead victim as the block's
// holder (fault seed 11: node 11 inherits ovf:1:l:author from node 3 and
// reads it at t0+0.57 s). The heir reads its own block at once, instead
// of sending the pull to the dead node and waiting out the pull timeout
// until the victim revives at t0+1.0.
TEST(DistributedJoinChaosTest, HeirReadsTheInheritedBlockAtOnce) {
  const JoinChaosOutcome out =
      RunJoinChaosScenario(FaultSeed(), HolderNames::kNamed);
  EXPECT_TRUE(out.victim_named);
  ASSERT_GE(out.heir_read_s, 0.0) << "no task read the block at its heir";
  EXPECT_EQ(out.heir_read_wait_s, 0.0);
  EXPECT_LT(out.heir_read_s, 1.0);
  EXPECT_TRUE(out.complete);
  EXPECT_TRUE(out.answers_match_oracle);
}

}  // namespace
}  // namespace kadop::query
