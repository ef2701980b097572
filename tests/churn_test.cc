// Overlay churn: sequences of joins and failures must keep routing
// consistent (every key resolves to exactly the ring's true owner) and,
// with replication and handoff, keep query results intact.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "core/kadop.h"
#include "dht/ring.h"
#include "obs/metrics.h"
#include "xml/corpus.h"

namespace kadop::dht {
namespace {

struct ChurnNet {
  ChurnNet(size_t peers, DhtOptions options = {})
      : network(&scheduler), dht(&scheduler, &network, options) {
    dht.AddPeers(peers);
  }
  sim::Scheduler scheduler;
  sim::Network network;
  Dht dht;
};

sim::NodeIndex LocateSync(ChurnNet& net, sim::NodeIndex from,
                          const std::string& key) {
  std::optional<sim::NodeIndex> owner;
  net.dht.peer(from)->Locate(key,
                             [&](Result<sim::NodeIndex> o) { owner = o.value(); });
  net.scheduler.RunUntilIdle();
  EXPECT_TRUE(owner.has_value());
  return owner.value_or(0);
}

TEST(ChurnTest, RoutingStaysConsistentThroughJoins) {
  ChurnNet net(8);
  for (int round = 0; round < 10; ++round) {
    net.dht.AddPeer();
    net.dht.Stabilize();
    for (int k = 0; k < 10; ++k) {
      const std::string key = "key" + std::to_string(round * 10 + k);
      const sim::NodeIndex expected = net.dht.OwnerOf(HashKey(key));
      EXPECT_EQ(LocateSync(net, round % 8, key), expected) << key;
    }
  }
  EXPECT_EQ(net.dht.PeerCount(), 18u);
}

TEST(ChurnTest, RoutingStaysConsistentThroughFailures) {
  ChurnNet net(24);
  // Fail a third of the network one peer at a time.
  for (int round = 0; round < 8; ++round) {
    const sim::NodeIndex victim = static_cast<sim::NodeIndex>(3 * round + 1);
    net.dht.FailPeer(victim);
    net.dht.Stabilize();
    for (int k = 0; k < 8; ++k) {
      const std::string key =
          std::string("k").append(std::to_string(round * 8 + k));
      const sim::NodeIndex expected = net.dht.OwnerOf(HashKey(key));
      const sim::NodeIndex from = static_cast<sim::NodeIndex>(3 * round + 2);
      EXPECT_EQ(LocateSync(net, from, key), expected);
      EXPECT_NE(expected, victim);
    }
  }
  EXPECT_EQ(net.dht.LivePeerCount(), 16u);
}

TEST(ChurnTest, MixedChurnWithReplicatedDataKeepsQueriesComplete) {
  xml::corpus::DblpOptions copt;
  copt.target_bytes = 150 << 10;
  auto docs = xml::corpus::GenerateDblp(copt);

  core::KadopOptions opt;
  opt.peers = 12;
  opt.enable_dpp = false;  // replication covers the flat index
  opt.dht.replication = 3;
  core::KadopNet net(opt);
  std::vector<const xml::Document*> ptrs;
  for (const auto& d : docs) ptrs.push_back(&d);
  net.PublishAndWait(2, ptrs);

  query::QueryOptions qopt;
  qopt.strategy = query::QueryStrategy::kBaseline;
  const char* expr = "//article//author[. contains 'Ullman']";
  auto before = net.QueryAndWait(5, expr, qopt);
  ASSERT_TRUE(before.ok());
  const size_t expected = before.value().answers.size();
  ASSERT_GT(expected, 0u);

  // Interleave joins and failures (never failing the publisher or the
  // query peer); replication + restabilization must preserve answers.
  const sim::NodeIndex joined1 = net.JoinPeerAndWait();
  EXPECT_EQ(joined1, net.PeerCount() - 1);
  net.FailPeerAndStabilize(7);
  const sim::NodeIndex joined2 = net.JoinPeerAndWait();
  EXPECT_EQ(joined2, net.PeerCount() - 1);
  net.FailPeerAndStabilize(9);

  auto after = net.QueryAndWait(5, expr, qopt);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after.value().metrics.complete);
  EXPECT_EQ(after.value().answers.size(), expected);
}

TEST(ChurnTest, CrashRestartCyclesKeepRoutingAndData) {
  ChurnNet net(16);
  // Seed data while everyone is up.
  std::vector<std::string> keys;
  for (int k = 0; k < 12; ++k) keys.push_back("crk" + std::to_string(k));
  for (const auto& key : keys) {
    bool acked = false;
    net.dht.peer(0)->Append(key, {index::Posting{1, 7, {1, 2, 2}}},
                            [&](Status) { acked = true; });
    net.scheduler.RunUntilIdle();
    EXPECT_TRUE(acked);
  }

  for (int round = 0; round < 4; ++round) {
    const sim::NodeIndex a = static_cast<sim::NodeIndex>(round * 3 + 1);
    const sim::NodeIndex b = static_cast<sim::NodeIndex>(round * 3 + 2);
    net.dht.FailPeer(a);
    net.dht.FailPeer(b);
    net.dht.Stabilize();
    for (const auto& key : keys) {
      const sim::NodeIndex expected = net.dht.OwnerOf(HashKey(key));
      EXPECT_NE(expected, a);
      EXPECT_NE(expected, b);
      EXPECT_EQ(LocateSync(net, 0, key), expected) << key;
    }
    net.dht.RestartPeer(a);
    net.dht.RestartPeer(b);
    net.dht.Stabilize();
    // Restarted peers route again, both as origin and as owner.
    for (const auto& key : keys) {
      EXPECT_EQ(LocateSync(net, a, key), net.dht.OwnerOf(HashKey(key))) << key;
    }
  }

  // Stores survive the crash/restart cycles: every key is still readable
  // with its original posting (no replication involved — the data came back
  // with its restarted owner).
  for (const auto& key : keys) {
    std::optional<GetResult> got;
    net.dht.peer(3)->Get(key, [&](GetResult r) { got = std::move(r); });
    net.scheduler.RunUntilIdle();
    ASSERT_TRUE(got.has_value()) << key;
    EXPECT_TRUE(got->complete) << key;
    EXPECT_EQ(got->postings.size(), 1u) << key;
  }
}

TEST(ChurnTest, ScheduledCrashRestartEventsPreserveQueryCompleteness) {
  xml::corpus::DblpOptions copt;
  copt.target_bytes = 120 << 10;
  auto docs = xml::corpus::GenerateDblp(copt);

  core::KadopOptions opt;
  opt.peers = 12;
  core::KadopNet net(opt);
  std::vector<const xml::Document*> ptrs;
  for (const auto& d : docs) ptrs.push_back(&d);
  net.PublishAndWait(2, ptrs);

  query::QueryOptions qopt;
  qopt.strategy = query::QueryStrategy::kDpp;
  const char* expr = "//article//author";
  auto before = net.QueryAndWait(5, expr, qopt);
  ASSERT_TRUE(before.ok());
  const size_t expected = before.value().answers.size();
  ASSERT_GT(expected, 0u);

  auto& registry = obs::MetricRegistry::Default();
  const uint64_t crashes0 = registry.GetCounter("fault.crashes")->value();
  const uint64_t restarts0 = registry.GetCounter("fault.restarts")->value();

  // A pure crash/restart schedule on the virtual clock (no message faults):
  // two peers die shortly after each other, then come back. Stores are
  // durable, so once the schedule has played out queries are complete again.
  const double t0 = net.scheduler().Now();
  net.EnableFaults(sim::FaultOptions{},
                   {sim::CrashEvent{t0 + 0.5, 7, /*up=*/false},
                    sim::CrashEvent{t0 + 0.7, 9, /*up=*/false},
                    sim::CrashEvent{t0 + 2.0, 7, /*up=*/true},
                    sim::CrashEvent{t0 + 2.5, 9, /*up=*/true}});
  net.RunToIdle();
  net.DisableFaults();
  EXPECT_EQ(registry.GetCounter("fault.crashes")->value(), crashes0 + 2);
  EXPECT_EQ(registry.GetCounter("fault.restarts")->value(), restarts0 + 2);

  auto after = net.QueryAndWait(5, expr, qopt);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after.value().metrics.complete);
  EXPECT_EQ(after.value().answers.size(), expected);
}

TEST(ChurnTest, HopCountsStayLogarithmicAfterChurn) {
  ChurnNet net(64);
  for (int i = 0; i < 16; ++i) {
    net.dht.AddPeer();
  }
  net.dht.Stabilize();
  for (int i = 0; i < 8; ++i) {
    net.dht.FailPeer(static_cast<sim::NodeIndex>(i * 7 + 3));
  }
  net.dht.Stabilize();

  const obs::Counter* hops =
      obs::MetricRegistry::Default().GetCounter("dht.route_hops");
  const int lookups = 40;
  for (int i = 0; i < lookups; ++i) {
    // Only issue lookups from live peers (a failed origin cannot receive
    // the response).
    sim::NodeIndex from = static_cast<sim::NodeIndex>((i * 11 + 1) % 64);
    while (!net.network.IsNodeUp(from)) from = (from + 1) % 64;
    const uint64_t before = hops->value();
    LocateSync(net, from, "key" + std::to_string(i));
    // Digit bound over 72 live peers: ceil(log16 72) + 1 = 3 hops.
    EXPECT_LE(hops->value() - before, 3u) << i;
  }
}

}  // namespace
}  // namespace kadop::dht
