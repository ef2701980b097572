#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "dht/dht.h"
#include "dht/ring.h"
#include "obs/metrics.h"

namespace kadop::dht {
namespace {

using index::Posting;
using index::PostingList;

Posting MakePosting(uint32_t peer, uint32_t doc, uint32_t start) {
  return Posting{peer, doc, {start, start + 1, 1}};
}

struct TestNet {
  explicit TestNet(size_t peers, DhtOptions options = {})
      : network(&scheduler), dht(&scheduler, &network, options) {
    dht.AddPeers(peers);
  }
  sim::Scheduler scheduler;
  sim::Network network;
  Dht dht;
};

TEST(RingTest, HalfOpenIntervalWithWraparound) {
  EXPECT_TRUE(InHalfOpen(5, 3, 7));
  EXPECT_TRUE(InHalfOpen(7, 3, 7));
  EXPECT_FALSE(InHalfOpen(3, 3, 7));
  EXPECT_FALSE(InHalfOpen(8, 3, 7));
  // Wrapped interval (7, 3].
  EXPECT_TRUE(InHalfOpen(9, 7, 3));
  EXPECT_TRUE(InHalfOpen(1, 7, 3));
  EXPECT_TRUE(InHalfOpen(3, 7, 3));
  EXPECT_FALSE(InHalfOpen(5, 7, 3));
  // Degenerate interval covers everything.
  EXPECT_TRUE(InHalfOpen(42, 9, 9));
}

TEST(RingTest, OpenInterval) {
  EXPECT_TRUE(InOpen(5, 3, 7));
  EXPECT_FALSE(InOpen(7, 3, 7));
  EXPECT_FALSE(InOpen(3, 3, 7));
  EXPECT_TRUE(InOpen(1, 7, 3));
  EXPECT_FALSE(InOpen(7, 7, 3));
}

TEST(DhtTest, OwnershipPartitionsTheRing) {
  TestNet net(20);
  // Every key has exactly one owner, and it is stable.
  for (int i = 0; i < 200; ++i) {
    const KeyId key = HashKey("key" + std::to_string(i));
    const sim::NodeIndex owner = net.dht.OwnerOf(key);
    EXPECT_EQ(owner, net.dht.OwnerOf(key));
    EXPECT_LT(owner, net.dht.PeerCount());
  }
}

TEST(DhtTest, LocateResolvesToTrueOwnerViaRouting) {
  TestNet net(32);
  for (int i = 0; i < 20; ++i) {
    const std::string key = "term" + std::to_string(i);
    std::optional<sim::NodeIndex> located;
    net.dht.peer(0)->Locate(key, [&](Result<sim::NodeIndex> owner) {
      located = owner.value();
    });
    net.scheduler.RunUntilIdle();
    ASSERT_TRUE(located.has_value());
    EXPECT_EQ(*located, net.dht.OwnerOf(HashKey(key)));
  }
}

TEST(DhtTest, RoutingUsesLogarithmicHops) {
  const obs::Counter* hops =
      obs::MetricRegistry::Default().GetCounter("dht.route_hops");
  const uint64_t before = hops->value();
  TestNet net(256);
  for (int i = 0; i < 50; ++i) {
    net.dht.peer(i % 256)->Locate("key" + std::to_string(i),
                                  [](Result<sim::NodeIndex>) {});
  }
  net.scheduler.RunUntilIdle();
  const uint64_t route_hops = hops->value() - before;
  // Digit bound: ceil(log16 256) + 1 = 3 hops per lookup at most.
  EXPECT_LE(route_hops, 50 * 3u);
  EXPECT_GT(route_hops, 0u);
}

// Each NextHop rule picks the hop it names: the successor for a key in
// (self, successor], the key's owner itself when an entry's range holds
// the key, and otherwise an entry strictly between this peer and the key.
TEST(DhtTest, NextHopRulesPickTheirHops) {
  TestNet net(64);
  std::set<DhtPeer::HopRule> seen;
  for (sim::NodeIndex from = 0; from < 64; ++from) {
    const DhtPeer* peer = net.dht.peer(from);
    for (int k = 0; k < 50; ++k) {
      const KeyId key = HashKey("key" + std::to_string(k));
      if (peer->IsResponsible(key)) continue;
      const DhtPeer::Hop hop = peer->NextHop(key);
      seen.insert(hop.rule);
      const KeyId next = net.dht.peer(hop.node)->id();
      switch (hop.rule) {
        case DhtPeer::HopRule::kSuccessor:
          EXPECT_EQ(next, peer->routing().successor_id);
          break;
        case DhtPeer::HopRule::kRange:
          EXPECT_EQ(hop.node, net.dht.OwnerOf(key));
          break;
        case DhtPeer::HopRule::kPreceding:
          EXPECT_TRUE(InOpen(next, peer->id(), key));
          break;
      }
    }
  }
  EXPECT_EQ(seen.size(), 3u);
}

/// ceil(log16 peers) + 1: the most hops a digit-table route takes.
uint64_t DigitHopBound(size_t peers) {
  uint64_t digits = 0;
  for (size_t span = 1; span < peers; span *= 16) ++digits;
  return digits + 1;
}

// A Locate from every peer to each of 200 keys returns the key's owner in
// at most ceil(log16 n) + 1 hops, on a stable ring and again right after a
// peer failed and the ring re-stabilized.
TEST(DhtTest, LocateReachesTheOwnerWithinTheDigitBound) {
  const obs::Counter* hops =
      obs::MetricRegistry::Default().GetCounter("dht.route_hops");
  for (const size_t peers : {12u, 64u, 500u}) {
    TestNet net(peers);
    const uint64_t bound = DigitHopBound(peers);
    for (const bool after_failure : {false, true}) {
      if (after_failure) {
        net.dht.FailPeer(static_cast<sim::NodeIndex>(peers / 2));
        net.dht.Stabilize();
      }
      const std::string what = std::to_string(peers) + " peers" +
                               (after_failure ? ", one failed" : "");
      uint64_t worst = 0;
      for (sim::NodeIndex from = 0; from < peers; ++from) {
        if (!net.network.IsNodeUp(from)) continue;
        for (int k = 0; k < 200; ++k) {
          const std::string key = "key" + std::to_string(k);
          std::optional<sim::NodeIndex> located;
          const uint64_t before = hops->value();
          net.dht.peer(from)->Locate(key, [&](Result<sim::NodeIndex> owner) {
            located = owner.value();
          });
          net.scheduler.RunUntilIdle();
          ASSERT_EQ(located, net.dht.OwnerOf(HashKey(key))) << what;
          worst = std::max(worst, hops->value() - before);
        }
      }
      EXPECT_LE(worst, bound) << what;
      EXPECT_GT(worst, 0u) << what;
    }
  }
}

TEST(DhtTest, AppendThenGetRoundTrips) {
  TestNet net(8);
  PostingList postings{MakePosting(1, 1, 1), MakePosting(1, 2, 5)};
  bool acked = false;
  net.dht.peer(3)->Append("l:author", postings, [&](Status) { acked = true; });
  net.scheduler.RunUntilIdle();
  EXPECT_TRUE(acked);

  std::optional<GetResult> got;
  net.dht.peer(5)->Get("l:author", [&](GetResult r) { got = std::move(r); });
  net.scheduler.RunUntilIdle();
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->complete);
  EXPECT_EQ(got->postings, postings);
}

TEST(DhtTest, GetOfMissingKeyReturnsEmpty) {
  TestNet net(4);
  std::optional<GetResult> got;
  net.dht.peer(0)->Get("l:nothing", [&](GetResult r) { got = std::move(r); });
  net.scheduler.RunUntilIdle();
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->complete);
  EXPECT_TRUE(got->postings.empty());
}

TEST(DhtTest, PipelinedGetStreamsBlocksInOrder) {
  TestNet net(8);
  PostingList postings;
  for (uint32_t i = 0; i < 1000; ++i) postings.push_back(MakePosting(1, i, 1));
  net.dht.peer(0)->Append("l:big", postings, nullptr);
  net.scheduler.RunUntilIdle();

  GetSpec spec;
  spec.key = "l:big";
  spec.pipelined = true;
  spec.block_postings = 100;
  PostingList received;
  int blocks = 0;
  bool saw_last = false;
  net.dht.peer(1)->GetBlocks(spec, [&](PostingList block, bool last,
                                       bool complete) {
    EXPECT_TRUE(complete);
    EXPECT_FALSE(saw_last);
    received.insert(received.end(), block.begin(), block.end());
    ++blocks;
    saw_last = last;
  });
  net.scheduler.RunUntilIdle();
  EXPECT_TRUE(saw_last);
  EXPECT_EQ(blocks, 10);
  EXPECT_EQ(received, postings);
}

TEST(DhtTest, RangeGetHonorsBounds) {
  TestNet net(8);
  PostingList postings;
  for (uint32_t i = 0; i < 100; ++i) postings.push_back(MakePosting(1, i, 1));
  net.dht.peer(0)->Append("l:x", postings, nullptr);
  net.scheduler.RunUntilIdle();

  GetSpec spec;
  spec.key = "l:x";
  spec.lo = Posting{1, 10, {0, 0, 0}};
  spec.hi = Posting{1, 19, {UINT32_MAX, UINT32_MAX, UINT16_MAX}};
  PostingList received;
  net.dht.peer(1)->GetBlocks(spec, [&](PostingList block, bool, bool) {
    received.insert(received.end(), block.begin(), block.end());
  });
  net.scheduler.RunUntilIdle();
  ASSERT_EQ(received.size(), 10u);
  EXPECT_EQ(received.front().doc, 10u);
  EXPECT_EQ(received.back().doc, 19u);
}

TEST(DhtTest, DeleteRemovesPosting) {
  TestNet net(4);
  const Posting p = MakePosting(1, 1, 1);
  net.dht.peer(0)->Append("l:a", {p, MakePosting(1, 2, 1)}, nullptr);
  net.scheduler.RunUntilIdle();
  net.dht.peer(0)->Delete("l:a", p);
  net.scheduler.RunUntilIdle();
  std::optional<GetResult> got;
  net.dht.peer(0)->Get("l:a", [&](GetResult r) { got = std::move(r); });
  net.scheduler.RunUntilIdle();
  ASSERT_EQ(got->postings.size(), 1u);
  EXPECT_EQ(got->postings[0].doc, 2u);
}

TEST(DhtTest, DeleteDocAsDeletePlusInsert) {
  TestNet net(4);
  net.dht.peer(0)->Append(
      "l:a", {MakePosting(7, 1, 1), MakePosting(7, 1, 5), MakePosting(7, 2, 1)},
      nullptr);
  net.scheduler.RunUntilIdle();
  net.dht.peer(0)->DeleteDoc("l:a", index::DocId{7, 1});
  net.scheduler.RunUntilIdle();
  std::optional<GetResult> got;
  net.dht.peer(1)->Get("l:a", [&](GetResult r) { got = std::move(r); });
  net.scheduler.RunUntilIdle();
  ASSERT_EQ(got->postings.size(), 1u);
  EXPECT_EQ(got->postings[0].doc, 2u);
}

TEST(DhtTest, BlobRoundTrip) {
  TestNet net(8);
  net.dht.peer(2)->PutBlob("doc:2:0", "uri://doc0");
  net.scheduler.RunUntilIdle();
  Status status = Status::Internal("no reply");
  std::string got;
  net.dht.peer(5)->GetBlob("doc:2:0", [&](Result<std::string> blob) {
    status = blob.status();
    if (blob.ok()) got = blob.value();
  });
  net.scheduler.RunUntilIdle();
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(got, "uri://doc0");

  status = Status::Internal("no reply");
  net.dht.peer(5)->GetBlob("doc:9:9", [&](Result<std::string> blob) {
    status = blob.status();
  });
  net.scheduler.RunUntilIdle();
  EXPECT_TRUE(status.IsNotFound());
}

TEST(DhtTest, GetTimeoutYieldsIncompleteResult) {
  DhtOptions options;
  options.retry.timeout_s = 1.0;
  options.retry.max_retries = 0;
  TestNet net(8, options);
  PostingList postings{MakePosting(1, 1, 1)};
  net.dht.peer(0)->Append("l:a", postings, nullptr);
  net.scheduler.RunUntilIdle();
  const sim::NodeIndex owner = net.dht.OwnerOf(HashKey("l:a"));
  // Fail the owner; a get against it must time out incomplete.
  sim::NodeIndex requester = (owner + 1) % 8;
  net.network.SetNodeUp(owner, false);
  std::optional<GetResult> got;
  net.dht.peer(requester)->Get("l:a",
                               [&](GetResult r) { got = std::move(r); });
  net.scheduler.RunUntilIdle();
  ASSERT_TRUE(got.has_value());
  EXPECT_FALSE(got->complete);
}

TEST(DhtTest, ReplicationServesDataAfterOwnerFailure) {
  DhtOptions options;
  options.replication = 3;
  TestNet net(10, options);
  PostingList postings{MakePosting(1, 1, 1), MakePosting(1, 2, 1)};
  bool acked = false;
  net.dht.peer(0)->Append("l:a", postings, [&](Status) { acked = true; });
  net.scheduler.RunUntilIdle();
  ASSERT_TRUE(acked);

  const sim::NodeIndex owner = net.dht.OwnerOf(HashKey("l:a"));
  net.dht.FailPeer(owner);
  net.dht.Stabilize();

  const sim::NodeIndex requester =
      owner == 0 ? 1 : 0;
  std::optional<GetResult> got;
  net.dht.peer(requester)->Get("l:a", [&](GetResult r) {
    got = std::move(r);
  });
  net.scheduler.RunUntilIdle();
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->complete);
  EXPECT_EQ(got->postings, postings);
}

TEST(DhtTest, AppRequestResponse) {
  TestNet net(8);
  // Echo handler on every peer.
  struct EchoPayload final : sim::Payload {
    int value = 0;
    size_t SizeBytes() const override { return 4; }
    std::string_view TypeName() const override { return "EchoPayload"; }
  };
  for (size_t i = 0; i < 8; ++i) {
    DhtPeer* p = net.dht.peer(static_cast<sim::NodeIndex>(i));
    p->SetAppHandler([p](const AppRequest& req, sim::NodeIndex) {
      auto* echo = dynamic_cast<const EchoPayload*>(req.inner.get());
      ASSERT_NE(echo, nullptr);
      auto resp = std::make_shared<EchoPayload>();
      resp->value = echo->value + 1;
      p->Reply(req.origin, req.req_id, std::move(resp),
               sim::TrafficCategory::kControl);
    });
  }
  auto req = std::make_shared<EchoPayload>();
  req->value = 41;
  std::optional<int> answer;
  net.dht.peer(0)->RouteApp("some-key", req, sim::TrafficCategory::kControl,
                            [&](sim::PayloadPtr inner) {
                              answer =
                                  dynamic_cast<EchoPayload*>(inner.get())
                                      ->value;
                            });
  net.scheduler.RunUntilIdle();
  ASSERT_TRUE(answer.has_value());
  EXPECT_EQ(*answer, 42);
}

TEST(DhtTest, SinglePeerNetworkWorks) {
  TestNet net(1);
  PostingList postings{MakePosting(0, 0, 1)};
  bool acked = false;
  net.dht.peer(0)->Append("l:a", postings, [&](Status) { acked = true; });
  net.scheduler.RunUntilIdle();
  EXPECT_TRUE(acked);
  std::optional<GetResult> got;
  net.dht.peer(0)->Get("l:a", [&](GetResult r) { got = std::move(r); });
  net.scheduler.RunUntilIdle();
  EXPECT_EQ(got->postings, postings);
}

TEST(DhtTest, StoreKindSelectsImplementation) {
  DhtOptions naive;
  naive.store_kind = StoreKind::kNaive;
  TestNet a(4, naive);
  TestNet b(4);  // default btree
  PostingList postings;
  for (uint32_t i = 0; i < 200; ++i) postings.push_back(MakePosting(1, i, 1));
  for (const auto& p : postings) {
    a.dht.peer(0)->Append("l:a", {p}, nullptr);
    b.dht.peer(0)->Append("l:a", {p}, nullptr);
  }
  a.scheduler.RunUntilIdle();
  b.scheduler.RunUntilIdle();
  // Same contents, wildly different I/O cost.
  EXPECT_GT(a.dht.AggregateIo().read_bytes,
            10 * b.dht.AggregateIo().read_bytes + 1);
}

// -- Owner hints ------------------------------------------------------------

obs::MetricsSnapshot Since(const obs::MetricsSnapshot& base) {
  return obs::MetricRegistry::Default().Snapshot().DiffSince(base);
}

obs::MetricsSnapshot Now() { return obs::MetricRegistry::Default().Snapshot(); }

/// Replies with the node index of the peer that handled the request.
struct WhoPayload final : sim::Payload {
  sim::NodeIndex node = 0;
  size_t SizeBytes() const override { return 4; }
  std::string_view TypeName() const override { return "WhoPayload"; }
};

/// A network holding `postings` under `key` at its owner, with a
/// who-answered handler on every peer.
struct HintNet : TestNet {
  HintNet(const std::string& key, const PostingList& postings)
      : TestNet(64), owner(dht.OwnerOf(HashKey(key))) {
    dht.peer(owner)->Append(key, postings, nullptr);
    scheduler.RunUntilIdle();
    for (size_t i = 0; i < dht.PeerCount(); ++i) {
      DhtPeer* p = dht.peer(static_cast<sim::NodeIndex>(i));
      p->SetAppHandler([p](const AppRequest& req, sim::NodeIndex) {
        auto resp = std::make_shared<WhoPayload>();
        resp->node = p->node();
        p->Reply(req.origin, req.req_id, std::move(resp),
                 sim::TrafficCategory::kControl);
      });
    }
    // A requester the ring puts at least two routed hops from the owner,
    // so a one-hop delivery can only come from the hint.
    for (sim::NodeIndex n = 0; n < dht.PeerCount(); ++n) {
      if (n == owner) continue;
      const obs::MetricsSnapshot base = Now();
      dht.peer(n)->Locate(key, [](Result<sim::NodeIndex>) {});
      scheduler.RunUntilIdle();
      if (Since(base).histograms.at("dht.hops_per_delivery").sum >= 2) {
        requester = n;
        break;
      }
    }
    // Any live peer that is neither the owner nor the requester.
    while (bystander == owner || bystander == requester) ++bystander;
  }

  /// Reads `spec` from the requester; the postings, or nullopt when the
  /// get did not complete.
  std::optional<PostingList> Read(const GetSpec& spec) {
    PostingList got;
    bool done = false;
    bool ok = true;
    dht.peer(requester)->GetBlocks(
        spec, [&](PostingList block, bool last, bool complete) {
          ok = ok && complete;
          got.insert(got.end(), block.begin(), block.end());
          done = last;
        });
    scheduler.RunUntilIdle();
    if (!done || !ok) return std::nullopt;
    return got;
  }

  /// Routes an app request from the requester; the node that answered.
  std::optional<sim::NodeIndex> Ask(const std::string& key,
                                    std::optional<sim::NodeIndex> hint,
                                    RetryPolicy retry = {}) {
    std::optional<sim::NodeIndex> answered;
    dht.peer(requester)->RouteApp(
        key, std::make_shared<WhoPayload>(), sim::TrafficCategory::kControl,
        [&](sim::PayloadPtr inner) {
          const auto* who = dynamic_cast<const WhoPayload*>(inner.get());
          if (who != nullptr) answered = who->node;
        },
        retry, hint);
    scheduler.RunUntilIdle();
    return answered;
  }

  const sim::NodeIndex owner;
  sim::NodeIndex requester = owner;
  sim::NodeIndex bystander = 0;
};

PostingList HintPostings() {
  PostingList postings;
  for (uint32_t i = 0; i < 50; ++i) postings.push_back(MakePosting(2, i, 1));
  return postings;
}

TEST(DhtHintTest, HintedReadsReachTheOwnerInOneHop) {
  const PostingList postings = HintPostings();
  HintNet net("l:hinted", postings);
  ASSERT_NE(net.requester, net.owner);

  GetSpec spec;
  spec.key = "l:hinted";
  spec.owner_hint = net.owner;
  obs::MetricsSnapshot base = Now();
  EXPECT_EQ(net.Read(spec), postings);
  obs::MetricsSnapshot d = Since(base);
  // Delivered once, with RouteEnvelope::hops == 1.
  EXPECT_EQ(d.histograms.at("dht.hops_per_delivery").count, 1u);
  EXPECT_EQ(d.histograms.at("dht.hops_per_delivery").sum, 1.0);
  EXPECT_EQ(d.counters.at("dht.route_hops"), 1u);
  EXPECT_EQ(d.counters.at("dht.hint.sends"), 1u);
  EXPECT_EQ(d.counters.at("dht.hint.forwards"), 0u);

  base = Now();
  EXPECT_EQ(net.Ask("l:hinted", net.owner), net.owner);
  d = Since(base);
  EXPECT_EQ(d.histograms.at("dht.hops_per_delivery").count, 1u);
  EXPECT_EQ(d.histograms.at("dht.hops_per_delivery").sum, 1.0);
  EXPECT_EQ(d.counters.at("dht.hint.sends"), 1u);
  EXPECT_EQ(d.counters.at("dht.hint.forwards"), 0u);
}

TEST(DhtHintTest, StaleHintIsForwardedToTheOwner) {
  const PostingList postings = HintPostings();
  HintNet net("l:hinted", postings);
  ASSERT_NE(net.requester, net.owner);

  GetSpec spec;
  spec.key = "l:hinted";
  const std::optional<PostingList> routed = net.Read(spec);
  ASSERT_TRUE(routed.has_value());
  EXPECT_EQ(*routed, postings);

  // A live peer that does not own the key routes the envelope on.
  spec.owner_hint = net.bystander;
  obs::MetricsSnapshot base = Now();
  EXPECT_EQ(net.Read(spec), routed);
  obs::MetricsSnapshot d = Since(base);
  EXPECT_EQ(d.counters.at("dht.hint.sends"), 1u);
  EXPECT_EQ(d.counters.at("dht.hint.forwards"), 1u);
  EXPECT_EQ(d.histograms.at("dht.hops_per_delivery").count, 1u);
  EXPECT_GE(d.histograms.at("dht.hops_per_delivery").sum, 1.0);

  base = Now();
  EXPECT_EQ(net.Ask("l:hinted", net.bystander), net.owner);
  d = Since(base);
  EXPECT_EQ(d.counters.at("dht.hint.sends"), 1u);
  EXPECT_EQ(d.counters.at("dht.hint.forwards"), 1u);
}

TEST(DhtHintTest, HintAtACrashedPeerResolvesOnTheRoutedRetry) {
  const PostingList postings = HintPostings();
  HintNet net("l:hinted", postings);
  ASSERT_NE(net.requester, net.owner);
  net.dht.FailPeer(net.bystander);
  net.dht.Stabilize();

  RetryPolicy retry;
  retry.timeout_s = 0.5;
  GetSpec spec;
  spec.key = "l:hinted";
  spec.retry = retry;
  spec.owner_hint = net.bystander;
  obs::MetricsSnapshot base = Now();
  const double start = net.scheduler.Now();
  EXPECT_EQ(net.Read(spec), postings);
  // One lost hinted attempt, then the routed retry.
  EXPECT_LT(net.scheduler.Now() - start, 2 * retry.timeout_s);
  obs::MetricsSnapshot d = Since(base);
  EXPECT_EQ(d.counters.at("dht.hint.sends"), 1u);
  EXPECT_EQ(d.counters.at("dht.retries"), 1u);

  base = Now();
  EXPECT_EQ(net.Ask("l:hinted", net.bystander, retry), net.owner);
  d = Since(base);
  EXPECT_EQ(d.counters.at("dht.hint.sends"), 1u);
  EXPECT_EQ(d.counters.at("dht.retries"), 1u);
}

// The key's owner crashed and the ring handed its range to the heir. A
// send from the heir hinted at the dead owner is delivered at the heir at
// once: no one-hop send to the dead node, no timeout, no retry.
TEST(DhtHintTest, HintAtTheDeadOwnerOfAnInheritedKeyIsDeliveredLocally) {
  HintNet net("l:hinted", HintPostings());
  const sim::NodeIndex dead = net.owner;
  net.dht.FailPeer(dead);
  net.dht.Stabilize();
  const sim::NodeIndex heir = net.dht.OwnerOf(HashKey("l:hinted"));
  ASSERT_NE(heir, dead);
  DhtPeer* p = net.dht.peer(heir);
  RetryPolicy retry;
  retry.timeout_s = 0.5;

  GetSpec spec;
  spec.key = "l:hinted";
  spec.retry = retry;
  spec.owner_hint = dead;
  obs::MetricsSnapshot base = Now();
  double start = net.scheduler.Now();
  bool done = false;
  p->GetBlocks(spec, [&](PostingList, bool last, bool complete) {
    EXPECT_TRUE(complete);
    done = done || last;
  });
  net.scheduler.RunUntilIdle();
  EXPECT_TRUE(done);
  EXPECT_LT(net.scheduler.Now() - start, retry.timeout_s);
  obs::MetricsSnapshot d = Since(base);
  EXPECT_EQ(d.counters.at("dht.hint.sends"), 0u);
  EXPECT_EQ(d.counters.at("dht.retries"), 0u);

  base = Now();
  start = net.scheduler.Now();
  std::optional<sim::NodeIndex> answered;
  p->RouteApp(
      "l:hinted", std::make_shared<WhoPayload>(),
      sim::TrafficCategory::kControl,
      [&](sim::PayloadPtr inner) {
        const auto* who = dynamic_cast<const WhoPayload*>(inner.get());
        if (who != nullptr) answered = who->node;
      },
      retry, OwnerHint(dead));
  net.scheduler.RunUntilIdle();
  EXPECT_EQ(answered, heir);
  EXPECT_LT(net.scheduler.Now() - start, retry.timeout_s);
  d = Since(base);
  EXPECT_EQ(d.counters.at("dht.hint.sends"), 0u);
  EXPECT_EQ(d.counters.at("dht.retries"), 0u);
}

// -- Owner cache ------------------------------------------------------------

TEST(OwnerCacheTest, RoutedGetTeachesTheOwnerAndWarmReadsTakeOneHop) {
  const PostingList postings = HintPostings();
  HintNet net("l:hinted", postings);
  ASSERT_NE(net.requester, net.owner);
  DhtPeer* requester = net.dht.peer(net.requester);
  EXPECT_FALSE(requester->KnownOwner("l:hinted").has_value());

  // A hinted attempt teaches nothing: its owner was already named.
  GetSpec spec;
  spec.key = "l:hinted";
  spec.owner_hint = net.owner;
  ASSERT_EQ(net.Read(spec), postings);
  EXPECT_FALSE(requester->KnownOwner("l:hinted").has_value());

  spec.owner_hint.reset();
  ASSERT_EQ(net.Read(spec), postings);
  // The first block came from the owner: the requester remembers it.
  const std::optional<OwnerHint> known = requester->KnownOwner("l:hinted");
  ASSERT_TRUE(known.has_value());
  EXPECT_EQ(known->node, net.owner);
  EXPECT_TRUE(known->cached);
  EXPECT_EQ(requester->KnownOwnerCount(), 1u);

  // A read hinted from the cache arrives in one hop.
  spec.owner_hint = known;
  const obs::MetricsSnapshot base = Now();
  EXPECT_EQ(net.Read(spec), postings);
  const obs::MetricsSnapshot d = Since(base);
  EXPECT_EQ(d.histograms.at("dht.hops_per_delivery").count, 1u);
  EXPECT_EQ(d.histograms.at("dht.hops_per_delivery").sum, 1.0);
  EXPECT_EQ(d.counters.at("dht.hint.sends"), 1u);
  EXPECT_EQ(d.counters.at("dht.hint.cached"), 1u);
  EXPECT_EQ(d.counters.at("dht.hint.forwards"), 0u);
}

TEST(OwnerCacheTest, StaleCachedOwnerIsForwarded) {
  const PostingList postings = HintPostings();
  HintNet net("l:hinted", postings);
  ASSERT_NE(net.requester, net.owner);
  DhtPeer* requester = net.dht.peer(net.requester);
  // A planted entry naming a live peer that does not own the key.
  requester->LearnOwner("l:hinted", net.bystander);

  GetSpec spec;
  spec.key = "l:hinted";
  spec.owner_hint = requester->KnownOwner("l:hinted");
  const obs::MetricsSnapshot base = Now();
  EXPECT_EQ(net.Read(spec), postings);
  const obs::MetricsSnapshot d = Since(base);
  EXPECT_EQ(d.counters.at("dht.hint.sends"), 1u);
  EXPECT_EQ(d.counters.at("dht.hint.cached"), 1u);
  EXPECT_EQ(d.counters.at("dht.hint.forwards"), 1u);
  // The next get routed through the ring corrects the entry.
  spec.owner_hint.reset();
  EXPECT_EQ(net.Read(spec), postings);
  EXPECT_EQ(requester->KnownOwner("l:hinted")->node, net.owner);
}

// The reply to an app request routed through the ring comes from the
// key's owner and teaches the cache. A hinted attempt's owner was already
// named, and a direct CallApp names no key: neither reply teaches.
TEST(OwnerCacheTest, OnlyARingRoutedAppReplyTeachesTheOwner) {
  HintNet net("l:hinted", HintPostings());
  ASSERT_NE(net.requester, net.owner);
  DhtPeer* requester = net.dht.peer(net.requester);

  EXPECT_EQ(net.Ask("l:hinted", net.owner), net.owner);
  EXPECT_EQ(net.Ask("l:hinted", net.bystander), net.owner);  // forwarded
  std::optional<sim::NodeIndex> answered;
  requester->CallApp(net.owner, std::make_shared<WhoPayload>(),
                     sim::TrafficCategory::kControl,
                     [&](sim::PayloadPtr inner) {
                       const auto* who =
                           dynamic_cast<const WhoPayload*>(inner.get());
                       if (who != nullptr) answered = who->node;
                     });
  net.scheduler.RunUntilIdle();
  EXPECT_EQ(answered, net.owner);
  EXPECT_EQ(requester->KnownOwnerCount(), 0u);

  EXPECT_EQ(net.Ask("l:hinted", std::nullopt), net.owner);
  const std::optional<OwnerHint> known = requester->KnownOwner("l:hinted");
  ASSERT_TRUE(known.has_value());
  EXPECT_EQ(known->node, net.owner);
  EXPECT_EQ(requester->KnownOwnerCount(), 1u);

  // A hinted attempt lost at a crashed peer is retried through the ring:
  // that attempt's reply teaches the cache again (the ring change emptied
  // it).
  net.dht.FailPeer(net.bystander);
  net.dht.Stabilize();
  ASSERT_EQ(requester->KnownOwnerCount(), 0u);
  RetryPolicy retry;
  retry.timeout_s = 0.5;
  EXPECT_EQ(net.Ask("l:hinted", net.bystander, retry), net.owner);
  ASSERT_TRUE(requester->KnownOwner("l:hinted").has_value());
  EXPECT_EQ(requester->KnownOwner("l:hinted")->node, net.owner);
}

TEST(OwnerCacheTest, AddPeersEmptiesEveryCache) {
  TestNet net(16);
  net.dht.peer(0)->Append("l:a", {MakePosting(1, 1, 1)}, nullptr);
  net.scheduler.RunUntilIdle();
  for (sim::NodeIndex n = 0; n < net.dht.PeerCount(); ++n) {
    net.dht.peer(n)->Get("l:a", [](const GetResult&) {});
  }
  net.scheduler.RunUntilIdle();
  for (sim::NodeIndex n = 0; n < net.dht.PeerCount(); ++n) {
    ASSERT_EQ(net.dht.peer(n)->KnownOwnerCount(), 1u) << n;
  }
  net.dht.AddPeers(2);
  for (sim::NodeIndex n = 0; n < net.dht.PeerCount(); ++n) {
    EXPECT_EQ(net.dht.peer(n)->KnownOwnerCount(), 0u) << n;
  }
}

// -- Retry budget -----------------------------------------------------------

// Every request kind that awaits a reply spends one retry budget the same
// way: each attempt times out, the next goes out after its backoff, and the
// last timeout gives up exactly once, RetryPolicy::SpanS() after the first
// send, through the kind's callback.
TEST(DhtRetryTest, EveryRequestKindSpendsOneBudget) {
  RetryPolicy policy;
  policy.timeout_s = 0.2;
  policy.max_retries = 2;
  DhtOptions options;
  options.retry = policy;  // the only policy of Get, Locate and GetBlob
  TestNet net(8, options);
  const std::string key = "l:a";
  // The owner dies before it can ever reply; no restabilization, so every
  // attempt keeps aiming at the corpse.
  const sim::NodeIndex owner = net.dht.OwnerOf(HashKey(key));
  net.dht.FailPeer(owner);
  DhtPeer* requester = net.dht.peer((owner + 1) % 8);

  // Each kind sends one request and reports whether its give-up was the
  // kind's: DeadlineExceeded (which a locate or blob get's caller tells
  // apart from a reply), an incomplete last block, or nullptr.
  using GaveUp = std::function<void(bool as_expected)>;
  struct Kind {
    std::string name;
    bool is_get;
    std::function<void(GaveUp)> start;
  };
  const std::vector<Kind> kinds = {
      {"Get", true,
       [&](GaveUp gave_up) {
         requester->Get(key, [gave_up](GetResult r) {
           gave_up(!r.complete && r.status.IsDeadlineExceeded());
         });
       }},
      {"GetBlocks", true,
       [&](GaveUp gave_up) {
         GetSpec spec;
         spec.key = key;
         spec.pipelined = true;
         spec.retry = policy;
         requester->GetBlocks(
             spec, [gave_up](PostingList block, bool last, bool complete) {
               gave_up(block.empty() && last && !complete);
             });
       }},
      {"RouteApp", false,
       [&](GaveUp gave_up) {
         requester->RouteApp(
             key, std::make_shared<WhoPayload>(),
             sim::TrafficCategory::kControl,
             [gave_up](sim::PayloadPtr inner) { gave_up(inner == nullptr); },
             policy);
       }},
      {"CallApp", false,
       [&](GaveUp gave_up) {
         requester->CallApp(
             owner, std::make_shared<WhoPayload>(),
             sim::TrafficCategory::kControl,
             [gave_up](sim::PayloadPtr inner) { gave_up(inner == nullptr); },
             policy);
       }},
      {"Append", false,
       [&](GaveUp gave_up) {
         requester->Append(
             key, {MakePosting(1, 1, 1)},
             [gave_up](Status s) { gave_up(s.IsDeadlineExceeded()); }, {},
             policy);
       }},
      {"Locate", false,
       [&](GaveUp gave_up) {
         requester->Locate(key, [gave_up](Result<sim::NodeIndex> owner) {
           gave_up(owner.status().IsDeadlineExceeded());
         });
       }},
      {"GetBlob", false,
       [&](GaveUp gave_up) {
         requester->GetBlob(key, [gave_up](Result<std::string> blob) {
           gave_up(blob.status().IsDeadlineExceeded());
         });
       }},
  };
  for (const Kind& kind : kinds) {
    SCOPED_TRACE(kind.name);
    const obs::MetricsSnapshot base = Now();
    const double t0 = net.scheduler.Now();
    std::vector<double> gave_up_at;
    bool as_expected = true;
    kind.start([&](bool ok) {
      gave_up_at.push_back(net.scheduler.Now());
      as_expected = as_expected && ok;
    });
    net.scheduler.RunUntilIdle();
    ASSERT_EQ(gave_up_at.size(), 1u);
    EXPECT_TRUE(as_expected);
    EXPECT_NEAR(gave_up_at[0], t0 + policy.SpanS(), 1e-9);
    const obs::MetricsSnapshot diff = Since(base);
    EXPECT_EQ(diff.CounterValue("dht.timeouts"), 3u);
    EXPECT_EQ(diff.CounterValue("dht.retries"), 2u);
    EXPECT_EQ(diff.CounterValue("dht.get_timeouts"), kind.is_get ? 3u : 0u);
    // The give-up took the request out of the table.
    EXPECT_EQ(requester->PendingRequestCount(), 0u);
  }
}

}  // namespace
}  // namespace kadop::dht
