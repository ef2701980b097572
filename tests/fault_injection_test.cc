// Seeded fault injection: each fault class (drop, duplication, jitter,
// slow peer) in isolation at the network layer, determinism of the fault
// schedule, and the client-side retry/timeout machinery built on top —
// including the regression that a Get aimed at a peer that dies before
// replying resolves with kDeadlineExceeded instead of hanging.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "dht/dht.h"
#include "dht/ring.h"
#include "obs/metrics.h"
#include "sim/fault_plan.h"
#include "sim/network.h"
#include "sim/scheduler.h"

namespace kadop {
namespace {

using dht::GetResult;
using index::Posting;
using index::PostingList;

// ---------------------------------------------------------------------------
// Network-level isolation of each fault class.

struct BytesPayload final : sim::Payload {
  size_t bytes;
  explicit BytesPayload(size_t b) : bytes(b) {}
  size_t SizeBytes() const override { return bytes; }
  std::string_view TypeName() const override { return "BytesPayload"; }
};

class Recorder final : public sim::Actor {
 public:
  void HandleMessage(const sim::Message& msg) override {
    arrivals.push_back({msg.from, clock ? clock->Now() : 0.0});
  }
  sim::Scheduler* clock = nullptr;
  std::vector<std::pair<sim::NodeIndex, sim::SimTime>> arrivals;
};

// The registry is process-wide, so each check reads a counter's growth
// since a snapshot taken before its scenario.
uint64_t CounterSince(const obs::MetricsSnapshot& base,
                      const std::string& name) {
  const obs::MetricsSnapshot now = obs::MetricRegistry::Default().Snapshot();
  return now.DiffSince(base).CounterValue(name);
}

sim::NetworkParams SimpleParams() {
  sim::NetworkParams p;
  p.hop_latency_s = 0.01;
  p.uplink_bytes_per_s = 1000.0;
  p.downlink_bytes_per_s = 4000.0;
  p.header_bytes = 0;
  return p;
}

class FaultNetworkTest : public ::testing::Test {
 protected:
  FaultNetworkTest() : net(&sched, SimpleParams()) {
    for (auto& r : actors) {
      r.clock = &sched;
      net.AddNode(&r);
    }
  }
  void Send(sim::NodeIndex from, sim::NodeIndex to, size_t bytes = 1000) {
    net.Send({from, to, sim::TrafficCategory::kControl,
              std::make_shared<BytesPayload>(bytes)});
  }
  const obs::MetricsSnapshot base = obs::MetricRegistry::Default().Snapshot();
  sim::Scheduler sched;
  sim::Network net;
  Recorder actors[4];
};

TEST_F(FaultNetworkTest, DropLosesTheMessageButChargesTheSender) {
  sim::FaultOptions fo;
  fo.drop_p = 1.0;
  sim::FaultPlan plan(fo);
  net.SetFaultPlan(&plan);
  const uint64_t bytes_before = net.traffic().bytes;
  Send(0, 1);
  sched.RunUntilIdle();
  EXPECT_TRUE(actors[1].arrivals.empty());
  EXPECT_EQ(CounterSince(base, "net.dropped"), 1u);
  EXPECT_EQ(CounterSince(base, "fault.drops"), 1u);
  // The sender transmitted: uplink bytes are still accounted.
  EXPECT_GT(net.traffic().bytes, bytes_before);
}

TEST_F(FaultNetworkTest, DuplicationDeliversTwiceInOrder) {
  sim::FaultOptions fo;
  fo.dup_p = 1.0;
  sim::FaultPlan plan(fo);
  net.SetFaultPlan(&plan);
  Send(0, 1);
  sched.RunUntilIdle();
  ASSERT_EQ(actors[1].arrivals.size(), 2u);
  EXPECT_EQ(CounterSince(base, "fault.dups"), 1u);
  // The copy queues behind the original on the receiver downlink.
  EXPECT_LT(actors[1].arrivals[0].second, actors[1].arrivals[1].second);
}

TEST_F(FaultNetworkTest, JitterDelaysDeliveryDeterministically) {
  // Fault-free baseline first.
  Send(0, 1);
  sched.RunUntilIdle();
  ASSERT_EQ(actors[1].arrivals.size(), 1u);
  const sim::SimTime baseline = actors[1].arrivals[0].second;

  auto jittered_arrival = [&] {
    const obs::MetricsSnapshot base2 =
        obs::MetricRegistry::Default().Snapshot();
    sim::Scheduler sched2;
    sim::Network net2(&sched2, SimpleParams());
    Recorder recv;
    Recorder send;
    send.clock = recv.clock = &sched2;
    net2.AddNode(&send);
    net2.AddNode(&recv);
    sim::FaultOptions fo;
    fo.jitter_mean_s = 0.05;
    sim::FaultPlan plan(fo);
    net2.SetFaultPlan(&plan);
    net2.Send({0, 1, sim::TrafficCategory::kControl,
               std::make_shared<BytesPayload>(1000)});
    sched2.RunUntilIdle();
    EXPECT_EQ(CounterSince(base2, "fault.delayed"), 1u);
    return recv.arrivals.at(0).second;
  };
  const sim::SimTime a = jittered_arrival();
  EXPECT_GT(a, baseline);
  EXPECT_EQ(a, jittered_arrival());  // same seed, bit-identical delay
}

TEST_F(FaultNetworkTest, SlowPeerPenalizesOnlyItsOwnSends) {
  sim::FaultOptions fo;
  fo.slow_extra_s = 0.5;
  fo.slow_peers = {2};
  sim::FaultPlan plan(fo);
  net.SetFaultPlan(&plan);
  Send(0, 1);  // fast sender
  Send(2, 3);  // slow sender
  sched.RunUntilIdle();
  ASSERT_EQ(actors[1].arrivals.size(), 1u);
  ASSERT_EQ(actors[3].arrivals.size(), 1u);
  EXPECT_NEAR(actors[3].arrivals[0].second - actors[1].arrivals[0].second,
              0.5, 1e-9);
}

TEST(FaultPlanTest, SameSeedReplaysIdenticalDecisions) {
  auto run = [](uint64_t seed) {
    sim::FaultOptions fo;
    fo.seed = seed;
    fo.drop_p = 0.2;
    fo.dup_p = 0.2;
    fo.jitter_mean_s = 0.01;
    sim::FaultPlan plan(fo);
    std::vector<std::tuple<bool, bool, double>> decisions;
    const sim::Message msg{0, 1, sim::TrafficCategory::kControl,
                           std::make_shared<BytesPayload>(100)};
    for (int i = 0; i < 300; ++i) {
      const sim::FaultDecision d = plan.OnSend(msg);
      decisions.emplace_back(d.drop, d.duplicate, d.extra_delay_s);
    }
    return decisions;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

// ---------------------------------------------------------------------------
// DHT-level retry / timeout behaviour under faults.

struct TestNet {
  explicit TestNet(size_t peers, dht::DhtOptions options = {})
      : network(&scheduler), dht(&scheduler, &network, options) {
    dht.AddPeers(peers);
  }
  sim::Scheduler scheduler;
  sim::Network network;
  dht::Dht dht;
};

Posting MakePosting(uint32_t doc, uint32_t start) {
  return Posting{1, doc, {start, start + 1, 2}};
}

TEST(FaultInjectionTest, GetFromDeadPeerResolvesWithDeadlineExceeded) {
  dht::DhtOptions options;
  options.retry.timeout_s = 0.5;
  TestNet net(8, options);
  PostingList postings{MakePosting(1, 1)};
  net.dht.peer(0)->Append("l:a", postings, nullptr);
  net.scheduler.RunUntilIdle();

  // The owner dies before it can ever reply; no restabilization, so every
  // attempt keeps aiming at the corpse.
  const sim::NodeIndex owner = net.dht.OwnerOf(dht::HashKey("l:a"));
  net.dht.FailPeer(owner);
  const sim::NodeIndex requester = (owner + 1) % 8;

  std::optional<GetResult> got;
  net.dht.peer(requester)->Get("l:a",
                               [&](GetResult r) { got = std::move(r); });
  net.scheduler.RunUntilIdle();  // terminates: budget is bounded
  ASSERT_TRUE(got.has_value()) << "get hung past its retry budget";
  EXPECT_FALSE(got->complete);
  EXPECT_TRUE(got->status.IsDeadlineExceeded()) << got->status.ToString();
}

// A get times out only under a retry policy; `max_retries = 0` is the
// single-attempt deadline.
TEST(FaultInjectionTest, SingleAttemptTimeoutReportsDeadlineExceeded) {
  dht::DhtOptions options;
  options.retry.timeout_s = 1.0;
  options.retry.max_retries = 0;
  TestNet net(8, options);
  PostingList postings{MakePosting(1, 1)};
  net.dht.peer(0)->Append("l:a", postings, nullptr);
  net.scheduler.RunUntilIdle();
  const sim::NodeIndex owner = net.dht.OwnerOf(dht::HashKey("l:a"));
  net.dht.FailPeer(owner);
  obs::Counter* timeouts =
      obs::MetricRegistry::Default().GetCounter("dht.get_timeouts");
  const uint64_t timeouts_before = timeouts->value();
  std::optional<GetResult> got;
  net.dht.peer((owner + 1) % 8)
      ->Get("l:a", [&](GetResult r) { got = std::move(r); });
  net.scheduler.RunUntilIdle();
  ASSERT_TRUE(got.has_value());
  EXPECT_FALSE(got->complete);
  EXPECT_TRUE(got->status.IsDeadlineExceeded()) << got->status.ToString();
  EXPECT_EQ(timeouts->value() - timeouts_before, 1u);
}

TEST(FaultInjectionTest, DuplicatedAppendsApplyOnce) {
  dht::DhtOptions options;
  options.retry.timeout_s = 5.0;  // enables dedup ids; never fires here
  TestNet net(8, options);
  sim::FaultOptions fo;
  fo.dup_p = 1.0;  // every message (request, forward, ack) arrives twice
  sim::FaultPlan plan(fo);
  net.network.SetFaultPlan(&plan);

  PostingList postings;
  for (uint32_t i = 0; i < 50; ++i) postings.push_back(MakePosting(i, 1));
  std::optional<Status> ack;
  net.dht.peer(0)->Append("l:dup", postings, [&](Status st) { ack = st; });
  net.scheduler.RunUntilIdle();
  ASSERT_TRUE(ack.has_value());
  EXPECT_TRUE(ack->ok());

  net.network.SetFaultPlan(nullptr);
  std::optional<GetResult> got;
  net.dht.peer(1)->Get("l:dup", [&](GetResult r) { got = std::move(r); });
  net.scheduler.RunUntilIdle();
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->complete);
  EXPECT_EQ(got->postings.size(), postings.size());
}

TEST(FaultInjectionTest, RetriesPushWritesAndReadsThroughLossyLinks) {
  dht::DhtOptions options;
  options.retry.timeout_s = 0.5;
  options.retry.max_retries = 8;
  TestNet net(8, options);
  sim::FaultOptions fo;
  fo.seed = 17;
  fo.drop_p = 0.1;
  fo.dup_p = 0.05;
  fo.jitter_mean_s = 0.002;
  sim::FaultPlan plan(fo);
  net.network.SetFaultPlan(&plan);
  const obs::MetricsSnapshot base = obs::MetricRegistry::Default().Snapshot();

  // A workload wide enough that 10% loss is certain to hit it many times:
  // every key must still land and read back in full, via retries.
  PostingList postings;
  for (uint32_t i = 0; i < 100; ++i) postings.push_back(MakePosting(i, 1));
  for (int k = 0; k < 10; ++k) {
    const std::string key = "l:lossy" + std::to_string(k);
    std::optional<Status> ack;
    net.dht.peer(2)->Append(key, postings, [&](Status st) { ack = st; });
    net.scheduler.RunUntilIdle();
    ASSERT_TRUE(ack.has_value()) << key;
    ASSERT_TRUE(ack->ok()) << key << ": " << ack->ToString();
  }

  for (int k = 0; k < 10; ++k) {
    const std::string key = "l:lossy" + std::to_string(k);
    std::optional<GetResult> got;
    net.dht.peer(5)->Get(key, [&](GetResult r) { got = std::move(r); });
    net.scheduler.RunUntilIdle();
    ASSERT_TRUE(got.has_value()) << key;
    EXPECT_TRUE(got->complete) << key << ": " << got->status.ToString();
    EXPECT_EQ(got->postings.size(), postings.size()) << key;
  }
  EXPECT_GT(CounterSince(base, "fault.drops"), 0u);
}

struct FaultyRunOutcome {
  double now = 0;
  uint64_t executed = 0;
  uint64_t traffic_messages = 0;
  uint64_t traffic_bytes = 0;
  uint64_t drops = 0;
  uint64_t dups = 0;
  uint64_t delayed = 0;
  size_t got_postings = 0;
  bool complete = false;

  friend bool operator==(const FaultyRunOutcome&,
                         const FaultyRunOutcome&) = default;
};

FaultyRunOutcome RunFaultyWorkload(uint64_t seed) {
  dht::DhtOptions options;
  options.retry.timeout_s = 0.5;
  options.retry.max_retries = 8;
  TestNet net(8, options);
  sim::FaultOptions fo;
  fo.seed = seed;
  fo.drop_p = 0.1;
  fo.dup_p = 0.1;
  fo.jitter_mean_s = 0.003;
  sim::FaultPlan plan(fo);
  net.network.SetFaultPlan(&plan);
  const obs::MetricsSnapshot base = obs::MetricRegistry::Default().Snapshot();

  for (int batch = 0; batch < 4; ++batch) {
    PostingList postings;
    for (uint32_t i = 0; i < 60; ++i) {
      postings.push_back(MakePosting(batch * 60 + i, 1));
    }
    net.dht.peer(batch % 8)->Append("l:det", postings, [](Status) {});
  }
  net.scheduler.RunUntilIdle();

  FaultyRunOutcome out;
  std::optional<GetResult> got;
  net.dht.peer(6)->Get("l:det", [&](GetResult r) { got = std::move(r); });
  net.scheduler.RunUntilIdle();
  out.now = net.scheduler.Now();
  out.executed = net.scheduler.executed_events();
  out.traffic_messages = net.network.traffic().messages;
  out.traffic_bytes = net.network.traffic().bytes;
  out.drops = CounterSince(base, "fault.drops");
  out.dups = CounterSince(base, "fault.dups");
  out.delayed = CounterSince(base, "fault.delayed");
  if (got.has_value()) {
    out.got_postings = got->postings.size();
    out.complete = got->complete;
  }
  return out;
}

TEST(FaultInjectionTest, SameSeedWorkloadsAreByteIdentical) {
  const FaultyRunOutcome a = RunFaultyWorkload(23);
  const FaultyRunOutcome b = RunFaultyWorkload(23);
  EXPECT_EQ(a, b);
  EXPECT_GT(a.drops + a.dups + a.delayed, 0u);
}

}  // namespace
}  // namespace kadop
