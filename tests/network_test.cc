#include <gtest/gtest.h>

#include <vector>

#include "obs/metrics.h"
#include "sim/network.h"
#include "sim/scheduler.h"

namespace kadop::sim {
namespace {

struct BytesPayload final : Payload {
  size_t bytes;
  explicit BytesPayload(size_t b) : bytes(b) {}
  size_t SizeBytes() const override { return bytes; }
  std::string_view TypeName() const override { return "BytesPayload"; }
};

class Recorder final : public Actor {
 public:
  void HandleMessage(const Message& msg) override {
    arrivals.push_back({msg.from, clock ? clock->Now() : 0.0});
  }
  Scheduler* clock = nullptr;
  std::vector<std::pair<NodeIndex, SimTime>> arrivals;
};

NetworkParams SimpleParams() {
  NetworkParams p;
  p.hop_latency_s = 0.01;
  p.uplink_bytes_per_s = 1000.0;
  p.downlink_bytes_per_s = 4000.0;
  p.header_bytes = 0;
  return p;
}

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : net(&sched, SimpleParams()) {
    for (auto& r : actors) {
      r.clock = &sched;
      net.AddNode(&r);
    }
  }
  Scheduler sched;
  Network net;
  Recorder actors[4];
};

TEST_F(NetworkTest, DeliveryTimeIsUplinkPlusLatencyPlusDownlink) {
  // 1000 bytes: uplink 1.0s, latency 0.01s, downlink 0.25s.
  net.Send({0, 1, TrafficCategory::kControl,
            std::make_shared<BytesPayload>(1000)});
  sched.RunUntilIdle();
  ASSERT_EQ(actors[1].arrivals.size(), 1u);
  EXPECT_NEAR(actors[1].arrivals[0].second, 1.26, 1e-9);
}

TEST_F(NetworkTest, SameSenderSerializesOnUplink) {
  net.Send({0, 1, TrafficCategory::kControl,
            std::make_shared<BytesPayload>(1000)});
  net.Send({0, 2, TrafficCategory::kControl,
            std::make_shared<BytesPayload>(1000)});
  sched.RunUntilIdle();
  ASSERT_EQ(actors[1].arrivals.size(), 1u);
  ASSERT_EQ(actors[2].arrivals.size(), 1u);
  // Second transfer leaves the uplink only after the first: 2.0 + .01 + .25.
  EXPECT_NEAR(actors[2].arrivals[0].second, 2.26, 1e-9);
}

TEST_F(NetworkTest, DistinctSendersProceedInParallel) {
  net.Send({0, 3, TrafficCategory::kControl,
            std::make_shared<BytesPayload>(1000)});
  net.Send({1, 3, TrafficCategory::kControl,
            std::make_shared<BytesPayload>(1000)});
  sched.RunUntilIdle();
  ASSERT_EQ(actors[3].arrivals.size(), 2u);
  // Both uplinks run concurrently; the receiver downlink serializes the two
  // 0.25s bursts: arrivals at 1.26 and 1.51.
  EXPECT_NEAR(actors[3].arrivals[0].second, 1.26, 1e-9);
  EXPECT_NEAR(actors[3].arrivals[1].second, 1.51, 1e-9);
}

TEST_F(NetworkTest, SelfSendIsFreeAndUncounted) {
  net.Send({2, 2, TrafficCategory::kControl,
            std::make_shared<BytesPayload>(5000)});
  sched.RunUntilIdle();
  ASSERT_EQ(actors[2].arrivals.size(), 1u);
  EXPECT_EQ(actors[2].arrivals[0].second, 0.0);
  EXPECT_EQ(net.traffic().messages, 0u);
  EXPECT_EQ(net.traffic().bytes, 0u);
}

TEST_F(NetworkTest, TrafficMeterCountsByCategory) {
  net.Send({0, 1, TrafficCategory::kPosting,
            std::make_shared<BytesPayload>(100)});
  net.Send({0, 1, TrafficCategory::kBloomFilter,
            std::make_shared<BytesPayload>(50)});
  sched.RunUntilIdle();
  EXPECT_EQ(net.traffic().messages, 2u);
  EXPECT_EQ(net.traffic().bytes, 150u);
  EXPECT_EQ(net.traffic().CategoryBytes(TrafficCategory::kPosting), 100u);
  EXPECT_EQ(net.traffic().CategoryBytes(TrafficCategory::kBloomFilter), 50u);
  net.ResetTraffic();
  EXPECT_EQ(net.traffic().bytes, 0u);
}

TEST_F(NetworkTest, HeaderBytesAreCharged) {
  NetworkParams p = SimpleParams();
  p.header_bytes = 64;
  Scheduler s2;
  Network net2(&s2, p);
  Recorder a, b;
  net2.AddNode(&a);
  net2.AddNode(&b);
  net2.Send({0, 1, TrafficCategory::kControl,
             std::make_shared<BytesPayload>(36)});
  s2.RunUntilIdle();
  EXPECT_EQ(net2.traffic().bytes, 100u);
}

TEST_F(NetworkTest, DownNodeDropsMessages) {
  const obs::Counter* dropped =
      obs::MetricRegistry::Default().GetCounter("net.dropped");
  const uint64_t dropped_before = dropped->value();
  net.SetNodeUp(1, false);
  net.Send({0, 1, TrafficCategory::kControl,
            std::make_shared<BytesPayload>(10)});
  sched.RunUntilIdle();
  EXPECT_TRUE(actors[1].arrivals.empty());
  EXPECT_EQ(dropped->value() - dropped_before, 1u);
  net.SetNodeUp(1, true);
  net.Send({0, 1, TrafficCategory::kControl,
            std::make_shared<BytesPayload>(10)});
  sched.RunUntilIdle();
  EXPECT_EQ(actors[1].arrivals.size(), 1u);
}

TEST(TrafficCategoryTest, NamesAreStable) {
  EXPECT_EQ(TrafficCategoryName(TrafficCategory::kControl), "control");
  EXPECT_EQ(TrafficCategoryName(TrafficCategory::kPublish), "publish");
  EXPECT_EQ(TrafficCategoryName(TrafficCategory::kPosting), "posting");
  EXPECT_EQ(TrafficCategoryName(TrafficCategory::kBloomFilter), "bloom");
  EXPECT_EQ(TrafficCategoryName(TrafficCategory::kQuery), "query");
  EXPECT_EQ(TrafficCategoryName(TrafficCategory::kResult), "result");
}

}  // namespace
}  // namespace kadop::sim
