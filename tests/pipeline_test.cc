// Streaming-transfer edge cases on the DHT: pipelined block pacing,
// producer failure mid-stream, concurrent streams from one producer, the
// disk FIFO, and blob deletion.

#include <gtest/gtest.h>

#include <optional>

#include "dht/dht.h"
#include "dht/ring.h"
#include "index/codec.h"
#include "obs/metrics.h"

namespace kadop::dht {
namespace {

using index::Posting;
using index::PostingList;

Posting MakePosting(uint32_t doc) { return Posting{1, doc, {1, 2, 1}}; }

struct Net {
  explicit Net(size_t peers, DhtOptions options = {})
      : network(&scheduler), dht(&scheduler, &network, options) {
    dht.AddPeers(peers);
  }
  sim::Scheduler scheduler;
  sim::Network network;
  Dht dht;
};

PostingList BigList(size_t n) {
  PostingList out;
  for (uint32_t i = 0; i < n; ++i) out.push_back(MakePosting(i));
  return out;
}

/// Seconds the default uplink takes to send `list`'s encoded bytes.
double UplinkSeconds(const PostingList& list) {
  return static_cast<double>(index::codec::EncodedBytes(list)) /
         sim::NetworkParams{}.uplink_bytes_per_s;
}

TEST(PipelineTest, BlocksArriveSpacedInTime) {
  Net net(8);
  const PostingList list = BigList(12000);
  net.dht.peer(0)->Append("l:a", list, nullptr);
  net.scheduler.RunUntilIdle();

  GetSpec spec;
  spec.key = "l:a";
  spec.pipelined = true;
  spec.block_postings = 3000;
  std::vector<double> arrivals;
  net.dht.peer(1)->GetBlocks(spec, [&](PostingList block, bool, bool) {
    if (!block.empty()) arrivals.push_back(net.scheduler.Now());
  });
  net.scheduler.RunUntilIdle();
  ASSERT_EQ(arrivals.size(), 4u);
  // Strictly increasing arrival times: blocks stream, they don't arrive
  // as one burst.
  for (size_t i = 1; i < arrivals.size(); ++i) {
    EXPECT_GT(arrivals[i], arrivals[i - 1]);
  }
  // The stream spans real time: at least 78% of the uplink time of the
  // three blocks that follow the first.
  double transfer = 0;
  for (size_t b = 1; b < 4; ++b) {
    transfer += UplinkSeconds(PostingList(list.begin() + b * 3000,
                                          list.begin() + (b + 1) * 3000));
  }
  EXPECT_GT(arrivals.back() - arrivals.front(), 0.78 * transfer);
}

TEST(PipelineTest, ProducerFailureMidStreamTimesOutIncomplete) {
  Net net(8);
  net.dht.peer(0)->Append("l:a", BigList(8000), nullptr);
  net.scheduler.RunUntilIdle();
  const sim::NodeIndex owner = net.dht.OwnerOf(HashKey("l:a"));
  const sim::NodeIndex requester = owner == 0 ? 1 : 0;

  const obs::Counter* dropped =
      obs::MetricRegistry::Default().GetCounter("net.dropped");
  const uint64_t dropped_before = dropped->value();
  GetSpec spec;
  spec.key = "l:a";
  spec.pipelined = true;
  spec.block_postings = 1000;
  spec.retry.timeout_s = 5.0;
  spec.retry.max_retries = 0;
  size_t received = 0;
  bool ended = false;
  bool complete = true;
  net.dht.peer(requester)->GetBlocks(
      spec, [&](PostingList block, bool last, bool ok) {
        received += block.size();
        if (!block.empty() && !ended) {
          // Fail the producer right after the first block arrives.
          net.network.SetNodeUp(owner, false);
        }
        if (last) {
          ended = true;
          complete = ok;
        }
      });
  net.scheduler.RunUntilIdle();
  EXPECT_TRUE(ended);
  EXPECT_FALSE(complete);       // timeout, not a normal end
  EXPECT_GT(received, 0u);      // partial data did arrive
  EXPECT_LT(received, 8000u);   // ... but not everything
  EXPECT_GT(dropped->value() - dropped_before, 0u);
}

TEST(PipelineTest, ConcurrentStreamsFromOneProducerSerializeOnUplink) {
  constexpr size_t kPostings = 18000;
  Net net(8);
  net.dht.peer(0)->Append("l:a", BigList(kPostings), nullptr);
  net.scheduler.RunUntilIdle();
  const sim::NodeIndex owner = net.dht.OwnerOf(HashKey("l:a"));

  // One consumer alone.
  auto run = [&](std::vector<sim::NodeIndex> consumers) {
    Net fresh(8);
    fresh.dht.peer(0)->Append("l:a", BigList(kPostings), nullptr);
    fresh.scheduler.RunUntilIdle();
    const double start = fresh.scheduler.Now();
    double last_done = start;
    for (sim::NodeIndex c : consumers) {
      GetSpec spec;
      spec.key = "l:a";
      spec.pipelined = true;
      fresh.dht.peer(c)->GetBlocks(spec,
                                   [&](PostingList, bool last, bool) {
                                     if (last) {
                                       last_done = fresh.scheduler.Now();
                                     }
                                   });
    }
    fresh.scheduler.RunUntilIdle();
    return last_done - start;
  };
  const sim::NodeIndex c1 = owner == 1 ? 2 : 1;
  const sim::NodeIndex c2 = owner == 3 ? 4 : 3;
  const double solo = run({c1});
  const double both = run({c1, c2});
  // Two full-list streams share the producer's uplink: the second list's
  // transfer serializes behind the first, on top of the fixed routing
  // latency both runs share, so it adds at least 59% of a list's uplink
  // time.
  EXPECT_GT(both - solo, 0.59 * UplinkSeconds(BigList(kPostings)));
}

TEST(PipelineTest, DiskFifoSerializesLocalWork) {
  Net net(2);
  DhtPeer* peer = net.dht.peer(0);
  std::vector<double> done;
  // Two 8 MB disk jobs queued back to back at t=0.
  const double mb8 = 8.0 * 1024 * 1024;
  peer->ScheduleAfterDisk(mb8, /*write_bytes=*/0,
                          [&] { done.push_back(net.scheduler.Now()); });
  peer->ScheduleAfterDisk(mb8, /*write_bytes=*/0,
                          [&] { done.push_back(net.scheduler.Now()); });
  net.scheduler.RunUntilIdle();
  ASSERT_EQ(done.size(), 2u);
  // Second job finishes roughly twice as late as the first (FIFO disk).
  EXPECT_NEAR(done[1], 2 * done[0], done[0] * 0.1);
}

TEST(PipelineTest, RangedPipelinedGetCombines) {
  Net net(8);
  net.dht.peer(0)->Append("l:a", BigList(5000), nullptr);
  net.scheduler.RunUntilIdle();
  GetSpec spec;
  spec.key = "l:a";
  spec.pipelined = true;
  spec.block_postings = 256;
  spec.lo = Posting{1, 1000, {0, 0, 0}};
  spec.hi = Posting{1, 1999, {UINT32_MAX, UINT32_MAX, UINT16_MAX}};
  PostingList received;
  net.dht.peer(2)->GetBlocks(spec, [&](PostingList block, bool, bool) {
    received.insert(received.end(), block.begin(), block.end());
  });
  net.scheduler.RunUntilIdle();
  ASSERT_EQ(received.size(), 1000u);
  EXPECT_EQ(received.front().doc, 1000u);
  EXPECT_EQ(received.back().doc, 1999u);
  EXPECT_TRUE(index::IsSortedPostingList(received));
}

TEST(PipelineTest, BlobDeleteRoundTrip) {
  Net net(6);
  net.dht.peer(0)->PutBlob("doc:0:0", "uri-a");
  net.scheduler.RunUntilIdle();
  net.dht.peer(3)->DeleteBlobKey("doc:0:0");
  net.scheduler.RunUntilIdle();
  Status status = Status::Internal("no reply");
  net.dht.peer(1)->GetBlob("doc:0:0",
                           [&](Result<std::string> b) { status = b.status(); });
  net.scheduler.RunUntilIdle();
  EXPECT_TRUE(status.IsNotFound());
}

}  // namespace
}  // namespace kadop::dht
