#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "dht/dht.h"
#include "dht/ring.h"
#include "index/dpp.h"
#include "obs/metrics.h"
#include "sim/fault_plan.h"

namespace kadop::index {
namespace {

using dht::Dht;
using dht::DhtOptions;
using dht::GetResult;

Posting MakePosting(uint32_t doc, uint32_t start) {
  return Posting{1, doc, {start, start + 1, 2}};
}

/// A small cluster with a DppManager per peer, wired as the core facade
/// would wire it. `proxy_gets` also installs the get interceptor, so a
/// plain get of a partitioned term is served by the owner's gather.
struct DppNet {
  explicit DppNet(size_t peers, DppOptions dpp_options = {},
                  bool proxy_gets = false)
      : network(&scheduler), dht(&scheduler, &network, DhtOptions{}) {
    dht.AddPeers(peers);
    for (size_t i = 0; i < peers; ++i) {
      dht::DhtPeer* peer = dht.peer(static_cast<sim::NodeIndex>(i));
      managers.push_back(
          std::make_unique<DppManager>(peer, dpp_options));
      DppManager* manager = managers.back().get();
      peer->SetAppendInterceptor(
          [manager](const dht::AppendRequest& request,
                    const PostingList& postings) {
            return manager->OnAppend(request, postings);
          });
      peer->SetDeleteInterceptor(
          [manager](const dht::DeleteRequest& request) {
            return manager->OnDelete(request);
          });
      if (proxy_gets) {
        peer->SetGetInterceptor([manager](const dht::GetRequest& request) {
          return manager->OnGet(request);
        });
      }
      peer->SetAppHandler(
          [manager](const dht::AppRequest& request, sim::NodeIndex from) {
            // Handled-ness is irrelevant here: DPP is the only service.
            (void)manager->HandleApp(request, from);
          });
    }
  }

  std::vector<DppBlockInfo> Directory(const std::string& term) {
    std::vector<DppBlockInfo> dir;
    DppManager::FetchDirectory(dht.peer(0), term,
                               [&](Status, std::vector<DppBlockInfo> blocks) {
                                 dir = std::move(blocks);
                               });
    scheduler.RunUntilIdle();
    return dir;
  }

  /// The count the owner's DPP manager keeps for `term`, or the owner's
  /// store count when no manager holds a root block for it.
  uint64_t OwnerCount(const std::string& term) {
    for (const auto& m : managers) {
      if (auto owned = m->OwnedTermCount(term)) return *owned;
    }
    return dht.peer(dht.OwnerOf(dht::HashKey(term)))->store()->PostingCount(
        term);
  }

  /// What the holder of `block` stores in [lo, hi], read off its store
  /// without any network traffic.
  PostingList StoredBlock(const DppBlockInfo& block, const Posting& lo,
                          const Posting& hi) {
    return dht.peer(dht.OwnerOf(dht::HashKey(block.key)))
        ->store()
        ->GetPostingRange(block.key, lo, hi, 0);
  }

  PostingList FetchAllBlocks(const std::string& term) {
    PostingList all;
    for (const auto& block : Directory(term)) {
      std::optional<GetResult> got;
      dht.peer(0)->Get(block.key, [&](GetResult r) { got = std::move(r); });
      scheduler.RunUntilIdle();
      EXPECT_TRUE(got.has_value() && got->complete);
      all.insert(all.end(), got->postings.begin(), got->postings.end());
    }
    std::sort(all.begin(), all.end());
    return all;
  }

  sim::Scheduler scheduler;
  sim::Network network;
  Dht dht;
  std::vector<std::unique_ptr<DppManager>> managers;
};

TEST(ConditionTest, Basics) {
  Condition c;
  EXPECT_TRUE(c.Empty());
  c.Extend(MakePosting(5, 1));
  EXPECT_FALSE(c.Empty());
  EXPECT_TRUE(c.Contains(MakePosting(5, 1)));
  c.Extend(MakePosting(9, 1));
  EXPECT_TRUE(c.Contains(MakePosting(7, 3)));
  EXPECT_FALSE(c.Contains(MakePosting(10, 1)));
  EXPECT_EQ(c.MinDoc(), (DocId{1, 5}));
  EXPECT_EQ(c.MaxDoc(), (DocId{1, 9}));
}

TEST(ConditionTest, IntersectsSubsetBefore) {
  Condition a{MakePosting(1, 1), MakePosting(5, 1)};
  Condition b{MakePosting(4, 1), MakePosting(9, 1)};
  Condition c{MakePosting(6, 1), MakePosting(9, 1)};
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_FALSE(a.Intersects(c));
  EXPECT_TRUE(a.Before(c));
  EXPECT_FALSE(a.Before(b));
  Condition inner{MakePosting(2, 1), MakePosting(4, 1)};
  EXPECT_TRUE(inner.SubsetOf(a));
  EXPECT_FALSE(a.SubsetOf(inner));
  EXPECT_FALSE(a.Intersects(Condition{}));
}

TEST(DppTest, SmallListStaysLocal) {
  DppNet net(8);
  PostingList postings;
  for (uint32_t i = 0; i < 100; ++i) postings.push_back(MakePosting(i, 1));
  bool acked = false;
  net.dht.peer(2)->Append("l:title", postings, [&](Status) { acked = true; });
  net.scheduler.RunUntilIdle();
  EXPECT_TRUE(acked);

  std::vector<DppBlockInfo> dir;
  DppManager::FetchDirectory(net.dht.peer(0), "l:title",
                             [&](Status, std::vector<DppBlockInfo> blocks) {
                               dir = std::move(blocks);
                             });
  net.scheduler.RunUntilIdle();
  ASSERT_EQ(dir.size(), 1u);
  EXPECT_EQ(dir[0].key, "l:title");
  EXPECT_EQ(dir[0].count, 100u);
  EXPECT_EQ(net.FetchAllBlocks("l:title"), postings);
}

TEST(DppTest, LongListSplitsAcrossPeersWithOrderedConditions) {
  const obs::MetricsSnapshot base = obs::MetricRegistry::Default().Snapshot();
  DppOptions options;
  options.max_block_postings = 256;
  DppNet net(12, options);
  PostingList postings;
  for (uint32_t i = 0; i < 2000; ++i) postings.push_back(MakePosting(i, 1));
  size_t acks = 0;
  // Publish in several batches (more realistic, exercises re-partitioning).
  for (size_t off = 0; off < postings.size(); off += 400) {
    PostingList batch(postings.begin() + off,
                      postings.begin() + std::min(off + 400, postings.size()));
    net.dht.peer(3)->Append("l:author", batch, [&](Status) { acks++; });
  }
  net.scheduler.RunUntilIdle();
  EXPECT_EQ(acks, 5u);

  std::vector<DppBlockInfo> dir;
  DppManager::FetchDirectory(net.dht.peer(0), "l:author",
                             [&](Status, std::vector<DppBlockInfo> blocks) {
                               dir = std::move(blocks);
                             });
  net.scheduler.RunUntilIdle();
  EXPECT_GE(dir.size(), 4u);
  // Conditions are ordered and non-overlapping; counts bounded.
  uint64_t total = 0;
  for (size_t i = 0; i < dir.size(); ++i) {
    total += dir[i].count;
    EXPECT_LE(dir[i].count, options.max_block_postings);
    if (i > 0) {
      EXPECT_TRUE(dir[i - 1].cond.Before(dir[i].cond))
          << dir[i - 1].cond.ToString() << " vs " << dir[i].cond.ToString();
    }
  }
  EXPECT_EQ(total, 2000u);
  // No postings lost or duplicated across the split blocks.
  EXPECT_EQ(net.FetchAllBlocks("l:author"), postings);
  // Splits actually migrated data to other peers.
  const obs::MetricsSnapshot d =
      obs::MetricRegistry::Default().Snapshot().DiffSince(base);
  EXPECT_GT(d.CounterValue("dpp.splits"), 0u);
  EXPECT_GT(d.CounterValue("dpp.migrated_postings"), 0u);
}

// The owner learns an overflow block's holder from the reply to a routed
// write, or from the DppSplitDone of the split that created it, and names
// it in its directory: on an unchanged ring every overflow holder is
// named, including those of blocks made by splits on remote holders, and
// every named holder is the block key's owner. A ring change empties the
// owner cache, so the directory names none until a routed reply teaches
// the owner again.
TEST(DppTest, DirectoryNamesTheOverflowHoldersTheOwnerLearned) {
  DppOptions options;
  options.max_block_postings = 256;
  DppNet net(12, options);
  PostingList postings;
  for (uint32_t i = 0; i < 2000; ++i) postings.push_back(MakePosting(i, 1));
  for (size_t off = 0; off < postings.size(); off += 400) {
    PostingList batch(postings.begin() + off,
                      postings.begin() + std::min(off + 400, postings.size()));
    net.dht.peer(3)->Append("l:author", batch, nullptr);
  }
  net.scheduler.RunUntilIdle();

  auto& registry = obs::MetricRegistry::Default();
  const obs::Counter* named = registry.GetCounter("dpp.dir.holders_named");
  const obs::Counter* unnamed = registry.GetCounter("dpp.dir.holders_unnamed");
  const sim::NodeIndex owner = net.dht.OwnerOf(dht::HashKey("l:author"));
  uint64_t named0 = named->value();
  uint64_t unnamed0 = unnamed->value();
  std::vector<DppBlockInfo> dir = net.Directory("l:author");
  ASSERT_GE(dir.size(), 4u);
  uint64_t overflow = 0;
  uint64_t holders = 0;
  for (const DppBlockInfo& b : dir) {
    if (b.key == "l:author") {
      EXPECT_EQ(b.holder, owner);
      continue;
    }
    ++overflow;
    if (!b.holder.has_value()) continue;
    ++holders;
    EXPECT_EQ(*b.holder, net.dht.OwnerOf(dht::HashKey(b.key))) << b.key;
  }
  EXPECT_EQ(holders, overflow);
  EXPECT_EQ(named->value() - named0, holders);
  EXPECT_EQ(unnamed->value() - unnamed0, overflow - holders);

  net.dht.Stabilize();
  named0 = named->value();
  unnamed0 = unnamed->value();
  dir = net.Directory("l:author");
  for (const DppBlockInfo& b : dir) {
    if (b.key != "l:author") {
      EXPECT_FALSE(b.holder.has_value()) << b.key;
    }
  }
  EXPECT_EQ(named->value() - named0, 0u);
  EXPECT_EQ(unnamed->value() - unnamed0, overflow);
  EXPECT_EQ(net.FetchAllBlocks("l:author"), postings);
}

// A split whose DppSplitDone carries the new block's holder names it only
// if the owner's ring did not change while the split was in flight: here
// a ring change lands as the remote holder receives the DppSplitBlock, so
// the new block stays unnamed and every posting is still fetched. The next
// remote split, on an unchanged ring, names its new block.
TEST(DppTest, RingChangeMidSplitLeavesTheNewBlockUnnamed) {
  DppOptions options;
  options.max_block_postings = 256;
  DppNet net(12, options);
  const std::string term = "l:author";
  const sim::NodeIndex owner = net.dht.OwnerOf(dht::HashKey(term));
  PostingList postings;
  auto append = [&](uint32_t from, uint32_t to) {
    PostingList batch;
    for (uint32_t i = from; i < to; ++i) batch.push_back(MakePosting(i, 1));
    postings.insert(postings.end(), batch.begin(), batch.end());
    net.dht.peer(3)->Append(term, batch, nullptr);
    net.scheduler.RunUntilIdle();
  };
  auto holder_of = [&](const std::string& key) {
    for (const DppBlockInfo& b : net.Directory(term)) {
      if (b.key == key) return b.holder;
    }
    ADD_FAILURE() << "no block " << key;
    return std::optional<sim::NodeIndex>{};
  };
  // The owner splits block 0 itself: ovf:1 holds the upper half.
  append(0, 300);
  ASSERT_NE(net.dht.OwnerOf(dht::HashKey("ovf:1:" + term)), owner);
  ASSERT_NE(net.dht.OwnerOf(dht::HashKey("ovf:2:" + term)), owner);

  // The first DppSplitBlock any holder receives rebuilds every routing
  // table over the unchanged membership: a ring change mid-split.
  bool changed = false;
  for (size_t i = 0; i < net.managers.size(); ++i) {
    DppManager* manager = net.managers[i].get();
    net.dht.peer(static_cast<sim::NodeIndex>(i))
        ->SetAppHandler([&net, &changed, manager](
                            const dht::AppRequest& request,
                            sim::NodeIndex from) {
          if (!changed &&
              dynamic_cast<const DppSplitBlock*>(request.inner.get())) {
            changed = true;
            net.dht.Stabilize();
          }
          (void)manager->HandleApp(request, from);
        });
  }
  // ovf:1 overflows: its remote holder splits it into ovf:2.
  append(300, 500);
  ASSERT_TRUE(changed);
  EXPECT_FALSE(holder_of("ovf:2:" + term).has_value());
  std::sort(postings.begin(), postings.end());
  EXPECT_EQ(net.FetchAllBlocks(term), postings);

  // ovf:2 overflows on an unchanged ring: ovf:3 is named at once.
  append(500, 650);
  const std::optional<sim::NodeIndex> named = holder_of("ovf:3:" + term);
  ASSERT_TRUE(named.has_value());
  EXPECT_EQ(*named, net.dht.OwnerOf(dht::HashKey("ovf:3:" + term)));
  std::sort(postings.begin(), postings.end());
  EXPECT_EQ(net.FetchAllBlocks(term), postings);
}

TEST(DppTest, OutOfOrderInsertsLandInMatchingBlocks) {
  DppOptions options;
  options.max_block_postings = 128;
  DppNet net(8, options);
  // First wave: even docs; second wave: odd docs interleaved into the
  // already-split range.
  PostingList evens, odds;
  for (uint32_t i = 0; i < 1000; ++i) {
    (i % 2 == 0 ? evens : odds).push_back(MakePosting(i, 1));
  }
  net.dht.peer(0)->Append("l:a", evens, nullptr);
  net.scheduler.RunUntilIdle();
  net.dht.peer(0)->Append("l:a", odds, nullptr);
  net.scheduler.RunUntilIdle();

  PostingList all = net.FetchAllBlocks("l:a");
  PostingList expected = evens;
  expected.insert(expected.end(), odds.begin(), odds.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(all, expected);
}

TEST(DppTest, RandomSplitModeKeepsAllData) {
  DppOptions options;
  options.max_block_postings = 200;
  options.ordered_splits = false;
  DppNet net(8, options);
  PostingList postings;
  for (uint32_t i = 0; i < 1500; ++i) postings.push_back(MakePosting(i, 1));
  net.dht.peer(0)->Append("l:a", postings, nullptr);
  net.scheduler.RunUntilIdle();
  EXPECT_EQ(net.FetchAllBlocks("l:a"), postings);

  std::vector<DppBlockInfo> dir;
  DppManager::FetchDirectory(net.dht.peer(0), "l:a",
                             [&](Status, std::vector<DppBlockInfo> blocks) {
                               dir = std::move(blocks);
                             });
  net.scheduler.RunUntilIdle();
  ASSERT_GE(dir.size(), 2u);
  // Random splits leave overlapping conditions (no search pruning).
  bool overlapping = false;
  for (size_t i = 1; i < dir.size(); ++i) {
    overlapping |= dir[i - 1].cond.Intersects(dir[i].cond);
  }
  EXPECT_TRUE(overlapping);
}

TEST(DppTest, DirectoryOfUnknownTermIsEmpty) {
  DppNet net(4);
  std::optional<std::vector<DppBlockInfo>> dir;
  DppManager::FetchDirectory(net.dht.peer(0), "l:never",
                             [&](Status, std::vector<DppBlockInfo> blocks) {
                               dir = std::move(blocks);
                             });
  net.scheduler.RunUntilIdle();
  ASSERT_TRUE(dir.has_value());
  EXPECT_TRUE(dir->empty());
}

// The directory is the one term-size message: its block sum is the count
// the owner keeps, for a partitioned term, an unpartitioned one, an absent
// one, and after a delete empties a whole block.
TEST(DppTest, DirectoryCountIsTheOwnersCount) {
  DppOptions options;
  options.max_block_postings = 64;
  DppNet net(6, options);
  PostingList big;
  for (uint32_t i = 0; i < 500; ++i) big.push_back(MakePosting(i, 1));
  net.dht.peer(0)->Append("l:big", big, nullptr);
  net.dht.peer(0)->Append("l:small", {MakePosting(1, 1)}, nullptr);
  net.scheduler.RunUntilIdle();

  const std::vector<DppBlockInfo> partitioned = net.Directory("l:big");
  ASSERT_GT(partitioned.size(), 2u);
  EXPECT_EQ(DirectoryCount(partitioned), 500u);
  EXPECT_EQ(net.OwnerCount("l:big"), 500u);
  EXPECT_EQ(DirectoryCount(net.Directory("l:small")), 1u);
  EXPECT_EQ(net.OwnerCount("l:small"), 1u);
  EXPECT_EQ(DirectoryCount(net.Directory("l:never")), 0u);
  EXPECT_EQ(net.OwnerCount("l:never"), 0u);

  // Empty the last block: the directory drops it and still sums to the
  // owner's count.
  const Condition last = partitioned.back().cond;
  uint64_t removed = 0;
  for (uint32_t doc = last.MinDoc().doc; doc <= last.MaxDoc().doc; ++doc) {
    net.dht.peer(0)->DeleteDoc("l:big", DocId{1, doc});
    ++removed;
  }
  net.scheduler.RunUntilIdle();
  const std::vector<DppBlockInfo> after = net.Directory("l:big");
  EXPECT_EQ(after.size(), partitioned.size() - 1);
  EXPECT_EQ(DirectoryCount(after), 500u - removed);
  EXPECT_EQ(net.OwnerCount("l:big"), 500u - removed);
}

// Without a DPP root block, the directory comes from the store alone.
TEST(DppTest, StoreDirectoryIsOneFullBlock) {
  DppNet net(2);
  store::PeerStore* store = net.dht.peer(0)->store();
  EXPECT_TRUE(StoreDirectory(*store, "l:a", 0).empty());
  store->AppendPostings("l:a", {MakePosting(1, 1), MakePosting(2, 1)});
  const std::vector<DppBlockInfo> dir = StoreDirectory(*store, "l:a", 0);
  ASSERT_EQ(dir.size(), 1u);
  EXPECT_EQ(dir[0].key, "l:a");
  EXPECT_EQ(dir[0].count, 2u);
  EXPECT_TRUE(dir[0].cond == FullCondition());
  EXPECT_EQ(dir[0].holder, std::optional<sim::NodeIndex>(0));
}

TEST(DppTest, PartitionedTermCount) {
  DppOptions options;
  options.max_block_postings = 64;
  DppNet net(6, options);
  PostingList big;
  for (uint32_t i = 0; i < 500; ++i) big.push_back(MakePosting(i, 1));
  net.dht.peer(0)->Append("l:big", big, nullptr);
  net.dht.peer(0)->Append("l:small", {MakePosting(1, 1)}, nullptr);
  net.scheduler.RunUntilIdle();
  size_t partitioned = 0;
  for (const auto& m : net.managers) partitioned += m->PartitionedTermCount();
  EXPECT_EQ(partitioned, 1u);
}

// A term split into many blocks, for the get-proxy tests below.
struct SplitTerm {
  static constexpr const char* kTerm = "l:long";
  static constexpr size_t kPeers = 16;

  SplitTerm() : net(kPeers, Options(), /*proxy_gets=*/true) {
    for (uint32_t i = 0; i < 1200; ++i) postings.push_back(MakePosting(i, 1));
    for (size_t off = 0; off < postings.size(); off += 300) {
      PostingList batch(postings.begin() + off,
                        postings.begin() + off + 300);
      net.dht.peer(3)->Append(kTerm, batch, nullptr);
    }
    net.scheduler.RunUntilIdle();
    dir = net.Directory(kTerm);
    owner = net.dht.OwnerOf(dht::HashKey(kTerm));
    requester = static_cast<sim::NodeIndex>((owner + 1) % kPeers);
  }

  static DppOptions Options() {
    DppOptions options;
    options.max_block_postings = 128;
    return options;
  }

  /// Concatenation of the stored blocks that intersect [lo, hi], each
  /// restricted to the range, in directory (condition) order.
  PostingList Concatenation(const Posting& lo, const Posting& hi) {
    PostingList all;
    for (const DppBlockInfo& block : dir) {
      if (!block.cond.Intersects(Condition{lo, hi})) continue;
      PostingList part = net.StoredBlock(block, lo, hi);
      all.insert(all.end(), part.begin(), part.end());
    }
    return all;
  }

  DppNet net;
  PostingList postings;
  std::vector<DppBlockInfo> dir;
  sim::NodeIndex owner = 0;
  sim::NodeIndex requester = 0;
};

// A plain get of a partitioned term returns exactly the holders' blocks,
// concatenated in condition order — over the full range and a sub-range.
TEST(DppGetProxyTest, StreamsTheBlocksInConditionOrder) {
  SplitTerm t;
  ASSERT_GE(t.dir.size(), 8u);

  std::optional<GetResult> got;
  t.net.dht.peer(t.requester)->Get(SplitTerm::kTerm,
                                   [&](GetResult r) { got = std::move(r); });
  t.net.scheduler.RunUntilIdle();
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->complete);
  EXPECT_EQ(got->postings, t.Concatenation(kMinPosting, kMaxPosting));
  EXPECT_EQ(got->postings, t.postings);

  // A sub-range cutting into the third block and the third-from-last one.
  const Posting lo = MakePosting(t.dir[2].cond.MinDoc().doc + 3, 1);
  const Posting hi =
      MakePosting(t.dir[t.dir.size() - 3].cond.MaxDoc().doc - 3, 1);
  dht::GetSpec spec;
  spec.key = SplitTerm::kTerm;
  spec.lo = lo;
  spec.hi = hi;
  PostingList ranged;
  size_t blocks = 0;
  bool done = false;
  t.net.dht.peer(t.requester)
      ->GetBlocks(spec, [&](PostingList block, bool last, bool complete) {
        EXPECT_TRUE(complete);
        EXPECT_FALSE(done) << "block after the last one";
        ranged.insert(ranged.end(), block.begin(), block.end());
        ++blocks;
        done = last;
      });
  t.net.scheduler.RunUntilIdle();
  EXPECT_TRUE(done);
  EXPECT_EQ(blocks, t.dir.size() - 4);
  EXPECT_EQ(ranged, t.Concatenation(lo, hi));
  EXPECT_EQ(ranged.front(), lo);
  EXPECT_EQ(ranged.back(), hi);
}

// The stream's first block comes from a slow holder, so every later block
// reaches the owner first: the requester still sees each block once, in
// condition order, with the holder's postings.
TEST(DppGetProxyTest, SlowFirstHolderStillStreamsInOrder) {
  SplitTerm t;
  ASSERT_GE(t.dir.size(), 8u);
  // The first remote block whose holder is neither the owner nor the
  // requester starts the stream.
  size_t first = 1;
  auto holder = [&](size_t i) {
    return t.net.dht.OwnerOf(dht::HashKey(t.dir[i].key));
  };
  while (first < t.dir.size() &&
         (holder(first) == t.owner || holder(first) == t.requester)) {
    ++first;
  }
  ASSERT_LT(first + 4, t.dir.size());
  sim::FaultOptions fo;
  fo.slow_extra_s = 0.5;
  fo.slow_peers = {holder(first)};
  sim::FaultPlan plan(fo);
  t.net.network.SetFaultPlan(&plan);
  const obs::Counter* delayed =
      obs::MetricRegistry::Default().GetCounter("fault.delayed");
  const uint64_t delayed_before = delayed->value();

  dht::GetSpec spec;
  spec.key = SplitTerm::kTerm;
  spec.lo = t.dir[first].cond.lo;
  std::vector<PostingList> blocks;
  bool done = false;
  t.net.dht.peer(t.requester)
      ->GetBlocks(spec, [&](PostingList block, bool last, bool complete) {
        EXPECT_TRUE(complete);
        EXPECT_FALSE(done) << "block after the last one";
        blocks.push_back(std::move(block));
        done = last;
      });
  t.net.scheduler.RunUntilIdle();
  EXPECT_TRUE(done);
  EXPECT_GT(delayed->value() - delayed_before, 0u);
  ASSERT_EQ(blocks.size(), t.dir.size() - first);
  for (size_t i = 0; i < blocks.size(); ++i) {
    EXPECT_EQ(blocks[i],
              t.net.StoredBlock(t.dir[first + i], kMinPosting, kMaxPosting))
        << "stream block " << i;
  }
}

// The owner pulls the blocks at once: the proxied get takes less than one
// routed pull per remote block, which a one-at-a-time gather cannot.
TEST(DppGetProxyTest, GatherIsFasterThanOnePullPerBlock) {
  SplitTerm t;
  ASSERT_GE(t.dir.size(), 8u);

  // The cheapest routed pull of one block the owner does not hold itself
  // (its own blocks are read locally, at no network cost).
  double one_pull = 1e9;
  size_t n = 0;
  for (const DppBlockInfo& block : t.dir) {
    if (t.net.dht.OwnerOf(dht::HashKey(block.key)) == t.owner) continue;
    ++n;
    dht::GetSpec spec;
    spec.key = block.key;
    const double start = t.net.scheduler.Now();
    double took = -1;
    t.net.dht.peer(t.owner)->GetBlocks(
        spec, [&](PostingList, bool last, bool) {
          if (last) took = t.net.scheduler.Now() - start;
        });
    t.net.scheduler.RunUntilIdle();
    ASSERT_GT(took, 0.0) << block.key;
    one_pull = std::min(one_pull, took);
  }

  const double start = t.net.scheduler.Now();
  double proxied = -1;
  t.net.dht.peer(t.requester)->Get(SplitTerm::kTerm, [&](GetResult r) {
    EXPECT_TRUE(r.complete);
    proxied = t.net.scheduler.Now() - start;
  });
  t.net.scheduler.RunUntilIdle();
  ASSERT_GT(proxied, 0.0);
  ASSERT_GE(n, 8u);
  EXPECT_LT(proxied, static_cast<double>(n) * one_pull)
      << n << " remote blocks, one pull " << one_pull << " s";
}

}  // namespace
}  // namespace kadop::index
