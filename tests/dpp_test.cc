#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "dht/dht.h"
#include "dht/ring.h"
#include "index/dpp.h"

namespace kadop::index {
namespace {

using dht::Dht;
using dht::DhtOptions;
using dht::GetResult;

Posting MakePosting(uint32_t doc, uint32_t start) {
  return Posting{1, doc, {start, start + 1, 2}};
}

/// A small cluster with a DppManager per peer, wired as the core facade
/// would wire it.
struct DppNet {
  explicit DppNet(size_t peers, DppOptions dpp_options = {})
      : network(&scheduler), dht(&scheduler, &network, DhtOptions{}) {
    dht.AddPeers(peers);
    for (size_t i = 0; i < peers; ++i) {
      dht::DhtPeer* peer = dht.peer(static_cast<sim::NodeIndex>(i));
      managers.push_back(
          std::make_unique<DppManager>(peer, dpp_options));
      DppManager* manager = managers.back().get();
      peer->SetAppendInterceptor(
          [manager](const dht::AppendRequest& request) {
            return manager->OnAppend(request);
          });
      peer->SetDeleteInterceptor(
          [manager](const dht::DeleteRequest& request) {
            return manager->OnDelete(request);
          });
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
  DppStats stats;
  for (const auto& m : net.managers) stats.Add(m->stats());
  EXPECT_GT(stats.splits, 0u);
  EXPECT_GT(stats.migrated_postings, 0u);
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
  EXPECT_TRUE(StoreDirectory(*store, "l:a").empty());
  store->AppendPostings("l:a", {MakePosting(1, 1), MakePosting(2, 1)});
  const std::vector<DppBlockInfo> dir = StoreDirectory(*store, "l:a");
  ASSERT_EQ(dir.size(), 1u);
  EXPECT_EQ(dir[0].key, "l:a");
  EXPECT_EQ(dir[0].count, 2u);
  EXPECT_TRUE(dir[0].cond == FullCondition());
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

}  // namespace
}  // namespace kadop::index
