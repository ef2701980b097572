// Seeded property tests for the twig join's decoded posting streams
// (src/query/iterator.h): the streaming skip/take API must agree with a
// flat-list oracle across any block split and either storage form,
// MergeDistinct must equal concat + sort + unique, and the planner's twig
// estimate is the minimum per-node count.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "index/posting.h"
#include "query/iterator.h"
#include "query/tree_pattern.h"

namespace kadop::query {
namespace {

using index::DocId;
using index::Posting;
using index::PostingList;

TreePattern MustParse(const char* expr) {
  auto result = ParsePattern(expr);
  EXPECT_TRUE(result.ok());
  return result.take();
}

/// Clustered sorted list: few peers, docs in [0, doc_span), valid SIDs,
/// occasional exact duplicates — the shape real term lists have.
PostingList RandomSortedList(std::mt19937_64& rng, size_t n,
                             uint32_t doc_span = 500) {
  PostingList list;
  list.reserve(n);
  std::uniform_int_distribution<uint32_t> peer_d(0, 3);
  std::uniform_int_distribution<uint32_t> doc_d(0, doc_span - 1);
  std::uniform_int_distribution<uint32_t> start_d(1, 1 << 16);
  std::uniform_int_distribution<uint32_t> width_d(0, 1 << 8);
  std::uniform_int_distribution<uint16_t> level_d(1, 20);
  std::uniform_int_distribution<int> dup_d(0, 9);
  while (list.size() < n) {
    const uint32_t start = start_d(rng);
    Posting p{peer_d(rng), doc_d(rng),
              {start, start + width_d(rng), level_d(rng)}};
    list.push_back(p);
    if (dup_d(rng) == 0 && list.size() < n) list.push_back(p);
  }
  std::sort(list.begin(), list.end());
  return list;
}

/// sort + unique oracle for MergeDistinct.
PostingList DistinctOracle(const std::vector<PostingList>& lists) {
  PostingList merged;
  for (const PostingList& l : lists) {
    merged.insert(merged.end(), l.begin(), l.end());
  }
  std::sort(merged.begin(), merged.end());
  merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
  return merged;
}

// --- PostingListIterator ---------------------------------------------------

TEST(PostingListIteratorTest, SkipAndTakeMatchFlatListOracle) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    std::mt19937_64 rng(seed);
    const PostingList list = RandomSortedList(rng, 400);
    // Random block split, with an empty block (dropped on Push) thrown in.
    PostingListIterator it;
    it.Push(PostingList{});
    std::uniform_int_distribution<size_t> len_d(1, 64);
    for (size_t i = 0; i < list.size();) {
      const size_t len = std::min(len_d(rng), list.size() - i);
      it.Push(PostingList(list.begin() + static_cast<long>(i),
                          list.begin() + static_cast<long>(i + len)));
      i += len;
    }
    it.Close();
    EXPECT_EQ(it.LastBufferedDoc(), list.back().doc_id());

    // Alternate doc-level skips and takes; the oracle walks the flat list.
    size_t oracle = 0;
    std::uniform_int_distribution<uint32_t> jump_d(0, 40);
    std::uniform_int_distribution<int> coin(0, 1);
    while (oracle < list.size()) {
      ASSERT_TRUE(it.HasBuffered());
      ASSERT_EQ(it.HeadDoc(), list[oracle].doc_id());
      if (coin(rng) == 0) {
        const DocId doc = list[oracle].doc_id();
        PostingList took;
        const size_t n = it.TakeDoc(doc, took);
        const size_t start = oracle;
        while (oracle < list.size() && list[oracle].doc_id() == doc) ++oracle;
        EXPECT_EQ(n, oracle - start);
        EXPECT_EQ(took, PostingList(list.begin() + static_cast<long>(start),
                                    list.begin() + static_cast<long>(oracle)));
        continue;
      }
      const DocId target{list[oracle].peer, list[oracle].doc + jump_d(rng)};
      const size_t start = oracle;
      while (oracle < list.size() && list[oracle].doc_id() < target) ++oracle;
      EXPECT_EQ(it.SkipBelowDoc(target), oracle - start);
    }
    EXPECT_FALSE(it.HasBuffered());
    EXPECT_TRUE(it.Exhausted());
  }
}

TEST(PostingListIteratorTest, SkipAllCountsEveryBufferedPosting) {
  std::mt19937_64 rng(6);
  const PostingList list = RandomSortedList(rng, 50);
  PostingListIterator it;
  it.Push(PostingList(list.begin(), list.begin() + 20));
  it.Push(PostingList(list.begin() + 20, list.end()));
  PostingList took;
  const size_t head = it.TakeDoc(list.front().doc_id(), took);
  EXPECT_EQ(it.SkipAll(), list.size() - head);
  EXPECT_FALSE(it.HasBuffered());
  EXPECT_FALSE(it.Exhausted());  // not closed: more blocks may follow
}

// --- MergeDistinct ---------------------------------------------------------

TEST(MergeDistinctTest, MatchesSortUniqueOracle) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<size_t> n_d(0, 120);
    std::vector<PostingList> lists;
    for (int i = 0; i < 5; ++i) lists.push_back(RandomSortedList(rng, n_d(rng)));
    EXPECT_EQ(MergeDistinct(lists), DistinctOracle(lists));
  }
  // Already-ordered pulls (the common case) skip the sort but still drop
  // duplicates at the seams.
  const Posting a{0, 1, {1, 2, 1}};
  const Posting b{0, 2, {1, 2, 1}};
  EXPECT_EQ(MergeDistinct({{a}, {a, b}, {b}}), (PostingList{a, b}));
  EXPECT_TRUE(MergeDistinct({}).empty());
}

TEST(MergeDistinctTest, UnsortedInputFallsBackToCanonicalResult) {
  PostingList backwards{Posting{0, 9, {1, 2, 1}}, Posting{0, 1, {1, 2, 1}}};
  PostingList sorted{Posting{0, 5, {1, 2, 1}}};
  const PostingList out = MergeDistinct(
      std::vector<PostingList>{backwards, sorted});
  PostingList expect{Posting{0, 1, {1, 2, 1}}, Posting{0, 5, {1, 2, 1}},
                     Posting{0, 9, {1, 2, 1}}};
  EXPECT_EQ(out, expect);
}

// --- EstimateTwigResults ---------------------------------------------------

TEST(EstimateTwigResultsTest, IsMinOverNodeCounts) {
  const TreePattern pattern = MustParse("//a//b[//c]");
  const std::vector<uint64_t> counts{1000, 40, 220};
  EXPECT_EQ(EstimateTwigResults(pattern, counts), 40u);
  const std::vector<uint64_t> with_zero{0, 40, 220};
  EXPECT_EQ(EstimateTwigResults(pattern, with_zero), 0u);
}

}  // namespace
}  // namespace kadop::query
