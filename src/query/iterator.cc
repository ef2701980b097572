#include "query/iterator.h"

#include <algorithm>

#include "common/logging.h"
#include "query/tree_pattern.h"

namespace kadop::query {

using index::DocId;
using index::Posting;
using index::PostingList;

namespace {

/// First index in [lo, hi) with data[idx] >= target, found by galloping
/// from `lo` (the proved-out exponential probe of the semi-join kernels:
/// cheap when the answer is near, log-bounded when it is far).
[[nodiscard]] size_t GallopLowerBound(const PostingList& data, size_t lo,
                                      const Posting& target) {
  const size_t hi = data.size();
  if (lo >= hi || !(data[lo] < target)) return lo;
  size_t low = lo;  // invariant: data[low] < target
  size_t step = 1;
  while (low + step < hi && data[low + step] < target) {
    low += step;
    step <<= 1;
  }
  const size_t high = std::min(low + step, hi);
  return static_cast<size_t>(
      std::lower_bound(data.begin() + static_cast<long>(low + 1),
                       data.begin() + static_cast<long>(high), target) -
      data.begin());
}

}  // namespace

// --- PostingListIterator --------------------------------------------------

void PostingListIterator::Push(PostingList block) {
  KADOP_CHECK(!closed_, "iterator: pushing into a closed stream");
  if (block.empty()) return;
  KADOP_CHECK(blocks_.empty() || !(block.front() < blocks_.back().back()),
              "iterator: blocks out of stream order");
  blocks_.push_back(std::move(block));
}

void PostingListIterator::PopFrontBlock() {
  blocks_.pop_front();
  cursor_ = 0;
}

DocId PostingListIterator::HeadDoc() const {
  KADOP_CHECK(!blocks_.empty(), "iterator: head of an empty stream");
  return blocks_.front()[cursor_].doc_id();
}

DocId PostingListIterator::LastBufferedDoc() const {
  KADOP_CHECK(!blocks_.empty(), "iterator: tail of an empty stream");
  return blocks_.back().back().doc_id();
}

size_t PostingListIterator::SkipBelowDoc(DocId doc) {
  // The smallest posting of `doc`: lower-bounding on it lands on the
  // first posting with doc id >= `doc`.
  const Posting doc_floor{doc.peer, doc.doc, xml::StructuralId{0, 0, 0}};
  size_t dropped = 0;
  while (!blocks_.empty()) {
    const PostingList& list = blocks_.front();
    const size_t i = list.back().doc_id() < doc
                         ? list.size()
                         : GallopLowerBound(list, cursor_, doc_floor);
    dropped += i - cursor_;
    if (i < list.size()) {
      cursor_ = i;
      break;
    }
    PopFrontBlock();
  }
  return dropped;
}

size_t PostingListIterator::SkipAll() {
  size_t dropped = 0;
  while (!blocks_.empty()) {
    dropped += blocks_.front().size() - cursor_;
    PopFrontBlock();
  }
  return dropped;
}

size_t PostingListIterator::TakeDoc(DocId doc, PostingList& out) {
  size_t took = 0;
  while (!blocks_.empty()) {
    const PostingList& list = blocks_.front();
    const size_t start = cursor_;
    while (cursor_ < list.size() && list[cursor_].doc_id() == doc) ++cursor_;
    out.insert(out.end(), list.begin() + static_cast<long>(start),
               list.begin() + static_cast<long>(cursor_));
    took += cursor_ - start;
    if (cursor_ < list.size()) break;  // block continues with a later doc
    PopFrontBlock();
  }
  return took;
}

// --- MergeDistinct --------------------------------------------------------

PostingList MergeDistinct(std::vector<PostingList> lists) {
  if (lists.empty()) return {};
  size_t total = 0;
  for (const PostingList& l : lists) total += l.size();
  PostingList merged = std::move(lists.front());
  merged.reserve(total);
  for (size_t i = 1; i < lists.size(); ++i) {
    merged.insert(merged.end(), lists[i].begin(), lists[i].end());
  }
  if (!index::IsSortedPostingList(merged)) {
    std::sort(merged.begin(), merged.end());
  }
  merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
  return merged;
}

// --- EstimateTwigResults --------------------------------------------------

uint64_t EstimateTwigResults(const TreePattern& pattern,
                             const std::vector<uint64_t>& counts) {
  KADOP_CHECK(counts.size() == pattern.size(),
              "iterator: one count per pattern node");
  if (counts.empty()) return 0;
  return *std::min_element(counts.begin(), counts.end());
}

}  // namespace kadop::query
