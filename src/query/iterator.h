#ifndef KADOP_QUERY_ITERATOR_H_
#define KADOP_QUERY_ITERATOR_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "index/posting.h"

namespace kadop::query {

struct TreePattern;

/// One pattern node's decoded posting stream, fed incrementally as blocks
/// arrive from the network (the twig join's streaming discipline) or all
/// at once. Blocks are decoded, owned `PostingList`s; the stream reads them
/// front to back and drops whole blocks when the twig join's document
/// leapfrog skips past them.
class PostingListIterator {
 public:
  PostingListIterator() = default;

  PostingListIterator(PostingListIterator&&) noexcept = default;
  PostingListIterator& operator=(PostingListIterator&&) noexcept = default;
  PostingListIterator(const PostingListIterator&) = delete;
  PostingListIterator& operator=(const PostingListIterator&) = delete;

  /// Appends one sorted block; empty blocks are dropped. Blocks must
  /// arrive in stream order (each block's first posting at or after the
  /// previous block's last).
  void Push(index::PostingList block);
  /// Declares the stream complete: no further Push will happen.
  void Close() { closed_ = true; }

  [[nodiscard]] bool closed() const { return closed_; }
  [[nodiscard]] bool HasBuffered() const { return !blocks_.empty(); }
  [[nodiscard]] bool Exhausted() const { return closed_ && blocks_.empty(); }
  /// Document id of the first unconsumed posting. Requires HasBuffered().
  [[nodiscard]] index::DocId HeadDoc() const;
  /// Document id of the last buffered posting. Requires HasBuffered().
  [[nodiscard]] index::DocId LastBufferedDoc() const;

  /// Drops every buffered posting with doc id < `doc` (galloping within
  /// the front block); returns how many were dropped.
  size_t SkipBelowDoc(index::DocId doc);
  /// Drops everything buffered; returns how many postings were dropped.
  size_t SkipAll();
  /// Pops the postings with doc id == `doc` (which must be the head doc,
  /// if any) into `out`; returns how many were taken.
  size_t TakeDoc(index::DocId doc, index::PostingList& out);

 private:
  void PopFrontBlock();

  std::deque<index::PostingList> blocks_;
  size_t cursor_ = 0;  // consumed postings of the front block
  bool closed_ = false;
};

/// Distinct union of posting lists in canonical order: concatenate, sort
/// only when the concatenation is out of order, drop exact duplicates.
/// Reassembles DPP random-split pulls and holder-side join gathers.
[[nodiscard]] index::PostingList MergeDistinct(
    std::vector<index::PostingList> lists);

/// Cardinality heuristic for a twig query over per-node posting counts:
/// the scarcest node's count. It is not a bound: one posting can take part
/// in many answers. This is the number `kAuto` consumes
/// (docs/query_engine.md#estimates).
[[nodiscard]] uint64_t EstimateTwigResults(
    const TreePattern& pattern, const std::vector<uint64_t>& counts);

}  // namespace kadop::query

#endif  // KADOP_QUERY_ITERATOR_H_
