#ifndef KADOP_QUERY_TWIG_JOIN_H_
#define KADOP_QUERY_TWIG_JOIN_H_

#include <cstddef>
#include <vector>

#include "index/posting.h"
#include "query/iterator.h"
#include "query/tree_pattern.h"

namespace kadop::query {

/// One index-query answer (defined in index/posting.h for the codec).
using Answer = index::Answer;

namespace internal {

/// Semi-join pruning of one document's per-node candidate lists along the
/// pattern edges (bottom-up then top-down). Returns false if some node has
/// no surviving candidate (no match in this document).
[[nodiscard]] bool PruneCandidates(const TreePattern& pattern,
                     std::vector<index::PostingList>& candidates);

/// Enumerates all consistent assignments over (pruned) candidates and
/// appends them to `answers`, up to `max_answers` total. Returns the
/// number of answers added.
size_t EnumerateMatches(const TreePattern& pattern, const index::DocId& doc,
                        const std::vector<index::PostingList>& candidates,
                        size_t max_answers, std::vector<Answer>& answers);

}  // namespace internal

/// A streaming, block-based holistic twig join.
///
/// Each pattern node has an input stream of postings in the canonical
/// (peer, doc, sid) order, fed incrementally (`Append`) as network blocks
/// arrive and terminated with `Close`. The join advances document by
/// document: as soon as every stream has moved past document D (or ended),
/// D's candidates are joined — semi-join pruning along the pattern edges,
/// then match enumeration — and answers for D are emitted. This is the
/// consumer side of the paper's pipelined evaluation: answers stream out
/// while later blocks are still in flight, giving the "time to first
/// answer" behaviour of Sections 3 and 4.2.
///
/// Streams are `PostingListIterator`s over decoded blocks, so the join
/// leapfrogs at document granularity: when the stream heads disagree on a
/// document, every posting below the furthest head provably cannot match
/// and is skipped in bulk (whole blocks at once when they lie entirely
/// below it). Answers and `postings_consumed()` totals are identical to
/// the posting-at-a-time discipline; only the work to get there shrinks.
class TwigJoin {
 public:
  /// `max_answers` caps enumeration (protection against cross-product
  /// blowup); matched documents are still tracked exactly.
  explicit TwigJoin(const TreePattern& pattern,
                    size_t max_answers = 1 << 20);

  TwigJoin(const TwigJoin&) = delete;
  TwigJoin& operator=(const TwigJoin&) = delete;

  /// Feeds a block of postings into `node`'s stream. Within one stream,
  /// calls must be in non-decreasing posting order. Taken by value so the
  /// network-fetch hot path can move blocks in without a copy; callers
  /// that keep their list pass an lvalue and pay one bulk copy.
  void Append(size_t node, index::PostingList postings);

  /// Marks `node`'s stream as ended.
  void Close(size_t node);

  /// Closes every stream (e.g. on timeout, accepting incomplete input).
  void CloseAll();

  /// Processes every document that is now complete across all streams.
  /// Returns the number of new answers produced.
  size_t Advance();

  /// True once every stream is closed and fully consumed.
  [[nodiscard]] bool Done() const;

  const std::vector<Answer>& answers() const { return answers_; }
  const std::vector<index::DocId>& matched_docs() const {
    return matched_docs_;
  }
  /// Total postings consumed across all streams (bulk skips included).
  size_t postings_consumed() const { return consumed_; }

 private:
  /// Joins one document's candidates; appends answers.
  void JoinDocument(const index::DocId& doc,
                    std::vector<index::PostingList>& candidates);

  const TreePattern pattern_;
  const size_t max_answers_;
  std::vector<PostingListIterator> streams_;
  std::vector<index::PostingList> scratch_;  // per-doc candidates, reused
  std::vector<Answer> answers_;
  std::vector<index::DocId> matched_docs_;
  size_t consumed_ = 0;
  bool enumeration_capped_ = false;
};

}  // namespace kadop::query

#endif  // KADOP_QUERY_TWIG_JOIN_H_
