#ifndef KADOP_QUERY_ITERATOR_H_
#define KADOP_QUERY_ITERATOR_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/status.h"
#include "index/codec.h"
#include "index/condition.h"
#include "index/posting.h"

namespace kadop::query {

using Answer = index::Answer;
struct TreePattern;
class TwigJoin;

/// Bump-pointer arena for per-query decode/join scratch (docs/
/// query_engine.md). Allocation is a pointer bump; nothing is freed
/// individually. `Reset()` recycles every chunk at once, so a long-lived
/// executor can reuse one arena across queries without churning the heap.
///
/// Lifetime rule: spans handed out stay valid until `Reset()` or
/// destruction — a query that decodes blocks into the arena must not
/// reset it while any iterator over those blocks is live.
class Arena {
 public:
  explicit Arena(size_t chunk_bytes = 1 << 16)
      : chunk_bytes_(chunk_bytes == 0 ? 1 : chunk_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Returns `bytes` of storage aligned to `align` (a power of two).
  void* Allocate(size_t bytes, size_t align);

  /// Typed span of `n` default-constructible, trivially destructible
  /// elements (the arena never runs destructors).
  template <typename T>
  T* AllocateArray(size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena storage is reclaimed without destructors");
    T* out = static_cast<T*>(Allocate(n * sizeof(T), alignof(T)));
    for (size_t i = 0; i < n; ++i) new (out + i) T();
    return out;
  }

  /// Recycles all chunks; previously returned spans become invalid.
  void Reset();

  [[nodiscard]] size_t allocated_bytes() const { return allocated_bytes_; }
  [[nodiscard]] size_t chunk_count() const { return chunks_.size(); }

 private:
  struct Chunk {
    std::unique_ptr<uint8_t[]> data;
    size_t size = 0;
  };

  size_t chunk_bytes_;
  // Insertion-ordered chunk list — never keyed or iterated by pointer
  // value, so arena reuse cannot leak allocation order into any output
  // (lint rule KDP014).
  std::vector<Chunk> chunks_;
  size_t current_ = 0;  // chunk being bumped (== chunks_.size() when none)
  size_t used_ = 0;     // bytes used in the current chunk
  size_t allocated_bytes_ = 0;
};

/// One block of a posting stream, in whichever storage form the producer
/// has on hand:
///
///   - an owned decoded list (legacy append paths),
///   - a shared immutable decoded list (zero-copy posting-cache hits),
///   - an encoded `BlockEncoder` stream + exact `[lo, hi]` posting bounds,
///     decoded lazily on first access — or never, when a `SkipTo` jumps
///     past `bounds.hi` (docs/query_engine.md#block-skip).
///
/// Encoded bounds must be the block's exact first/last posting (as the
/// `BlockEncoder` header records them); the iterator uses `bounds.lo` as
/// the head posting of an untouched block and `bounds.hi` for skip and
/// stream-completeness decisions.
class PostingBlock {
 public:
  static PostingBlock FromList(index::PostingList list);
  static PostingBlock FromShared(
      std::shared_ptr<const index::PostingList> list);
  static PostingBlock FromEncoded(
      std::shared_ptr<const std::vector<uint8_t>> bytes,
      index::Condition bounds, uint64_t count);
  /// Parses the `BlockEncoder` header framing off `bytes`. Checks the
  /// header, not the payload — the payload is validated if and when the
  /// block is decoded.
  static Result<PostingBlock> FromEncodedWithHeader(
      std::shared_ptr<const std::vector<uint8_t>> bytes);

  // Move-only: `data_` may point into `owned_`, which a copy would not
  // share.
  PostingBlock(PostingBlock&&) noexcept = default;
  PostingBlock& operator=(PostingBlock&&) noexcept = default;
  PostingBlock(const PostingBlock&) = delete;
  PostingBlock& operator=(const PostingBlock&) = delete;

  [[nodiscard]] const index::Condition& bounds() const { return bounds_; }
  [[nodiscard]] uint64_t count() const { return count_; }
  [[nodiscard]] bool decoded() const { return data_ != nullptr; }
  [[nodiscard]] bool empty() const { return count_ == 0; }

 private:
  friend class PostingListIterator;

  PostingBlock() = default;

  /// Decodes an encoded block (into `arena` when provided, else into the
  /// owned list). Payload corruption is a programming/storage error on
  /// this in-process path and CHECK-fails; untrusted network bytes go
  /// through `codec::DecodePostings` and its Status before reaching here.
  void EnsureDecoded(Arena* arena);

  const index::Posting* data_ = nullptr;  // non-null once decoded
  size_t size_ = 0;
  index::Condition bounds_;
  uint64_t count_ = 0;
  index::PostingList owned_;
  std::shared_ptr<const index::PostingList> shared_;
  std::shared_ptr<const std::vector<uint8_t>> encoded_;
  size_t payload_offset_ = 0;
};

/// The iterator contract (ROADMAP item 4; SNIPPETS.md snippet 3):
///
///   Read(out)           -> next posting in canonical (peer, doc, sid)
///                          order; false when exhausted.
///   SkipTo(target, out) -> first posting >= target; that posting is
///                          consumed (the next Read returns its
///                          successor); false when no such posting.
///   EstimateResultsAmount() -> upper bound on remaining results, cheap
///                          enough for the planner to call before any
///                          decode happens.
///   Abort()             -> drop all remaining input; subsequent reads
///                          fail fast.
class IndexIterator {
 public:
  virtual ~IndexIterator() = default;
  virtual bool Read(index::Posting* out) = 0;
  virtual bool SkipTo(const index::Posting& target, index::Posting* out) = 0;
  [[nodiscard]] virtual uint64_t EstimateResultsAmount() const = 0;
  virtual void Abort() = 0;
};

/// Iterator over one term's posting stream, fed incrementally as blocks
/// arrive from the network (the twig join's streaming discipline) or all
/// at once. Blocks decode lazily; a `SkipTo` (or `SkipBelowDoc`) whose
/// target lies past an encoded block's `bounds.hi` drops the block whole,
/// without ever decoding it — counted in `blocks_skipped_undecoded()` and
/// the `iter.blocks_skipped_undecoded` registry counter.
class PostingListIterator final : public IndexIterator {
 public:
  /// `arena` (optional) receives decoded-block scratch; it must outlive
  /// the iterator's last read.
  explicit PostingListIterator(Arena* arena = nullptr) : arena_(arena) {}

  // Move-only (blocks are move-only).
  PostingListIterator(PostingListIterator&&) noexcept = default;
  PostingListIterator& operator=(PostingListIterator&&) noexcept = default;
  PostingListIterator(const PostingListIterator&) = delete;
  PostingListIterator& operator=(const PostingListIterator&) = delete;

  /// Estimate-only iterator for the planner: carries a cardinality and no
  /// data (reading it is an error).
  static PostingListIterator ForEstimate(uint64_t estimate);

  /// Appends one block; empty blocks are dropped. Blocks must arrive in
  /// stream order (each block's bounds at or after the previous block's).
  void Push(PostingBlock block);
  /// Declares the stream complete: no further Push will happen.
  void Close() { closed_ = true; }

  bool Read(index::Posting* out) override;
  bool SkipTo(const index::Posting& target, index::Posting* out) override;
  [[nodiscard]] uint64_t EstimateResultsAmount() const override;
  void Abort() override;

  // --- streaming accessors (used by the twig join) -----------------------
  [[nodiscard]] bool closed() const { return closed_; }
  [[nodiscard]] bool HasBuffered() const { return !blocks_.empty(); }
  [[nodiscard]] bool Exhausted() const { return closed_ && blocks_.empty(); }
  /// Document id of the first unconsumed posting (no decode: an untouched
  /// encoded block answers from its header bounds). Requires HasBuffered().
  [[nodiscard]] index::DocId HeadDoc() const;
  /// Document id of the last buffered posting. Requires HasBuffered().
  [[nodiscard]] index::DocId LastBufferedDoc() const;

  /// Drops every buffered posting with doc id < `doc`; returns how many
  /// were dropped. Blocks entirely below `doc` are skipped undecoded.
  size_t SkipBelowDoc(index::DocId doc);
  /// Drops everything buffered; returns how many postings were dropped.
  size_t SkipAll();
  /// Pops the postings with doc id == `doc` (which must be the head doc,
  /// if any) into `out`; returns how many were taken.
  size_t TakeDoc(index::DocId doc, index::PostingList& out);

  [[nodiscard]] uint64_t blocks_decoded() const { return blocks_decoded_; }
  [[nodiscard]] uint64_t blocks_skipped_undecoded() const {
    return blocks_skipped_undecoded_;
  }

 private:
  void PopFrontBlock();
  /// Decodes the front block if needed and returns it.
  PostingBlock& FrontDecoded();

  Arena* arena_ = nullptr;
  std::deque<PostingBlock> blocks_;
  size_t cursor_ = 0;  // consumed postings of the front block
  bool closed_ = false;
  uint64_t buffered_ = 0;  // unconsumed postings across all blocks
  uint64_t estimate_only_ = 0;
  bool is_estimate_ = false;
  uint64_t blocks_decoded_ = 0;
  uint64_t blocks_skipped_undecoded_ = 0;
};

/// Distinct-union of its children: emits the postings present in any
/// child, in canonical order, with exact duplicates (across *and* within
/// children) emitted once — the iterator form of the merge paths'
/// concat + sort + unique, byte-identical for sorted inputs.
class UnionIterator final : public IndexIterator {
 public:
  explicit UnionIterator(std::vector<std::unique_ptr<IndexIterator>> children);

  bool Read(index::Posting* out) override;
  bool SkipTo(const index::Posting& target, index::Posting* out) override;
  [[nodiscard]] uint64_t EstimateResultsAmount() const override;
  void Abort() override;

 private:
  struct Child {
    std::unique_ptr<IndexIterator> it;
    index::Posting peek;
    bool has_peek = false;
    bool done = false;
  };
  bool Prime(Child& c);

  std::vector<Child> children_;
};

/// Document-level intersection: emits the postings of children[0] whose
/// document appears in every child, in canonical order. Alignment uses a
/// galloping doc-level leapfrog over `SkipTo`, so blocks of the larger
/// children whose doc range misses the smaller ones are never decoded.
class IntersectIterator final : public IndexIterator {
 public:
  explicit IntersectIterator(
      std::vector<std::unique_ptr<IndexIterator>> children);

  bool Read(index::Posting* out) override;
  bool SkipTo(const index::Posting& target, index::Posting* out) override;
  [[nodiscard]] uint64_t EstimateResultsAmount() const override;
  void Abort() override;

 private:
  /// Aligns all children on the next common document >= pending_'s doc.
  /// Returns false at end of input.
  bool AlignOnDoc();

  std::vector<std::unique_ptr<IndexIterator>> children_;
  std::vector<index::Posting> peeks_;   // children_[1..]: last posting read
  std::vector<char> has_peek_;
  index::Posting pending_;              // next unconsumed child-0 posting
  bool has_pending_ = false;
  index::DocId agreed_doc_;             // doc all children currently share
  bool emitting_ = false;
  bool done_ = false;
};

/// Batch materialization of a distinct union — the iterator-tree
/// replacement for every `concat + sort + unique` merge of independently
/// sorted lists (DPP random-split reassembly, holder-side join gathers).
[[nodiscard]] index::PostingList MergeDistinct(std::vector<PostingBlock> blocks);
[[nodiscard]] index::PostingList MergeDistinct(
    std::vector<index::PostingList> lists);

/// Structural-join iterator: wraps the twig machinery (stream alignment,
/// semi-join pruning, tuple enumeration) behind the iterator API for
/// one-shot (non-streaming) joins — local evaluation, holder-side block
/// joins, the executor's local fallback. Inputs are per-pattern-node
/// posting blocks in any storage form; encoded blocks join lazily and are
/// skipped undecoded when the document leapfrog jumps past them.
class StructuralJoinIterator {
 public:
  explicit StructuralJoinIterator(const TreePattern& pattern,
                                  size_t max_answers = size_t{1} << 20);
  ~StructuralJoinIterator();

  StructuralJoinIterator(StructuralJoinIterator&&) noexcept;
  StructuralJoinIterator& operator=(StructuralJoinIterator&&) noexcept;

  /// Adds one input block for pattern node `node`. Blocks of one node
  /// must be added in stream order.
  void AddInput(size_t node, PostingBlock block);

  /// Planner hook: min over the per-node input cardinalities — the twig
  /// result count is bounded by its scarcest stream. Valid before any
  /// decode happens.
  [[nodiscard]] uint64_t EstimateResultsAmount() const;

  /// Runs the join to completion.
  void Run();

  [[nodiscard]] const std::vector<Answer>& answers() const;
  [[nodiscard]] const std::vector<index::DocId>& matched_docs() const;
  [[nodiscard]] std::vector<Answer> TakeAnswers();
  [[nodiscard]] std::vector<index::DocId> TakeMatchedDocs();
  [[nodiscard]] uint64_t postings_consumed() const;
  [[nodiscard]] uint64_t blocks_skipped_undecoded() const;

 private:
  std::unique_ptr<TwigJoin> join_;
  std::vector<uint64_t> input_counts_;
};

/// Cardinality estimate for a twig query over per-node posting counts,
/// derived from the estimate-mode iterator tree the runtime would build
/// (leaf `PostingListIterator`s intersected document-wise). This is the
/// number `kAuto` consumes (docs/query_engine.md#estimates).
[[nodiscard]] uint64_t EstimateTwigResults(
    const TreePattern& pattern, const std::vector<uint64_t>& counts);

}  // namespace kadop::query

#endif  // KADOP_QUERY_ITERATOR_H_
