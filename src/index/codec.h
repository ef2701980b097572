#ifndef KADOP_INDEX_CODEC_H_
#define KADOP_INDEX_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "index/posting.h"

namespace kadop::index::codec {

/// Group-delta + varint codec for sorted posting lists (docs/wire_format.md).
///
/// Lists are kept in clustered (peer, doc, sid) order, which makes them
/// near-ideal delta-coding input: consecutive postings usually share the
/// (peer, doc) prefix, and sid starts are non-decreasing within a
/// (peer, doc) run. The encoded stream is
///
///   varint(count)
///   run*:  varint(doc_field << 2 | new_peer << 1 | multi)
///          [varint(dpeer)]        only if new_peer
///          [varint(run_len - 2)]  only if multi
///          posting*: varint(dstart) varint(width << 1 | level_changed)
///                    [varint(level)]  only if level_changed
///
/// A run is a maximal group of postings sharing (peer, doc); `multi` says
/// it holds two or more (else exactly one). `new_peer` says the peer
/// differs from the previous run's (0 before the first run) and `dpeer` is
/// that non-zero delta. `doc_field` is the absolute doc id on a new peer
/// and the doc delta otherwise. `dstart` restarts at the absolute sid
/// start on each run, `width` is `end - start`, and the level is written
/// only when it differs from the previous posting's, carried across the
/// whole list from 0 (3% of a DBLP corpus's postings change level).
/// Every varint is LEB128 (7 bits per byte).
///
/// Encoding requires `IsSortedPostingList(list)` and `sid.end >= sid.start`
/// for every posting — the invariants every stored list already satisfies.
/// Duplicates encode as zero deltas; the codec never deduplicates. The
/// decoder accepts only the encoder's canonical output, so an accepted
/// stream re-encodes to the same bytes.
///
/// This is the only posting wire and store format: every posting payload
/// and stored list is charged at its encoded size. The raw 18-byte record
/// size (`RawBytes`) survives only as the paper's data-volume unit.

/// LEB128 length of `v` (1..10 bytes).
[[nodiscard]] size_t VarintLen(uint64_t v);

/// Serializes `list` (sorted; see above). The buffer round-trips through
/// `DecodePostings` and its size always equals `EncodedBytes(list)`.
/// Records the achieved ratio in `codec.{raw,encoded}_bytes`.
[[nodiscard]] std::vector<uint8_t> EncodePostings(const PostingList& list);

/// Inverse of `EncodePostings`. Fails with `kCorruption` on truncated,
/// malformed or non-canonical input (a padded varint, a `new_peer` bit
/// with a zero delta, a run past the count or repeating the previous
/// run's (peer, doc), a level bit that keeps the level, postings out of
/// order) instead of crashing; `out` is cleared first and holds the full
/// decoded list only on OK.
[[nodiscard]] Status DecodePostings(const uint8_t* data, size_t size,
                                    PostingList* out);
[[nodiscard]] Status DecodePostings(const std::vector<uint8_t>& buffer,
                                    PostingList* out);

/// Decodes a payload's stream at its receiver; the simulator delivers the
/// sender's bytes intact, so a corrupt stream is a bug and aborts.
[[nodiscard]] PostingList DecodePayload(const std::vector<uint8_t>& stream);

/// Exact size of `EncodePostings(list)` without materializing the buffer —
/// the size model used for every network/store cost charge (peer-store
/// B+-tree leaves hold delta blocks too), so the simulator never allocates
/// encode buffers on hot paths.
[[nodiscard]] size_t EncodedBytes(const PostingList& list);

/// Encoded size of a single posting as a standalone one-element stream —
/// the charge of a one-posting append or erase (a batch append is charged
/// `EncodedBytes` of the batch, never the whole stored list).
[[nodiscard]] size_t EncodedSingleBytes(const Posting& posting);

/// Raw (fixed 18-byte record) sizes. The only sanctioned home for
/// `* Posting::kWireBytes` arithmetic outside this library is
/// `PostingListBytes` itself (lint rule KDP010).
[[nodiscard]] constexpr size_t RawBytes(size_t count) {
  return count * Posting::kWireBytes;
}
[[nodiscard]] inline size_t RawBytes(const PostingList& list) {
  return RawBytes(list.size());
}

/// Per-posting byte estimate for the query planner's transfer-cost model: a
/// fixed documented estimate of the delta-coded size
/// (docs/wire_format.md#planner).
[[nodiscard]] double EstimatedWirePostingBytes();

/// Answer-tuple codec: the one wire format for tree-pattern answers (the
/// kDppJoin holder reply and the phase-2 document-query reply;
/// docs/wire_format.md#answer-stream). The stream is
///
///   varint(matched_count)
///   matched*: varint(dpeer) varint(ddoc | doc)
///   varint(answer_count)
///   run*:     varint(dpeer) varint(ddoc | doc) varint(run_len)
///             answer*: per pattern node, either
///                      0                                (sid repeats), or
///                      varint(zigzag(dstart) + 1)
///                      varint(width << 1 | level_changed)
///                      [varint(level)]  only if level_changed
///
/// A run is a maximal group of answers sharing `(peer, doc)`. Peer and doc
/// fields are the posting codec's before its run-header packing (doc
/// absolute on a peer change, else a delta), taken mod 2^32 so any
/// document order round-trips. Inside a run each pattern node's sid is
/// coded against the same node's sid in the previous answer (the zero sid
/// for the run's first answer): a repeat — typically the root element — is
/// one 0 byte; otherwise the start delta is zigzag-coded, because a
/// non-root column may decrease on a branching pattern. Each pattern node
/// keeps its last level across runs (starting at 0, updated by every sid,
/// repeats included), and a written sid carries its level only when it
/// differs. Every answer must carry the same number of elements, and every
/// sid needs `end >= start`.
[[nodiscard]] std::vector<uint8_t> EncodeAnswers(
    const std::vector<DocId>& matched_docs, const std::vector<Answer>& answers);

/// Exact size of `EncodeAnswers(matched_docs, answers)` — the same walk,
/// counting instead of writing.
[[nodiscard]] size_t EncodedAnswerBytes(const std::vector<DocId>& matched_docs,
                                        const std::vector<Answer>& answers);

/// Inverse of `EncodeAnswers` for answers of `arity` elements (the
/// pattern's node count; the stream does not repeat it). Fails with
/// `kCorruption` on truncated, malformed, non-canonical or trailing input
/// and on counts the buffer cannot hold, never crashing or
/// over-allocating; both outputs are cleared first and hold the decoded
/// stream only on OK.
[[nodiscard]] Status DecodeAnswers(const uint8_t* data, size_t size,
                                   size_t arity,
                                   std::vector<DocId>* matched_docs,
                                   std::vector<Answer>* answers);

/// Per-answer byte estimate of the answer stream for a pattern of `nodes`
/// nodes, the planner's price for kDppJoin result egress
/// (docs/wire_format.md#planner).
[[nodiscard]] double EstimatedWireAnswerBytes(size_t nodes);

}  // namespace kadop::index::codec

#endif  // KADOP_INDEX_CODEC_H_
