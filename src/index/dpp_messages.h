#ifndef KADOP_INDEX_DPP_MESSAGES_H_
#define KADOP_INDEX_DPP_MESSAGES_H_

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "dht/peer.h"
#include "index/codec.h"
#include "index/condition.h"
#include "index/posting.h"
#include "sim/message.h"

namespace kadop::index {

/// Append a sub-batch, as its `codec::EncodePostings` stream, into an
/// (overflow) DPP block; routed to the block's pseudo-key, i.e. the peer
/// holding the block.
struct DppAppendToBlock final : sim::Payload {
  std::string block_key;
  std::vector<uint8_t> postings;

  size_t SizeBytes() const override {
    return block_key.size() + postings.size() + 8;
  }
  std::string_view TypeName() const override { return "DppAppendToBlock"; }
};

/// Ack for DppAppendToBlock, carrying the block's new size.
struct DppAppendDone final : sim::Payload {
  uint64_t new_count = 0;

  size_t SizeBytes() const override { return 8; }
  std::string_view TypeName() const override { return "DppAppendDone"; }
};

/// Stores a freshly migrated block, as its `codec::EncodePostings` stream,
/// at the new holder (routed to the new pseudo-key).
struct DppStoreBlock final : sim::Payload {
  std::string block_key;
  std::vector<uint8_t> postings;

  size_t SizeBytes() const override {
    return block_key.size() + postings.size() + 8;
  }
  std::string_view TypeName() const override { return "DppStoreBlock"; }
};

struct DppStoreBlockDone final : sim::Payload {
  uint64_t count = 0;

  size_t SizeBytes() const override { return 8; }
  std::string_view TypeName() const override { return "DppStoreBlockDone"; }
};

/// Asks the holder of `block_key` to split the block: keep the lower half,
/// migrate the upper half to `new_block_key` (routed by the DHT). With
/// `random_split` (the ablation of Section 4.1), postings are dealt
/// alternately instead of by the median, so both halves keep the full
/// range.
struct DppSplitBlock final : sim::Payload {
  std::string block_key;
  std::string new_block_key;
  bool random_split = false;

  size_t SizeBytes() const override {
    return block_key.size() + new_block_key.size() + 4;
  }
  std::string_view TypeName() const override { return "DppSplitBlock"; }
};

/// Split outcome reported back to the term owner so it can update the root
/// block's conditions. `new_holder` is the node that stored the migrated
/// half: the sender of the reply to the old holder's routed DppStoreBlock,
/// so the owner can name the new block's holder without a routed write.
struct DppSplitDone final : sim::Payload {
  bool ok = false;
  Condition lower;
  Condition upper;
  uint64_t lower_count = 0;
  uint64_t upper_count = 0;
  std::optional<sim::NodeIndex> new_holder;

  size_t SizeBytes() const override {
    // Two conditions = four raw posting bounds (fixed-format fields); the
    // new holder is a varint node index (its presence rides in `ok`'s
    // byte).
    return codec::RawBytes(4) + 20 +
           (new_holder.has_value() ? codec::VarintLen(*new_holder) : 0);
  }
  std::string_view TypeName() const override { return "DppSplitDone"; }
};

/// Deletes postings from a DPP block at its holder (routed by block key).
struct DppDeleteFromBlock final : sim::Payload {
  std::string block_key;
  bool whole_doc = false;
  Posting posting;
  DocId doc;

  size_t SizeBytes() const override {
    return block_key.size() + Posting::kWireBytes + 12;
  }
  std::string_view TypeName() const override { return "DppDeleteFromBlock"; }
};

struct DppDeleteDone final : sim::Payload {
  uint64_t removed = 0;

  size_t SizeBytes() const override { return 8; }
  std::string_view TypeName() const override { return "DppDeleteDone"; }
};

/// One root-block entry: a condition plus the pseudo-key leading to the
/// block that satisfies it. `types` is the set of document types (root
/// labels) with postings in the block; queries skip blocks whose types
/// cannot match (empty set = unknown, never skipped).
///
/// `holder` names the node a read of the block goes to in one hop
/// (GetSpec::owner_hint): for block 0 under the term key, the owner that
/// answered the directory request; for an overflow block, the holder the
/// owner's cache learned (DhtPeer::KnownOwner) from the DppSplitDone that
/// created the block (which carries the holder the old holder's routed
/// DppStoreBlock reached) or from a routed reply to the owner's own
/// writes or get-proxy pulls. On an unchanged ring every overflow block
/// is named. It is absent after a ring change (which empties the cache,
/// so a dead holder is never named after it; a split that straddles one
/// names nothing) until a routed reply teaches the owner again. A stale
/// name costs a forward, or a lost attempt and its routed retry, never a
/// misdelivery.
struct DppBlockInfo {
  std::string key;
  Condition cond;
  uint64_t count = 0;
  std::set<std::string> types;
  std::optional<sim::NodeIndex> holder;

  size_t WireBytes() const {
    // The condition's raw posting bounds and the 4-byte holder (a reserved
    // value when absent) are fixed-format fields.
    size_t total = key.size() + codec::RawBytes(2) + 12;
    for (const auto& t : types) total += t.size() + 1;
    return total;
  }
};

/// Fetches a term's DPP root block (conditions + pseudo-keys). For a term
/// that was never partitioned, the reply contains one entry whose key is
/// the term key itself.
struct DppDirRequest final : sim::Payload {
  std::string term_key;

  size_t SizeBytes() const override { return term_key.size() + 4; }
  std::string_view TypeName() const override { return "DppDirRequest"; }
};

struct DppDirResponse final : sim::Payload {
  std::vector<DppBlockInfo> blocks;

  size_t SizeBytes() const override {
    size_t total = 8;
    for (const auto& b : blocks) total += b.WireBytes();
    return total;
  }
  std::string_view TypeName() const override { return "DppDirResponse"; }
};

/// One pattern node of a distributed block-join task: only the structural
/// skeleton (parent index and edge axis) crosses the wire — the holder
/// joins postings, not labels. Axis codes mirror query::Axis.
struct BlockJoinPatternNode {
  int32_t parent = -1;
  uint8_t axis = 1;  // 0 = child ('/'), 1 = descendant ('//')
};

/// Asks the peer holding `inputs[home_node][home_block]` (the input with
/// the most postings expected in `window`, sent to that block's
/// pseudo-key, so the window's heaviest input never moves) to execute
/// one block-join task of Section 4.3: read its own block, take the other
/// input blocks trimmed to `window` (pushed to it by their holders, or
/// asked for), run the holistic twig join locally, and reply with a
/// JoinResultMessage carrying only result tuples
/// (docs/distributed_join.md).
struct BlockJoinRequest final : sim::Payload {
  /// The request id of the first input pushed to the home; the pushed
  /// inputs (query::PushedInputs, in node and block order) arrive under
  /// consecutive ids from it. Unused when nothing is pushed.
  dht::RequestId delivery_id = 0;
  uint32_t task = 0;
  std::vector<BlockJoinPatternNode> nodes;
  /// Per pattern node, the surviving directory blocks whose conditions
  /// intersect the task window.
  std::vector<std::vector<DppBlockInfo>> inputs;
  /// The task's document interval (a closed posting range).
  Condition window;
  size_t home_node = 0;
  size_t home_block = 0;
  /// Fetch policy for the holder's pulls, inherited from the originating
  /// query.
  dht::RetryPolicy fetch_retry;

  size_t SizeBytes() const override {
    // Header + retry policy + the window's two raw posting bounds.
    size_t total = 40 + nodes.size() * 5 + codec::RawBytes(2);
    for (const auto& per_node : inputs) {
      total += 8;
      for (const auto& b : per_node) total += b.WireBytes();
    }
    return total;
  }
  std::string_view TypeName() const override { return "BlockJoinRequest"; }
};

/// The holder's reply: per-document answer tuples, never raw postings.
/// The matched documents and answers travel as one codec answer stream
/// (`codec::EncodeAnswers`), which the query peer decodes with its
/// pattern's arity; the message is sized at the stream's length.
struct JoinResultMessage final : sim::Payload {
  uint32_t task = 0;
  std::vector<uint8_t> answers;
  bool complete = true;
  bool degraded = false;
  /// Holder-side accounting, folded into the query's metrics: postings
  /// pulled into the task join, the wire bytes of the non-local pulls
  /// (the home block is read locally and ships nothing), and the number
  /// of input blocks fetched.
  uint64_t postings_pulled = 0;
  uint64_t pulled_wire_bytes = 0;
  uint64_t blocks_fetched = 0;

  size_t SizeBytes() const override { return 48 + answers.size(); }
  std::string_view TypeName() const override { return "JoinResultMessage"; }
};

}  // namespace kadop::index

#endif  // KADOP_INDEX_DPP_MESSAGES_H_
