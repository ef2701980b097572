#ifndef KADOP_DHT_MESSAGES_H_
#define KADOP_DHT_MESSAGES_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "index/posting.h"
#include "sim/message.h"

namespace kadop::dht {

/// Keys are hashed into a 64-bit identifier ring.
using KeyId = uint64_t;

/// Request identifier: unique per (origin peer, sequence).
using RequestId = uint64_t;

/// Envelope for multi-hop routing: carries the target key, the inner
/// payload, and a hop counter. Every hop is a real simulated message, so
/// routing cost shows up in both time and traffic (Fig 2's locate() cost).
/// `hinted` marks an envelope sent straight to a node a directory reply
/// named as the key's owner; it rides in the hop counter's spare bits.
struct RouteEnvelope final : sim::Payload {
  KeyId key = 0;
  sim::PayloadPtr inner;
  uint32_t hops = 0;
  bool hinted = false;
  sim::TrafficCategory category = sim::TrafficCategory::kControl;

  size_t SizeBytes() const override {
    return 16 + (inner ? inner->SizeBytes() : 0);
  }
  std::string_view TypeName() const override { return "RouteEnvelope"; }
};

/// locate(k): resolve the peer in charge of a key.
struct LocateRequest final : sim::Payload {
  RequestId req_id = 0;
  sim::NodeIndex origin = 0;

  size_t SizeBytes() const override { return 16; }
  std::string_view TypeName() const override { return "LocateRequest"; }
};

struct LocateResponse final : sim::Payload {
  RequestId req_id = 0;
  sim::NodeIndex owner = 0;

  size_t SizeBytes() const override { return 12; }
  std::string_view TypeName() const override { return "LocateResponse"; }
};

/// append(k, entries): the Section 3 API extension. `per_entry` selects the
/// legacy put-reconciliation path in the receiving store (the baseline).
struct AppendRequest final : sim::Payload {
  std::string key;
  /// The `codec::EncodePostings` stream (docs/wire_format.md).
  std::vector<uint8_t> postings;
  /// Document types (root labels) the postings come from. The DPP layer
  /// folds them into its block conditions so queries can skip blocks whose
  /// types cannot match (Section 4.1, type-aware conditions).
  std::vector<std::string> doc_types;
  bool per_entry = false;
  /// Remaining replication fan-out (receiver forwards to its successor).
  uint32_t replicate = 0;
  /// If nonzero, the responsible peer acks to `ack_origin` once applied.
  RequestId ack_req_id = 0;
  sim::NodeIndex ack_origin = 0;
  /// Nonzero for retry-capable appends: the receiving peers remember the id
  /// and apply the request at most once, so a client may resend after a
  /// timeout without double-inserting postings. Stable across resends (the
  /// per-attempt ack_req_id is not).
  uint64_t dedup_id = 0;

  size_t SizeBytes() const override {
    size_t total = key.size() + 8 + postings.size();
    for (const auto& t : doc_types) total += t.size() + 1;
    if (dedup_id != 0) total += 8;
    return total;
  }
  std::string_view TypeName() const override { return "AppendRequest"; }
};

/// Durability ack for an append.
struct AppendAck final : sim::Payload {
  RequestId req_id = 0;

  size_t SizeBytes() const override { return 8; }
  std::string_view TypeName() const override { return "AppendAck"; }
};

/// get(k) / pipelined get(k): retrieve a posting list, optionally streamed
/// in blocks and optionally restricted to a posting range.
struct GetRequest final : sim::Payload {
  std::string key;
  RequestId req_id = 0;
  sim::NodeIndex origin = 0;
  bool pipelined = false;
  /// Block granularity for the pipelined transfer, in postings.
  uint32_t block_postings = 4096;
  index::Posting lo = index::kMinPosting;
  index::Posting hi = index::kMaxPosting;

  size_t SizeBytes() const override { return key.size() + 56; }
  std::string_view TypeName() const override { return "GetRequest"; }
};

/// One block of a (pipelined) get response. A non-pipelined get returns a
/// single block with `last = true`.
struct GetBlock final : sim::Payload {
  RequestId req_id = 0;
  uint32_t block_index = 0;
  bool last = false;
  /// The block's own `codec::EncodePostings` stream, with no header
  /// (blocks are posting-aligned; docs/wire_format.md).
  std::vector<uint8_t> postings;

  size_t SizeBytes() const override { return postings.size() + 16; }
  std::string_view TypeName() const override { return "GetBlock"; }
};

/// delete(k, entry).
struct DeleteRequest final : sim::Payload {
  std::string key;
  index::Posting posting;
  /// If true, delete all postings of `doc` under the key instead.
  bool whole_doc = false;
  index::DocId doc;

  size_t SizeBytes() const override {
    return key.size() + index::Posting::kWireBytes + 12;
  }
  std::string_view TypeName() const override { return "DeleteRequest"; }
};

/// Whole-value blob put (Doc relation, small metadata).
struct BlobPutRequest final : sim::Payload {
  std::string key;
  std::string blob;

  size_t SizeBytes() const override { return key.size() + blob.size() + 8; }
  std::string_view TypeName() const override { return "BlobPutRequest"; }
};

/// Whole-value blob delete.
struct BlobDeleteRequest final : sim::Payload {
  std::string key;

  size_t SizeBytes() const override { return key.size() + 4; }
  std::string_view TypeName() const override { return "BlobDeleteRequest"; }
};

struct BlobGetRequest final : sim::Payload {
  std::string key;
  RequestId req_id = 0;
  sim::NodeIndex origin = 0;

  size_t SizeBytes() const override { return key.size() + 16; }
  std::string_view TypeName() const override { return "BlobGetRequest"; }
};

struct BlobGetResponse final : sim::Payload {
  RequestId req_id = 0;
  std::optional<std::string> blob;

  size_t SizeBytes() const override {
    return 8 + (blob ? blob->size() : 0);
  }
  std::string_view TypeName() const override { return "BlobGetResponse"; }
};

/// Application-level routed request: upper layers (DPP, query engine,
/// Fundex) define their own payloads and register a handler on the peer.
struct AppRequest final : sim::Payload {
  std::string key;
  RequestId req_id = 0;
  sim::NodeIndex origin = 0;
  sim::PayloadPtr inner;

  size_t SizeBytes() const override {
    return key.size() + 16 + (inner ? inner->SizeBytes() : 0);
  }
  std::string_view TypeName() const override { return "AppRequest"; }
};

/// Application-level response, sent directly back to the request origin.
struct AppResponse final : sim::Payload {
  RequestId req_id = 0;
  sim::PayloadPtr inner;

  size_t SizeBytes() const override {
    return 8 + (inner ? inner->SizeBytes() : 0);
  }
  std::string_view TypeName() const override { return "AppResponse"; }
};

}  // namespace kadop::dht

#endif  // KADOP_DHT_MESSAGES_H_
