#ifndef KADOP_INDEX_PUBLISHER_H_
#define KADOP_INDEX_PUBLISHER_H_

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "dht/peer.h"
#include "index/doc_store.h"
#include "index/terms.h"

namespace kadop::index {

/// One extra append derived from a publishing document — e.g. a
/// materialized-view delta (docs/views.md). The publisher ships it through
/// the normal acked `append` path, so batching-era retry + dedup semantics
/// (PR 3) apply unchanged and a network-duplicated delta applies at most
/// once.
struct DerivedAppend {
  std::string key;
  PostingList postings;
  /// Durability ack of this derived batch (may be null). Receives a non-OK
  /// status when the retry budget ran out; the deriving layer treats a
  /// missing/failed ack as "out of sync", never as applied.
  dht::DhtPeer::AppendCallback on_ack;
};

struct PublishOptions {
  /// Postings of the same term are buffered and shipped in batches of at
  /// most this many (Section 3: "postings of the same term are buffered
  /// and sent in batches").
  size_t batch_postings = 512;
  ExtractOptions extract;
  /// Retry policy for the append of each batch. Disabled by default (the
  /// fail-stop workloads need none); chaos workloads enable it so batches
  /// survive drops AND carry a dedup id — without one, a network-duplicated
  /// append is applied twice at the DPP owner, whose directory counts would
  /// drift above the (set-semantics) stored postings.
  dht::RetryPolicy append_retry;
  /// Derivation hook (materialized-view maintenance): called once per
  /// published document with its freshly extracted Term relation; every
  /// returned batch is shipped as an acked append participating in this
  /// publish's completion. Derived postings are not counted in the
  /// `publish.*` base-index stats.
  using DeriveFn = std::function<std::vector<DerivedAppend>(
      dht::DhtPeer* peer, const xml::Document& doc, PeerId peer_id,
      DocSeq seq, const std::vector<TermPosting>& postings)>;
  DeriveFn derive;
  /// Withdrawal hook, called after a document's base-index postings were
  /// deleted, with the same re-extracted Term relation the deletes used.
  using UnpublishHook = std::function<void(
      dht::DhtPeer* peer, const xml::Document& doc, PeerId peer_id,
      DocSeq seq, const std::vector<TermPosting>& postings)>;
  UnpublishHook on_unpublish;
  /// Fires when a publish fully settles (every base batch and derived
  /// delta acked), before the caller's `on_done`. The view catalog resyncs
  /// its base-term version oracle here: a hooked publish accounts for its
  /// own version bumps, so only appends that bypassed the hooks leave the
  /// oracle tripped.
  std::function<void(dht::DhtPeer* peer)> on_complete;
};

/// Publishes documents from one peer: constructs the Term relation in a
/// single traversal per document, registers the document locally, stores
/// the Doc relation entry (doc id -> uri), and ships posting batches via
/// the DHT `append` API. Completion fires when every batch is acked by its
/// responsible peer.
class Publisher {
 public:
  Publisher(dht::DhtPeer* peer, DocStore* doc_store,
            PublishOptions options = {});

  Publisher(const Publisher&) = delete;
  Publisher& operator=(const Publisher&) = delete;

  /// Publishes `docs` (borrowed; must outlive the simulation run).
  /// `on_done` fires when all postings are durably indexed.
  void Publish(const std::vector<const xml::Document*>& docs,
               std::function<void()> on_done);

  /// Withdraws a previously published document: every posting of
  /// (this peer, seq) is deleted from the index, and the document leaves
  /// the local store. Document *modification* is unpublish + republish
  /// (Section 2: "a document modification is interpreted as deletion
  /// followed by insertion"). Returns false if `seq` is unknown.
  [[nodiscard]] bool Unpublish(DocSeq seq);

 private:
  struct Buffer {
    PostingList postings;
    /// Document types (root labels) contributing to this batch, for the
    /// DPP's type-aware conditions.
    std::set<std::string> types;
  };
  void Flush(const std::string& key, Buffer buffer);
  /// Consumes one outstanding ack; on the last one runs `on_complete`
  /// (settled-index hook) and then the caller's `on_done`.
  void AckOne();

  dht::DhtPeer* peer_;
  DocStore* doc_store_;
  PublishOptions options_;
  size_t outstanding_acks_ = 0;
  std::function<void()> on_done_;
};

}  // namespace kadop::index

#endif  // KADOP_INDEX_PUBLISHER_H_
