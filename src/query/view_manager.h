#ifndef KADOP_QUERY_VIEW_MANAGER_H_
#define KADOP_QUERY_VIEW_MANAGER_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "dht/peer.h"
#include "index/publisher.h"
#include "query/view.h"

namespace kadop::query {

/// The per-DHT view catalog: every registered view's definition plus the
/// maintenance bookkeeping that decides whether its extent may serve.
///
/// The catalog is a single in-process object shared by all peers of one
/// simulated network, standing in for a catalog blob published under the
/// well-known key "view:catalog" (which the core layer does keep up to
/// date for discovery). Its version reads (DhtPeer::AuthoritativeVersion,
/// ROADMAP item 7) model control-plane metadata that real deployments
/// piggyback on existing traffic — the *data* plane
/// (extent columns, delta appends, probe round-trips) always moves over
/// simulated links.
///
/// Freshness guard (docs/views.md): an extent may serve only when
///   1. materialization finished (`ready`) and every maintenance operation
///      sent has been acked (`pending == applied`), and
///   2. every extent column's store version equals the version recorded at
///      the last resync, and
///   3. every *base term* posting-list version of the view pattern equals
///      the version recorded at the last resync — so an append that
///      bypassed delta maintenance (or data lost with a crashed holder)
///      silently disqualifies the extent instead of serving stale answers.
///
/// There is no switch: the catalog rewrites exactly when it holds a
/// registered view, and an empty catalog answers FindRewrite at once
/// without counting anything.
class ViewCatalog {
 public:
  ViewCatalog() = default;

  ViewCatalog(const ViewCatalog&) = delete;
  ViewCatalog& operator=(const ViewCatalog&) = delete;

  struct Entry {
    ViewDefinition def;
    /// Materialization finished and the extent columns are installed.
    bool ready = false;
    /// Maintenance operations (materialization chunks, publish deltas,
    /// unpublish deletes) sent vs. acked.
    uint64_t pending = 0;
    uint64_t applied = 0;
    /// Extent cardinality in answer tuples (the rewriter's pricing input).
    uint64_t answers = 0;
    /// Stored postings per extent column (directory-count-style
    /// verification target for serves).
    std::vector<uint64_t> column_counts;
    /// Version oracles recorded at the last resync; see class comment.
    std::vector<uint64_t> column_versions;
    std::vector<uint64_t> term_versions;
    /// Per-view serve statistics (shell `views list`).
    uint64_t hits = 0;
    uint64_t fallbacks = 0;
  };

  /// A servable rewrite of a query pattern against one catalog entry.
  struct Rewrite {
    std::string name;
    ViewDefinition def;
    ViewMatch match;
    /// Snapshot of the matched columns' stored counts (verification) and
    /// their sum (pricing).
    std::vector<uint64_t> column_counts;
    uint64_t extent_postings = 0;
  };

  // -- Registration ---------------------------------------------------------

  /// Registers a view over `pattern`. `name` empty picks "v<N>". Fails on
  /// wildcard patterns and duplicate names/patterns. The new entry is not
  /// `ready` until a materialization completes (MarkReady).
  Result<std::string> Register(const TreePattern& pattern, std::string name);
  /// Forgets a view. Its extent columns become unreferenced garbage (each
  /// generation uses fresh column keys, so a later re-create never collides).
  bool Drop(const std::string& name);

  [[nodiscard]] const Entry* Find(const std::string& name) const;
  [[nodiscard]] const std::map<std::string, Entry>& entries() const {
    return entries_;
  }
  /// One line per view: name, pattern, readiness, cardinality, hits.
  [[nodiscard]] std::string Describe() const;

  // -- Rewriting ------------------------------------------------------------

  /// Matches `pattern` against the catalog — exact pattern match first,
  /// then sub-pattern containment in name order — returning the first
  /// rewrite whose extent passes the freshness guard against `peer`'s
  /// version oracles. Counts view.rewrites / view.misses.
  [[nodiscard]] std::optional<Rewrite> FindRewrite(const TreePattern& pattern,
                                                   dht::DhtPeer* peer);

  /// The freshness guard alone (see class comment).
  [[nodiscard]] bool Servable(const Entry& entry, dht::DhtPeer* peer) const;

  // -- Maintenance ----------------------------------------------------------

  /// Begins one maintenance operation against `name` (pending++); the
  /// matching OnMaintenanceApplied must run from the operation's ack.
  void BeginMaintenance(const std::string& name);
  /// Acks one maintenance operation: adjusts column `node`'s stored count
  /// by `count_delta` and, once no operation is in flight, re-records the
  /// version oracles through `peer`. `extent_prefix` guards generations —
  /// an ack raced by drop + re-create targets dead columns and is ignored.
  /// `count_delta == 0` with `authoritative_count` set installs a probed
  /// count instead.
  void OnMaintenanceApplied(const std::string& name,
                            const std::string& extent_prefix, size_t node,
                            int64_t count_delta,
                            std::optional<uint64_t> authoritative_count,
                            dht::DhtPeer* peer);
  /// Adjusts the extent cardinality by one delta run's answer count.
  void AddAnswerDelta(const std::string& name, int64_t delta);
  /// Marks materialization complete; serves may start once in sync.
  void MarkReady(const std::string& name);
  /// Re-records every in-sync entry's version oracles through `peer` —
  /// call after the network went quiescent (e.g. KadopNet::SyncViews).
  void Resync(dht::DhtPeer* peer);

  /// Publisher `derive` hook body: per registered view, the publishing
  /// document's answer run projected onto extent columns, as acked derived
  /// appends (PR 3 dedup/retry applies — the publisher ships them like any
  /// posting batch). Begins the maintenance ops it returns.
  [[nodiscard]] std::vector<index::DerivedAppend> MakePublishDeltas(
      dht::DhtPeer* peer, const xml::Document& doc, index::PeerId peer_id,
      index::DocSeq seq, const std::vector<index::TermPosting>& postings);

  /// Publisher unpublish hook body: deletes the withdrawn document's
  /// projections from every affected extent column and follows each delete
  /// with a count-probe round-trip that doubles as the apply ack.
  void HandleUnpublish(dht::DhtPeer* peer, const xml::Document& doc,
                       index::PeerId peer_id, index::DocSeq seq,
                       const std::vector<index::TermPosting>& postings);

  // -- Executor accounting --------------------------------------------------

  void CountHit(const std::string& name, bool exact, uint64_t wire_bytes);
  void CountFallback(const std::string& name);

 private:
  Entry* FindMutable(const std::string& name);
  void ResyncEntry(Entry& entry, dht::DhtPeer* peer);

  std::map<std::string, Entry> entries_;
  /// pattern key -> view name (exact-match index).
  std::map<std::string, std::string> by_pattern_;
  uint64_t next_name_id_ = 0;
  uint64_t next_generation_ = 0;
};

}  // namespace kadop::query

#endif  // KADOP_QUERY_VIEW_MANAGER_H_
