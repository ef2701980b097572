#ifndef KADOP_QUERY_VIEW_MANAGER_H_
#define KADOP_QUERY_VIEW_MANAGER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "dht/peer.h"
#include "index/publisher.h"
#include "query/view.h"

namespace kadop::obs {
class Counter;
class Gauge;
}  // namespace kadop::obs

namespace kadop::query {

/// Knobs of the materialized-view layer (docs/views.md). Off by default:
/// with `enabled == false` nothing is recorded, rewritten or priced, so
/// every seeded baseline is byte-identical to the pre-view build.
struct ViewOptions {
  /// Master switch for view-based rewriting (and advisor bookkeeping).
  /// Registered views are still *maintained* while off — incremental
  /// deltas are cheap, and an extent that fell behind can never be made
  /// fresh again without re-materializing.
  bool enabled = false;
  /// Hot-pattern auto-selection (the ViewAdvisor). Requires `enabled`.
  bool advisor = false;
  /// Advisor window length (virtual seconds). Windows close lazily when
  /// the next recorded query crosses the boundary — an idle network
  /// schedules nothing and RunUntilIdle terminates.
  double window_s = 1.0;
  /// A pattern is hot when it is queried at least this many times per
  /// window for `hot_windows` consecutive windows (promotion hysteresis).
  uint64_t hot_queries_per_window = 8;
  uint32_t hot_windows = 2;
  /// An auto-materialized view cools when its pattern drops to at most
  /// this many queries per window for `cool_windows` consecutive windows.
  uint64_t cool_queries_per_window = 0;
  uint32_t cool_windows = 4;
  /// Windows a demoted pattern must wait before it can be promoted again.
  uint32_t cooldown_windows = 4;
  /// Bound on advisor-materialized views alive at once.
  size_t max_auto_views = 4;
  /// Bound on distinct patterns the query-log tracker follows
  /// (space-saving top-K, see KeyLoadTracker).
  size_t max_tracked_patterns = 64;
};

/// Bounded per-key load tracker (space-saving top-K), the advisor's query
/// log. The tracker holds at most `capacity` keys; a new key evicts the
/// coldest tracked one (deterministic tie-break: lexically smallest key)
/// and inherits its count, the classic space-saving guarantee that a truly
/// hot key cannot be hidden by churn. Counts decay by half per drained
/// window so stale heat fades. It registers exactly two metrics,
/// `load.key.evictions` and the gauge `load.key.tracked`, never one per key.
class KeyLoadTracker {
 public:
  explicit KeyLoadTracker(size_t capacity);

  /// Records one use of `key`.
  void RecordGet(const std::string& key);

  /// Closes the current window: returns per-key uses observed since the
  /// last drain, halves the long-run counts, and forgets keys that decayed
  /// to zero. Iteration order is the keys' lexicographic order.
  std::map<std::string, uint64_t> DrainWindow();

  [[nodiscard]] size_t tracked() const { return entries_.size(); }
  [[nodiscard]] uint64_t evictions() const { return evictions_; }

 private:
  struct Entry {
    uint64_t count = 0;        // decayed long-run estimate
    uint64_t window_gets = 0;  // uses since the last drain
  };

  size_t capacity_;
  uint64_t evictions_ = 0;
  std::map<std::string, Entry> entries_;
  obs::Counter* eviction_counter_;
  obs::Gauge* tracked_gauge_;
};

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
class ViewCatalog {
 public:
  explicit ViewCatalog(ViewOptions options);

  ViewCatalog(const ViewCatalog&) = delete;
  ViewCatalog& operator=(const ViewCatalog&) = delete;

  struct Entry {
    ViewDefinition def;
    bool auto_created = false;
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
  Result<std::string> Register(const TreePattern& pattern, std::string name,
                               bool auto_created);
  /// Forgets a view. Its extent columns become unreferenced garbage (each
  /// generation uses fresh column keys, so a later re-create never collides).
  bool Drop(const std::string& name);

  [[nodiscard]] const Entry* Find(const std::string& name) const;
  [[nodiscard]] const std::map<std::string, Entry>& entries() const {
    return entries_;
  }
  /// One line per view: name, pattern, readiness, cardinality, hits.
  [[nodiscard]] std::string Describe() const;

  void SetEnabled(bool enabled) { options_.enabled = enabled; }
  [[nodiscard]] bool enabled() const { return options_.enabled; }
  [[nodiscard]] const ViewOptions& options() const { return options_; }

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

  // -- Advisor --------------------------------------------------------------

  using MaterializeFn = std::function<void(const std::string& pattern)>;
  using DropViewFn = std::function<void(const std::string& name)>;
  void SetMaterializeFn(MaterializeFn fn) { materialize_fn_ = std::move(fn); }
  void SetDropViewFn(DropViewFn fn) { drop_view_fn_ = std::move(fn); }

  /// Feeds one submitted query into the advisor's pattern-load tracker and
  /// lazily closes elapsed windows (promotion / demotion decisions fire
  /// from here; the advisor never self-schedules).
  void RecordQuery(const std::string& pattern_key, double now);

  // -- Executor accounting --------------------------------------------------

  void CountHit(const std::string& name, bool exact, uint64_t wire_bytes);
  void CountFallback(const std::string& name);

 private:
  Entry* FindMutable(const std::string& name);
  void ResyncEntry(Entry& entry, dht::DhtPeer* peer);
  void AdvisorTick(const std::map<std::string, uint64_t>& window);

  ViewOptions options_;
  std::map<std::string, Entry> entries_;
  /// pattern key -> view name (exact-match index).
  std::map<std::string, std::string> by_pattern_;
  uint64_t next_name_id_ = 0;
  uint64_t next_generation_ = 0;

  // Advisor state.
  KeyLoadTracker pattern_load_;
  double window_end_ = 0.0;
  bool window_armed_ = false;
  struct Streaks {
    uint32_t hot = 0;
    uint32_t cool = 0;
  };
  std::map<std::string, Streaks> streaks_;
  /// pattern key -> windows left before it may be promoted again.
  std::map<std::string, uint32_t> cooldown_;
  size_t auto_views_ = 0;
  MaterializeFn materialize_fn_;
  DropViewFn drop_view_fn_;
};

}  // namespace kadop::query

#endif  // KADOP_QUERY_VIEW_MANAGER_H_
