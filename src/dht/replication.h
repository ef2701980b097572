#ifndef KADOP_DHT_REPLICATION_H_
#define KADOP_DHT_REPLICATION_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "sim/network.h"

namespace kadop::obs {
class Counter;
class Gauge;
}  // namespace kadop::obs

namespace kadop::dht {

class Dht;

/// Knobs of the hot-data replication layer (ROADMAP item "Hot terms:
/// capacity that grows with peers"). Off by default: with
/// `enabled == false` the manager records bounded key-load statistics but
/// never promotes, never routes, and never ticks, so every seeded
/// baseline is byte-identical to the pre-replication build.
struct ReplicationOptions {
  bool enabled = false;
  /// Copies per hot key beyond the owner (placed on the owner's successors).
  uint32_t replicas = 2;
  /// Load-window length (virtual seconds). Windows are activity-driven:
  /// they close lazily when the next Get/Append arrives past the boundary,
  /// so an idle network schedules nothing and RunUntilIdle terminates.
  double window_s = 1.0;
  /// A key is hot when it serves at least this many gets per window...
  uint64_t hot_gets_per_window = 24;
  /// ...for this many consecutive windows (promotion hysteresis).
  uint32_t hot_windows = 2;
  /// A replicated key cools when it drops below this many gets per window...
  uint64_t cool_gets_per_window = 4;
  /// ...for this many consecutive windows (demotion hysteresis).
  uint32_t cool_windows = 3;
  /// Bound on distinct keys the load tracker follows (satellite fix for the
  /// previously unbounded per-key registry counters).
  size_t max_tracked_keys = 128;
  /// Seed of the power-of-two-choices routing draw.
  uint64_t seed = 31;
};

/// Bounded per-key get-load tracker (space-saving top-K). Replaces the old
/// `load.key.<key>` registry counters, whose cardinality grew with every
/// distinct key ever served. The tracker holds at most `capacity` keys; a
/// new key evicts the coldest tracked one (deterministic tie-break: lexically
/// smallest key) and inherits its count, the classic space-saving guarantee
/// that a truly hot key cannot be hidden by churn. Counts decay by half per
/// drained window so stale heat fades.
class KeyLoadTracker {
 public:
  explicit KeyLoadTracker(size_t capacity);

  /// Records one get served for `key`.
  void RecordGet(const std::string& key);

  /// Closes the current window: returns per-key gets observed since the
  /// last drain, halves the long-run counts, and forgets keys that decayed
  /// to zero. Iteration order is the keys' lexicographic order.
  std::map<std::string, uint64_t> DrainWindow();

  [[nodiscard]] size_t tracked() const { return entries_.size(); }
  [[nodiscard]] uint64_t evictions() const { return evictions_; }

 private:
  struct Entry {
    uint64_t count = 0;         // decayed long-run estimate
    uint64_t window_gets = 0;  // gets since the last drain
  };

  size_t capacity_;
  uint64_t evictions_ = 0;
  std::map<std::string, Entry> entries_;
  obs::Counter* eviction_counter_;
  obs::Gauge* tracked_gauge_;
};

/// Deterministic power-of-two-choices: draw two candidates with `rng`, keep
/// the one with the smaller load (ties: the smaller node index, so the
/// outcome never depends on draw order). `candidates` must be non-empty.
[[nodiscard]] sim::NodeIndex PowerOfTwoChoice(
    const std::vector<sim::NodeIndex>& candidates,
    const std::function<uint64_t(sim::NodeIndex)>& load, Rng& rng);

/// Hot-data replication control plane of one DHT instance.
///
/// Tracks per-key get load in lazy windows, promotes keys that stay hot to
/// replicas on the owner's first `replicas` successors (a replica is a
/// planned handoff with a version stamp, shipped by the core layer through
/// the `CopyFn` hook), routes gets to the least-loaded live copy
/// (power-of-two-choices over the `load.holder.*` counters), and demotes
/// when the load subsides.
///
/// Consistency: a replica serves a get only while its stamped version
/// matches the owner store's current posting version for the key (a
/// god's-eye read, see OwnerVersion); otherwise the
/// request is forwarded to the owner, and the next window re-copies the key.
/// Only "flat" keys — plain store reads at the owner (overflow blocks,
/// unpartitioned terms) — are served by replicas directly; partitioned term
/// roots are replicated as staged directory state for crash takeover only.
class ReplicationManager {
 public:
  /// Ships a versioned copy of `key` from `owner` to `target` (installed by
  /// the core layer as a ReplicaInstall application message).
  using CopyFn = std::function<void(const std::string& key,
                                    sim::NodeIndex owner,
                                    sim::NodeIndex target, uint64_t version)>;
  /// Tells `target` to discard its copy of `key`.
  using DropFn =
      std::function<void(const std::string& key, sim::NodeIndex target)>;

  ReplicationManager(Dht* dht, ReplicationOptions options);

  ReplicationManager(const ReplicationManager&) = delete;
  ReplicationManager& operator=(const ReplicationManager&) = delete;

  void SetCopyFn(CopyFn fn) { copy_fn_ = std::move(fn); }
  void SetDropFn(DropFn fn) { drop_fn_ = std::move(fn); }

  [[nodiscard]] bool enabled() const { return options_.enabled; }
  /// Runtime toggle (shell `repl on|off`). Turning off demotes everything.
  void SetEnabled(bool on);
  [[nodiscard]] const ReplicationOptions& options() const { return options_; }

  /// Records one get served for `key` (always on, bounded — see
  /// KeyLoadTracker).
  void RecordKeyGet(const std::string& key) { tracker_.RecordGet(key); }

  /// Lazy window tick, called from the Get/Append serve paths. No-op until
  /// the virtual clock passes the current window boundary; never schedules
  /// its own events.
  void MaybeTick(double now);

  /// Routing decision for a client get of `key`: the node to send the
  /// request to directly, or `kNoReplica` to use the normal routed path to
  /// the owner. Only ready, live, version-fresh flat replicas compete with
  /// the owner; the draw is power-of-two-choices over the holder load
  /// counters with this manager's seeded rng.
  static constexpr sim::NodeIndex kNoReplica =
      static_cast<sim::NodeIndex>(~0U);
  [[nodiscard]] sim::NodeIndex RouteGet(const std::string& key);

  /// Replica-side serve guard: true when `node` holds a ready flat replica
  /// of `key` whose stamped version equals `authoritative_version`.
  [[nodiscard]] bool CanServeReplica(const std::string& key,
                                     sim::NodeIndex node,
                                     uint64_t authoritative_version) const;

  /// Control-plane acknowledgement that `target` durably installed the
  /// copy of `key` stamped `version` (zero-cost introspection standing in
  /// for an install ack message; see docs/replication.md).
  void OnReplicaInstalled(const std::string& key, sim::NodeIndex target,
                          uint64_t version, bool flat);

  // -- Counters shared with the serve path ----------------------------------
  void CountReplicaGet();
  void CountStaleReject();

  // -- Introspection (tests, shell `repl stats`) ----------------------------
  [[nodiscard]] size_t ReplicatedKeyCount() const { return keys_.size(); }
  [[nodiscard]] bool IsReplicated(const std::string& key) const;
  [[nodiscard]] std::vector<sim::NodeIndex> ReplicaNodes(
      const std::string& key) const;
  [[nodiscard]] const KeyLoadTracker& tracker() const { return tracker_; }

 private:
  struct Replica {
    sim::NodeIndex node = 0;
    uint64_t version = 0;
    bool ready = false;
    bool flat = true;
  };
  struct KeyState {
    uint32_t hot_streak = 0;
    uint32_t cool_streak = 0;
    std::vector<Replica> replicas;
  };

  void ProcessWindow();
  void Promote(const std::string& key, KeyState& state);
  void Demote(const std::string& key, KeyState& state);
  /// Current posting version at the owner's store (the staleness oracle).
  [[nodiscard]] uint64_t OwnerVersion(const std::string& key) const;

  Dht* dht_;
  ReplicationOptions options_;
  KeyLoadTracker tracker_;
  Rng rng_;
  double window_end_ = -1.0;  // <0: no window open yet
  /// Keys with a hot streak or live replicas. std::map: promotion /
  /// copy / demotion order is the keys' lexicographic order (KDP012).
  std::map<std::string, KeyState> keys_;
  /// Last seen per-holder gets totals, for the max_ingress gauges.
  std::map<sim::NodeIndex, uint64_t> holder_gets_seen_;
  CopyFn copy_fn_;
  DropFn drop_fn_;

  obs::Counter* promotions_;
  obs::Counter* demotions_;
  obs::Counter* replica_gets_;
  obs::Counter* stale_rejects_;
  obs::Counter* windows_;
};

}  // namespace kadop::dht

#endif  // KADOP_DHT_REPLICATION_H_
