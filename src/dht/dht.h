#ifndef KADOP_DHT_DHT_H_
#define KADOP_DHT_DHT_H_

#include <map>
#include <memory>
#include <vector>

#include "dht/peer.h"
#include "sim/network.h"
#include "sim/scheduler.h"

namespace kadop::dht {

/// The DHT overlay: owns the peers, assigns ring identifiers, and builds
/// each peer's routing state: its successor and a Pastry-style digit table
/// whose entries name the owner of a key range (DhtPeer::RoutingTable).
///
/// Construction and membership changes use global knowledge (`Stabilize()`
/// recomputes routing tables from the current ring), standing in for the
/// background stabilization protocol of a deployed overlay. *Routing* is
/// never global: every lookup traverses real simulated hops, about
/// log16 n of them, so locate() cost grows slowly with network size as in
/// the paper's Figure 2.
class Dht {
 public:
  Dht(sim::Scheduler* scheduler, sim::Network* network, DhtOptions options);

  Dht(const Dht&) = delete;
  Dht& operator=(const Dht&) = delete;

  /// Adds `count` peers and stabilizes. Returns the node index of the
  /// first added peer (indices are contiguous).
  sim::NodeIndex AddPeers(size_t count);

  /// Adds one peer without stabilizing (call Stabilize() after a batch).
  sim::NodeIndex AddPeer();

  /// Marks a peer as failed: its messages are dropped until the next
  /// Stabilize(), which removes it from the ring (its successor, holding
  /// the replicas, takes over its key range).
  void FailPeer(sim::NodeIndex node);

  /// Brings a previously failed peer back: its network endpoint comes up
  /// and its id rejoins the ring under the same identifier, with its local
  /// store intact (crash-stop with durable storage, warm restart). Call
  /// Stabilize() afterwards so routing tables — including the restarted
  /// peer's own, stale from before the crash — are rebuilt.
  void RestartPeer(sim::NodeIndex node);

  /// Recomputes every live peer's routing table from the current ring.
  void Stabilize();

  [[nodiscard]] size_t PeerCount() const { return peers_.size(); }
  [[nodiscard]] size_t LivePeerCount() const { return ring_.size(); }

  DhtPeer* peer(sim::NodeIndex node) { return peers_.at(node).get(); }
  const DhtPeer* peer(sim::NodeIndex node) const {
    return peers_.at(node).get();
  }

  /// Ground-truth owner of a key (successor on the ring). Used for wiring
  /// and assertions; protocol code resolves owners by routing.
  [[nodiscard]] sim::NodeIndex OwnerOf(KeyId key) const;

  /// Sum of I/O counters over all stores.
  [[nodiscard]] store::IoStats AggregateIo() const;

  const DhtOptions& options() const { return options_; }
  sim::Scheduler* scheduler() { return scheduler_; }
  sim::Network* network() { return network_; }

 private:
  std::unique_ptr<store::PeerStore> MakeStore() const;
  void BuildRoutingTable(DhtPeer* peer);

  sim::Scheduler* scheduler_;
  sim::Network* network_;
  DhtOptions options_;
  std::vector<std::unique_ptr<DhtPeer>> peers_;
  /// Live ring: id -> node index, sorted by id.
  std::map<KeyId, sim::NodeIndex> ring_;
  uint64_t next_peer_seq_ = 0;
};

}  // namespace kadop::dht

#endif  // KADOP_DHT_DHT_H_
