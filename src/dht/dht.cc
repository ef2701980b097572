#include "dht/dht.h"

#include <utility>

#include "common/hash.h"
#include "common/logging.h"
#include "dht/ring.h"

namespace kadop::dht {

namespace {

/// Bits per routing digit: Pastry's b = 4, so routes resolve one base-16
/// digit of the distance per hop.
constexpr int kDigitBits = 4;

}  // namespace

Dht::Dht(sim::Scheduler* scheduler, sim::Network* network, DhtOptions options)
    : scheduler_(scheduler), network_(network), options_(options) {
  KADOP_CHECK(scheduler_ != nullptr && network_ != nullptr,
              "Dht requires scheduler and network");
  KADOP_CHECK(options_.replication >= 1, "replication must be >= 1");
}

std::unique_ptr<store::PeerStore> Dht::MakeStore() const {
  if (options_.store_kind == StoreKind::kBTree) {
    return std::make_unique<store::BTreePeerStore>();
  }
  return std::make_unique<store::NaivePeerStore>();
}

sim::NodeIndex Dht::AddPeer() {
  // Derive a ring id; re-mix on (vanishingly unlikely) collisions.
  KeyId id = Mix64(options_.seed ^ (0x517cc1b727220a95ULL * ++next_peer_seq_));
  while (ring_.count(id) > 0) id = Mix64(id);

  const auto node = static_cast<sim::NodeIndex>(peers_.size());
  auto peer = std::make_unique<DhtPeer>(this, network_, node, id, MakeStore());
  const sim::NodeIndex added = network_->AddNode(peer.get());
  KADOP_CHECK(added == node, "peer/node index mismatch");
  ring_[id] = node;
  peers_.push_back(std::move(peer));
  return node;
}

sim::NodeIndex Dht::AddPeers(size_t count) {
  KADOP_CHECK(count > 0, "AddPeers(0)");
  sim::NodeIndex first = AddPeer();
  for (size_t i = 1; i < count; ++i) AddPeer();
  Stabilize();
  return first;
}

void Dht::FailPeer(sim::NodeIndex node) {
  network_->SetNodeUp(node, false);
  ring_.erase(peers_.at(node)->id());
}

void Dht::RestartPeer(sim::NodeIndex node) {
  DhtPeer* peer = peers_.at(node).get();
  KADOP_CHECK(ring_.count(peer->id()) == 0, "restarting a live peer");
  network_->SetNodeUp(node, true);
  ring_[peer->id()] = node;
}

sim::NodeIndex Dht::OwnerOf(KeyId key) const {
  KADOP_CHECK(!ring_.empty(), "empty ring");
  auto it = ring_.lower_bound(key);
  if (it == ring_.end()) it = ring_.begin();  // wrap
  return it->second;
}

void Dht::BuildRoutingTable(DhtPeer* peer) {
  DhtPeer::RoutingTable table;
  const KeyId id = peer->id();

  // Predecessor: largest ring id strictly before `id`.
  auto it = ring_.find(id);
  KADOP_CHECK(it != ring_.end(), "peer not on ring");
  auto pred = it == ring_.begin() ? std::prev(ring_.end()) : std::prev(it);
  table.predecessor_id = pred->first;

  // Successor: next ring id.
  auto succ = std::next(it);
  if (succ == ring_.end()) succ = ring_.begin();
  table.successor_id = succ->first;
  table.successor_node = succ->second;

  // Digit table: entry (i, j) names the owner of id + j * 16^i. The
  // offsets grow along the ring, so an offset at or before the last entry's
  // id has that entry's owner and needs no lookup.
  for (int shift = 0; shift < 64; shift += kDigitBits) {
    for (KeyId digit = 1; digit < (KeyId{1} << kDigitBits); ++digit) {
      const KeyId offset = digit << shift;
      if (!table.entries.empty() && offset <= table.entries.back().id - id) {
        continue;
      }
      auto owner = ring_.lower_bound(id + offset);
      if (owner == ring_.end()) owner = ring_.begin();
      if (owner->first == id) continue;  // wrapped back to this peer
      auto owner_pred =
          owner == ring_.begin() ? std::prev(ring_.end()) : std::prev(owner);
      table.entries.push_back({owner->first, owner_pred->first, owner->second});
    }
  }
  peer->set_routing(std::move(table));
}

void Dht::Stabilize() {
  for (const auto& [id, node] : ring_) {
    BuildRoutingTable(peers_.at(node).get());
  }
}

store::IoStats Dht::AggregateIo() const {
  store::IoStats total;
  for (const auto& peer : peers_) {
    const store::IoStats& io =
        const_cast<DhtPeer*>(peer.get())->store()->io();
    total.read_bytes += io.read_bytes;
    total.write_bytes += io.write_bytes;
    total.operations += io.operations;
  }
  return total;
}

}  // namespace kadop::dht
