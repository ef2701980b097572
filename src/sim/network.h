#ifndef KADOP_SIM_NETWORK_H_
#define KADOP_SIM_NETWORK_H_

#include <array>
#include <cstdint>
#include <vector>

#include "sim/message.h"
#include "sim/scheduler.h"

namespace kadop::sim {

class FaultPlan;

/// An endpoint attached to the network. Higher layers (DHT peers) implement
/// this to receive messages.
class Actor {
 public:
  virtual ~Actor() = default;

  /// Called by the network when a message addressed to this actor arrives.
  virtual void HandleMessage(const Message& msg) = 0;
};

/// Link and host parameters. Defaults model a wide-area P2P deployment with
/// the usual asymmetry: the per-peer uplink is the scarce resource (this is
/// what makes single-source long-posting-list transfers the bottleneck the
/// paper describes, and what DPP's multi-source parallel fetch relieves).
struct NetworkParams {
  /// One-way propagation delay per overlay hop, seconds.
  double hop_latency_s = 0.002;
  /// Per-peer upload bandwidth, bytes/second.
  double uplink_bytes_per_s = 10.0 * 1024 * 1024;
  /// Per-peer download bandwidth, bytes/second.
  double downlink_bytes_per_s = 40.0 * 1024 * 1024;
  /// Fixed per-message framing overhead, bytes.
  size_t header_bytes = 64;
};

/// Byte/message counters, total and per category.
struct TrafficStats {
  uint64_t messages = 0;
  uint64_t bytes = 0;
  std::array<uint64_t, static_cast<size_t>(TrafficCategory::kCategoryCount)>
      bytes_by_category{};
  std::array<uint64_t, static_cast<size_t>(TrafficCategory::kCategoryCount)>
      messages_by_category{};

  uint64_t CategoryBytes(TrafficCategory c) const {
    return bytes_by_category[static_cast<size_t>(c)];
  }
};

/// A store-and-forward message-passing network over a virtual clock.
///
/// Transfer model for a message of b bytes from s to d:
///   departure = max(now, uplink_free[s]) + b / uplink_bw
///   ready     = departure + hop_latency
///   delivery  = max(ready, downlink_free[d]) + b / downlink_bw
/// Uplink/downlink occupancy is FIFO per peer, so concurrent transfers from
/// one peer serialize while transfers from distinct peers proceed in
/// parallel — the property the DPP experiments depend on.
class Network {
 public:
  explicit Network(Scheduler* scheduler, NetworkParams params = {});

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Registers an actor; returns its index. The actor must outlive the
  /// network. Registration order defines node indices.
  NodeIndex AddNode(Actor* actor);

  /// Number of registered nodes.
  size_t NodeCount() const { return nodes_.size(); }

  /// Marks a node up/down. Messages to a down node are dropped (counted in
  /// the `net.dropped` registry counter); this is how peer failure is
  /// injected in tests.
  void SetNodeUp(NodeIndex node, bool up);
  bool IsNodeUp(NodeIndex node) const;

  /// Sends `msg` (from/to must be valid node indices). Bytes are charged to
  /// the meter immediately; delivery is scheduled per the transfer model.
  void Send(Message msg);

  const TrafficStats& traffic() const { return traffic_; }
  void ResetTraffic() { traffic_ = TrafficStats(); }

  /// Installs a seeded fault plan consulted on every non-local send
  /// (drop / duplicate / extra delay). nullptr disables injection. The plan
  /// is borrowed and must outlive the network or be cleared first.
  void SetFaultPlan(FaultPlan* plan) { fault_plan_ = plan; }
  FaultPlan* fault_plan() const { return fault_plan_; }

  Scheduler* scheduler() { return scheduler_; }
  SimTime Now() const { return scheduler_->Now(); }
  const NetworkParams& params() const { return params_; }

 private:
  Scheduler* scheduler_;
  NetworkParams params_;
  std::vector<Actor*> nodes_;
  std::vector<bool> up_;
  std::vector<SimTime> uplink_free_;
  std::vector<SimTime> downlink_free_;
  TrafficStats traffic_;
  FaultPlan* fault_plan_ = nullptr;
};

}  // namespace kadop::sim

#endif  // KADOP_SIM_NETWORK_H_
