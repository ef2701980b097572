#ifndef KADOP_SIM_FAULT_PLAN_H_
#define KADOP_SIM_FAULT_PLAN_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "sim/message.h"
#include "sim/scheduler.h"

namespace kadop::sim {

/// Knobs for seeded link-level fault injection. All probabilities are per
/// non-local message; a zeroed struct injects nothing.
struct FaultOptions {
  /// Seed for the fault RNG. Same seed + same workload -> byte-identical
  /// fault schedule (drops, dups, jitter all replay exactly).
  uint64_t seed = 1;
  /// Probability that a message is dropped in flight (uplink bytes are
  /// still charged: the sender transmitted, the network lost it).
  double drop_p = 0.0;
  /// Probability that a delivered message arrives twice.
  double dup_p = 0.0;
  /// Mean of exponentially distributed extra propagation delay, seconds.
  /// 0 disables jitter (and consumes no RNG draws).
  double jitter_mean_s = 0.0;
  /// Fixed extra delay added to every message *sent by* a slow peer,
  /// modeling inflated service latency. 0 disables.
  double slow_extra_s = 0.0;
  /// Peers subject to `slow_extra_s`.
  std::vector<NodeIndex> slow_peers;

  /// True if any link-level fault can fire.
  bool Any() const {
    return drop_p > 0 || dup_p > 0 || jitter_mean_s > 0 ||
           (slow_extra_s > 0 && !slow_peers.empty());
  }
};

/// A scheduled crash (`up == false`) or restart (`up == true`) of one peer
/// at an absolute virtual time. Executed by the embedding layer (KadopNet),
/// which also owns re-stabilizing the DHT afterwards.
struct CrashEvent {
  SimTime at = 0.0;
  NodeIndex node = 0;
  bool up = false;
};

/// The verdict for a single send.
struct FaultDecision {
  bool drop = false;
  bool duplicate = false;
  double extra_delay_s = 0.0;
};

/// A seeded, deterministic schedule of link faults. The network consults
/// `OnSend` exactly once per non-local message, in send order; because that
/// order is itself deterministic under the virtual clock, every run with the
/// same seed and workload sees the identical fault sequence. The network
/// tallies the verdicts it applies as `fault.{drops,dups,delayed}`.
class FaultPlan {
 public:
  explicit FaultPlan(FaultOptions options);

  FaultPlan(const FaultPlan&) = delete;
  FaultPlan& operator=(const FaultPlan&) = delete;

  /// Decides the fate of one message. Consumes RNG draws only for enabled
  /// fault classes, so e.g. a drop-only plan replays identically whether or
  /// not jitter was ever configured.
  FaultDecision OnSend(const Message& msg);

  const FaultOptions& options() const { return options_; }

 private:
  bool IsSlow(NodeIndex node) const;

  FaultOptions options_;
  Rng rng_;
};

}  // namespace kadop::sim

#endif  // KADOP_SIM_FAULT_PLAN_H_
