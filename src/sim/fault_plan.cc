#include "sim/fault_plan.h"

#include <algorithm>
#include <utility>

namespace kadop::sim {

FaultPlan::FaultPlan(FaultOptions options)
    : options_(std::move(options)), rng_(options_.seed) {}

bool FaultPlan::IsSlow(NodeIndex node) const {
  return std::find(options_.slow_peers.begin(), options_.slow_peers.end(),
                   node) != options_.slow_peers.end();
}

FaultDecision FaultPlan::OnSend(const Message& msg) {
  FaultDecision d;
  if (options_.drop_p > 0 && rng_.Bernoulli(options_.drop_p)) {
    d.drop = true;
    // A dropped message cannot also be duplicated or delayed; later fault
    // classes draw nothing so the RNG stream stays aligned with the
    // decision sequence, not with the knob set.
    return d;
  }
  if (options_.dup_p > 0 && rng_.Bernoulli(options_.dup_p)) {
    d.duplicate = true;
  }
  if (options_.jitter_mean_s > 0) {
    d.extra_delay_s += rng_.Exponential(options_.jitter_mean_s);
  }
  if (options_.slow_extra_s > 0 && IsSlow(msg.from)) {
    d.extra_delay_s += options_.slow_extra_s;
  }
  return d;
}

}  // namespace kadop::sim
