#include "sim/network.h"

#include <string>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "obs/metrics.h"
#include "sim/fault_plan.h"

namespace kadop::sim {

namespace {

// Registry handles resolved once; increments on the send path are plain adds.
struct NetCounters {
  obs::Counter* messages;
  obs::Counter* bytes;
  obs::Counter* dropped;

  NetCounters() {
    auto& r = obs::MetricRegistry::Default();
    messages = r.GetCounter("net.messages");
    bytes = r.GetCounter("net.bytes");
    dropped = r.GetCounter("net.dropped");
  }
};

NetCounters& Counters() {
  static NetCounters counters;
  return counters;
}

// Fault-injection counters; touched only when a FaultPlan is installed.
struct FaultInjectCounters {
  obs::Counter* injected;
  obs::Counter* drops;
  obs::Counter* dups;
  obs::Counter* delayed;

  FaultInjectCounters() {
    auto& r = obs::MetricRegistry::Default();
    injected = r.GetCounter("fault.injected");
    drops = r.GetCounter("fault.drops");
    dups = r.GetCounter("fault.dups");
    delayed = r.GetCounter("fault.delayed");
  }
};

FaultInjectCounters& FaultCounters() {
  static FaultInjectCounters counters;
  return counters;
}

struct TypeCounters {
  obs::Counter* messages;
  obs::Counter* bytes;
};

// Per-payload-type counters, keyed by the payload's TypeName(). TypeName()
// returns a stable static literal, so the string_view key never dangles.
TypeCounters& CountersForType(std::string_view type) {
  static std::unordered_map<std::string_view, TypeCounters>* cache =
      new std::unordered_map<std::string_view, TypeCounters>();
  auto it = cache->find(type);
  if (it == cache->end()) {
    auto& r = obs::MetricRegistry::Default();
    const std::string base = "net.msg." + std::string(type);
    it = cache
             ->emplace(type, TypeCounters{r.GetCounter(base + ".messages"),
                                          r.GetCounter(base + ".bytes")})
             .first;
  }
  return it->second;
}

}  // namespace

std::string_view TrafficCategoryName(TrafficCategory c) {
  switch (c) {
    case TrafficCategory::kControl:
      return "control";
    case TrafficCategory::kPublish:
      return "publish";
    case TrafficCategory::kPosting:
      return "posting";
    case TrafficCategory::kBloomFilter:
      return "bloom";
    case TrafficCategory::kQuery:
      return "query";
    case TrafficCategory::kResult:
      return "result";
    case TrafficCategory::kCategoryCount:
      break;
  }
  return "unknown";
}

Network::Network(Scheduler* scheduler, NetworkParams params)
    : scheduler_(scheduler), params_(params) {
  KADOP_CHECK(scheduler_ != nullptr, "Network requires a scheduler");
  KADOP_CHECK(params_.uplink_bytes_per_s > 0, "uplink bandwidth must be > 0");
  KADOP_CHECK(params_.downlink_bytes_per_s > 0,
              "downlink bandwidth must be > 0");
}

NodeIndex Network::AddNode(Actor* actor) {
  KADOP_CHECK(actor != nullptr, "null actor");
  nodes_.push_back(actor);
  up_.push_back(true);
  uplink_free_.push_back(0.0);
  downlink_free_.push_back(0.0);
  return static_cast<NodeIndex>(nodes_.size() - 1);
}

void Network::SetNodeUp(NodeIndex node, bool up) {
  KADOP_CHECK(node < up_.size(), "bad node index");
  up_[node] = up;
}

bool Network::IsNodeUp(NodeIndex node) const {
  KADOP_CHECK(node < up_.size(), "bad node index");
  return up_[node];
}

void Network::Send(Message msg) {
  KADOP_CHECK(msg.from < nodes_.size() && msg.to < nodes_.size(),
              "bad endpoint");
  const size_t payload_bytes = msg.payload ? msg.payload->SizeBytes() : 0;
  const size_t bytes = payload_bytes + params_.header_bytes;
  const SimTime now = scheduler_->Now();

  // Wire-propagated trace context: unless the sender stamped one
  // explicitly, the message carries the sender's current context so spans
  // opened while handling it on the remote peer parent to the span that
  // caused the send.
  if (!msg.trace.active()) msg.trace = obs::CurrentTraceContext();

  // Local delivery: free (no network traffic, no link occupancy); the
  // handler still runs strictly after the send returns, preserving
  // causality.
  if (msg.from == msg.to) {
    scheduler_->At(now, [this, msg = std::move(msg)]() {
      if (up_[msg.to]) {
        obs::TraceContext ctx = msg.trace;
        ctx.node = msg.to;
        obs::ScopedTraceContext scope(ctx);
        nodes_[msg.to]->HandleMessage(msg);
      } else {
        Counters().dropped->Increment();
      }
    });
    return;
  }

  traffic_.messages++;
  traffic_.bytes += bytes;
  traffic_.bytes_by_category[static_cast<size_t>(msg.category)] += bytes;
  traffic_.messages_by_category[static_cast<size_t>(msg.category)]++;
  Counters().messages->Increment();
  Counters().bytes->Increment(bytes);
  if (msg.payload) {
    TypeCounters& tc = CountersForType(msg.payload->TypeName());
    tc.messages->Increment();
    tc.bytes->Increment(bytes);
  }

  const double b = static_cast<double>(bytes);

  // One fault verdict per non-local send, drawn in send order so the same
  // seed replays the identical drop/dup/delay sequence.
  FaultDecision fd;
  if (fault_plan_ != nullptr) fd = fault_plan_->OnSend(msg);

  SimTime departure = (uplink_free_[msg.from] > now ? uplink_free_[msg.from]
                                                    : now) +
                      b / params_.uplink_bytes_per_s;
  uplink_free_[msg.from] = departure;

  // A dropped message still occupied the sender's uplink and the traffic
  // meter (the bytes were transmitted); it just never reaches a downlink.
  if (fd.drop) {
    Counters().dropped->Increment();
    FaultCounters().injected->Increment();
    FaultCounters().drops->Increment();
    return;
  }
  if (fd.extra_delay_s > 0) {
    FaultCounters().injected->Increment();
    FaultCounters().delayed->Increment();
  }

  SimTime ready = departure + params_.hop_latency_s + fd.extra_delay_s;
  SimTime delivery =
      (downlink_free_[msg.to] > ready ? downlink_free_[msg.to] : ready) +
      b / params_.downlink_bytes_per_s;
  downlink_free_[msg.to] = delivery;

  // Delivery requires both endpoints alive: a crashed sender's queued
  // transfers die with it, a crashed receiver drops arrivals.
  auto deliver = [this, msg](SimTime at) {
    scheduler_->At(at, [this, msg]() {
      if (up_[msg.to] && up_[msg.from]) {
        obs::TraceContext ctx = msg.trace;
        ctx.node = msg.to;
        obs::ScopedTraceContext scope(ctx);
        nodes_[msg.to]->HandleMessage(msg);
      } else {
        Counters().dropped->Increment();
      }
    });
  };
  deliver(delivery);

  // A duplicate is a second arrival of the same bytes: it queues behind the
  // first copy on the receiver's downlink and is metered like any delivery.
  if (fd.duplicate) {
    FaultCounters().injected->Increment();
    FaultCounters().dups->Increment();
    traffic_.messages++;
    traffic_.bytes += bytes;
    traffic_.bytes_by_category[static_cast<size_t>(msg.category)] += bytes;
    traffic_.messages_by_category[static_cast<size_t>(msg.category)]++;
    Counters().messages->Increment();
    Counters().bytes->Increment(bytes);
    SimTime dup_delivery =
        downlink_free_[msg.to] + b / params_.downlink_bytes_per_s;
    downlink_free_[msg.to] = dup_delivery;
    deliver(dup_delivery);
  }
}

}  // namespace kadop::sim
