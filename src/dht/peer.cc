#include "dht/peer.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/logging.h"
#include "dht/dht.h"
#include "dht/ring.h"
#include "index/codec.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace kadop::dht {

using index::Posting;
using index::PostingList;
using sim::Message;
using sim::NodeIndex;
using sim::TrafficCategory;

namespace {

// Process-wide mirrors of the per-peer DhtStats fields (see
// docs/observability.md for the per-instance vs. registry split).
struct DhtCounters {
  obs::Counter* locates;
  obs::Counter* routed_messages;
  obs::Counter* route_hops;
  obs::Counter* appends_received;
  obs::Counter* postings_stored;
  obs::Counter* gets_served;
  obs::Counter* blocks_sent;
  obs::Counter* app_requests;
  obs::Counter* get_timeouts;
  obs::Counter* retries;
  obs::Counter* timeouts;
  obs::Counter* dedup_hits;
  obs::Counter* hint_sends;
  obs::Counter* hint_forwards;
  obs::Counter* hint_cached;
  obs::Histogram* hops_per_delivery;

  DhtCounters() {
    auto& r = obs::MetricRegistry::Default();
    locates = r.GetCounter("dht.locates");
    routed_messages = r.GetCounter("dht.routed_messages");
    route_hops = r.GetCounter("dht.route_hops");
    appends_received = r.GetCounter("dht.appends_received");
    postings_stored = r.GetCounter("dht.postings_stored");
    gets_served = r.GetCounter("dht.gets_served");
    blocks_sent = r.GetCounter("dht.blocks_sent");
    app_requests = r.GetCounter("dht.app_requests");
    get_timeouts = r.GetCounter("dht.get_timeouts");
    retries = r.GetCounter("dht.retries");
    timeouts = r.GetCounter("dht.timeouts");
    dedup_hits = r.GetCounter("dht.append_dedup_hits");
    hint_sends = r.GetCounter("dht.hint.sends");
    hint_forwards = r.GetCounter("dht.hint.forwards");
    hint_cached = r.GetCounter("dht.hint.cached");
    hops_per_delivery =
        r.GetHistogram("dht.hops_per_delivery", obs::CountBuckets());
  }
};

DhtCounters& C() {
  static DhtCounters counters;
  return counters;
}

}  // namespace

DhtPeer::DhtPeer(Dht* dht, sim::Network* network, NodeIndex node, KeyId id,
                 std::unique_ptr<store::PeerStore> store)
    : dht_(dht),
      network_(network),
      node_(node),
      id_(id),
      store_(std::move(store)) {
  KADOP_CHECK(store_ != nullptr, "peer requires a store");
  // Per-holder ingress load, read by `stats peer <N>`, the serving bench's
  // windows and kbench's `load.holder.max_get_share`.
  auto& r = obs::MetricRegistry::Default();
  const std::string base = "load.holder." + std::to_string(node_);
  load_gets_ = r.GetCounter(base + ".gets");
  load_appends_ = r.GetCounter(base + ".appends");
}

// ---------------------------------------------------------------------------
// Ring geometry

bool DhtPeer::IsResponsible(KeyId key) const {
  return InHalfOpen(key, routing_.predecessor_id, id_);
}

NodeIndex DhtPeer::NextHop(KeyId key) const {
  if (InHalfOpen(key, id_, routing_.successor_id)) {
    return routing_.successor_node;
  }
  // Closest preceding finger: scan from the largest span downwards.
  for (auto it = routing_.fingers.rbegin(); it != routing_.fingers.rend();
       ++it) {
    if (it->second != node_ && InOpen(it->first, id_, key)) {
      return it->second;
    }
  }
  return routing_.successor_node;
}

// ---------------------------------------------------------------------------
// Disk model

void DhtPeer::ScheduleAfterDisk(double bytes, bool write,
                                std::function<void()> fn) {
  const DhtOptions& opt = dht_->options();
  const double bw =
      write ? opt.disk_write_bytes_per_s : opt.disk_read_bytes_per_s;
  const double now = network_->Now();
  const double start = std::max(now, disk_free_at_);
  const double end = start + opt.disk_seek_s + bytes / bw;
  disk_free_at_ = end;
  network_->scheduler()->At(end, std::move(fn));
}

// ---------------------------------------------------------------------------
// Client-side operations

RequestId DhtPeer::NextRequestId() {
  return (static_cast<uint64_t>(node_) << 32) | next_req_++;
}

void DhtPeer::Locate(const std::string& key, LocateCallback cb) {
  auto req = std::make_shared<LocateRequest>();
  req->req_id = NextRequestId();
  req->origin = node_;
  pending_locate_[req->req_id] = std::move(cb);
  stats_.locates++;
  C().locates->Increment();

  auto env = std::make_shared<RouteEnvelope>();
  env->key = HashKey(key);
  env->inner = req;
  env->category = TrafficCategory::kControl;
  RouteEnvelopeMsg(std::move(env));
}

void DhtPeer::Append(const std::string& key, PostingList postings,
                     AppendCallback on_ack,
                     std::vector<std::string> doc_types,
                     RetryPolicy retry) {
  // Without an ack there is no loss signal to retry on: fire-and-forget.
  if (!on_ack) {
    auto req = std::make_shared<AppendRequest>();
    req->key = key;
    req->postings = std::move(postings);
    req->doc_types = std::move(doc_types);
    req->per_entry = dht_->options().per_entry_reconciliation;
    req->replicate = dht_->options().replication;
    auto env = std::make_shared<RouteEnvelope>();
    env->key = HashKey(key);
    env->inner = std::move(req);
    env->category = TrafficCategory::kPublish;
    RouteEnvelopeMsg(std::move(env));
    return;
  }
  PendingAppend pending;
  pending.cb = std::move(on_ack);
  pending.key = key;
  pending.postings = std::move(postings);
  pending.doc_types = std::move(doc_types);
  pending.retry = retry.enabled() ? retry : dht_->options().retry;
  if (pending.retry.enabled()) pending.dedup_id = NextRequestId();
  IssueAppend(std::move(pending));
}

RequestId DhtPeer::IssueAppend(PendingAppend pending) {
  const RequestId id = NextRequestId();
  auto req = std::make_shared<AppendRequest>();
  req->key = pending.key;
  req->doc_types = pending.doc_types;
  if (pending.retry.enabled()) {
    req->postings = pending.postings;  // keep a copy for resends
  } else {
    req->postings = std::move(pending.postings);
  }
  req->per_entry = dht_->options().per_entry_reconciliation;
  req->replicate = dht_->options().replication;
  req->ack_req_id = id;
  req->ack_origin = node_;
  req->dedup_id = pending.dedup_id;
  const double timeout = pending.retry.timeout_s;
  auto [it, inserted] = pending_ack_.emplace(id, std::move(pending));
  KADOP_CHECK(inserted, "append request id collision");
  if (timeout > 0) {
    it->second.timeout_event = network_->scheduler()->After(
        timeout, [this, id]() { OnAppendTimeout(id); });
  }
  auto env = std::make_shared<RouteEnvelope>();
  env->key = HashKey(req->key);
  env->inner = std::move(req);
  env->category = TrafficCategory::kPublish;
  RouteEnvelopeMsg(std::move(env));
  return id;
}

void DhtPeer::OnAppendTimeout(RequestId req_id) {
  auto it = pending_ack_.find(req_id);
  if (it == pending_ack_.end()) return;  // acked in time
  C().timeouts->Increment();
  PendingAppend pending = std::move(it->second);
  pending_ack_.erase(it);
  pending.timeout_event = sim::kInvalidEventId;
  if (pending.attempt <= pending.retry.max_retries) {
    pending.attempt++;
    C().retries->Increment();
    const double delay = pending.retry.BackoffDelay(pending.attempt - 1);
    auto next = std::make_shared<PendingAppend>(std::move(pending));
    network_->scheduler()->After(delay, [this, next]() {
      IssueAppend(std::move(*next));
    });
    return;
  }
  pending.cb(Status::DeadlineExceeded("append retry budget exhausted for '" +
                                      pending.key + "'"));
}

void DhtPeer::Get(const std::string& key, GetCallback cb) {
  PendingGet pending;
  pending.accumulate = true;
  pending.on_done = std::move(cb);
  pending.spec.key = key;
  pending.spec.pipelined = false;
  pending.retry = dht_->options().retry;
  IssueGet(std::move(pending));
}

void DhtPeer::GetBlocks(const GetSpec& spec, BlockCallback on_block) {
  PendingGet pending;
  pending.on_block = std::move(on_block);
  pending.spec = spec;
  pending.retry = spec.retry.enabled() ? spec.retry : dht_->options().retry;
  IssueGet(std::move(pending));
}

namespace {

std::shared_ptr<GetRequest> NewGetRequest(const GetSpec& spec,
                                          uint32_t default_block_postings) {
  auto req = std::make_shared<GetRequest>();
  req->key = spec.key;
  req->pipelined = spec.pipelined;
  req->block_postings =
      spec.block_postings != 0 ? spec.block_postings : default_block_postings;
  req->lo = spec.lo;
  req->hi = spec.hi;
  return req;
}

/// How long a pushed block that arrived before the get awaiting it is
/// kept. Only reordering (jitter) or a resent request makes a push
/// overtake its awaiting request, by far less than this; a dropped hold
/// costs the awaiting get one timeout and a routed ask.
constexpr double kHoldDeliveryS = 1.0;

}  // namespace

RequestId DhtPeer::ReserveRequestIds(uint32_t n) {
  KADOP_CHECK(n > 0, "reserve at least one request id");
  const RequestId first = NextRequestId();
  next_req_ += n - 1;
  return first;
}

void DhtPeer::SendGet(std::shared_ptr<GetRequest> req, const GetSpec& spec) {
  auto env = std::make_shared<RouteEnvelope>();
  env->key = HashKey(spec.key);
  env->inner = std::move(req);
  env->category = TrafficCategory::kControl;
  SendEnvelope(std::move(env), spec.owner_hint);
}

void DhtPeer::PushGet(const GetSpec& spec, NodeIndex target,
                      RequestId req_id) {
  KADOP_CHECK(target != node_, "a peer asks for its own gets");
  auto req = NewGetRequest(spec, dht_->options().pipeline_block_postings);
  req->req_id = req_id;
  req->origin = target;
  SendGet(std::move(req), spec);
}

RequestId DhtPeer::IssueGet(PendingGet pending) {
  // An id is awaited once. A get naming an id awaited here before (a
  // resent task whose pushed blocks were taken, or timed out) asks itself.
  if (pending.spec.awaited.has_value()) {
    auto seen = deliveries_.find(*pending.spec.awaited);
    if (seen != deliveries_.end() && seen->second.awaited) {
      pending.spec.awaited.reset();
    }
  }
  const std::optional<RequestId> awaited = pending.spec.awaited;
  const RequestId id = awaited.value_or(NextRequestId());
  auto req = NewGetRequest(pending.spec,
                           dht_->options().pipeline_block_postings);
  req->req_id = id;
  req->origin = node_;

  const GetSpec spec = pending.spec;
  // A resend of the task that named the id comes within the task's retry
  // budget, which is this get's.
  const double remember_s = kHoldDeliveryS + pending.retry.SpanS();
  pending.next_block = 0;
  auto [it, inserted] = pending_get_.emplace(id, std::move(pending));
  KADOP_CHECK(inserted, "get request id collision");
  // Only a retry policy times a get out, once per attempt.
  if (it->second.retry.enabled()) {
    it->second.timeout_event = ArmTimeout(id, it->second.retry.timeout_s);
  }
  if (!awaited.has_value()) {
    SendGet(std::move(req), spec);
    return id;
  }
  Delivery& delivery = deliveries_[id];
  delivery.awaited = true;
  network_->scheduler()->Cancel(delivery.forget_event);
  delivery.forget_event = network_->scheduler()->After(
      remember_s, [this, id]() { deliveries_.erase(id); });
  // Blocks pushed before this get awaited them are handled now, in their
  // arrival order.
  if (!delivery.held.empty()) {
    network_->scheduler()->At(
        network_->Now(), [this, blocks = std::move(delivery.held)]() {
          for (const Message& msg : blocks) {
            HandleGetBlock(msg, static_cast<GetBlock&>(*msg.payload));
          }
        });
    delivery.held.clear();
  }
  return id;
}

void DhtPeer::HoldDelivery(const Message& msg, RequestId req_id) {
  Delivery& delivery = deliveries_[req_id];
  // Its get already took the blocks it awaited, or gave up on them.
  if (delivery.awaited) return;
  delivery.held.push_back(msg);
  if (delivery.forget_event == sim::kInvalidEventId) {
    delivery.forget_event = network_->scheduler()->After(
        kHoldDeliveryS, [this, req_id]() { deliveries_.erase(req_id); });
  }
}

void DhtPeer::Delete(const std::string& key, const Posting& posting) {
  auto req = std::make_shared<DeleteRequest>();
  req->key = key;
  req->posting = posting;
  auto env = std::make_shared<RouteEnvelope>();
  env->key = HashKey(key);
  env->inner = std::move(req);
  env->category = TrafficCategory::kControl;
  RouteEnvelopeMsg(std::move(env));
}

void DhtPeer::DeleteDoc(const std::string& key, const index::DocId& doc) {
  auto req = std::make_shared<DeleteRequest>();
  req->key = key;
  req->whole_doc = true;
  req->doc = doc;
  auto env = std::make_shared<RouteEnvelope>();
  env->key = HashKey(key);
  env->inner = std::move(req);
  env->category = TrafficCategory::kControl;
  RouteEnvelopeMsg(std::move(env));
}

void DhtPeer::PutBlob(const std::string& key, std::string blob) {
  auto req = std::make_shared<BlobPutRequest>();
  req->key = key;
  req->blob = std::move(blob);
  auto env = std::make_shared<RouteEnvelope>();
  env->key = HashKey(key);
  env->inner = std::move(req);
  env->category = TrafficCategory::kPublish;
  RouteEnvelopeMsg(std::move(env));
}

void DhtPeer::DeleteBlobKey(const std::string& key) {
  auto req = std::make_shared<BlobDeleteRequest>();
  req->key = key;
  auto env = std::make_shared<RouteEnvelope>();
  env->key = HashKey(key);
  env->inner = std::move(req);
  env->category = TrafficCategory::kControl;
  RouteEnvelopeMsg(std::move(env));
}

void DhtPeer::GetBlob(const std::string& key, BlobCallback cb) {
  auto req = std::make_shared<BlobGetRequest>();
  req->key = key;
  req->req_id = NextRequestId();
  req->origin = node_;
  pending_blob_[req->req_id] = std::move(cb);
  auto env = std::make_shared<RouteEnvelope>();
  env->key = HashKey(key);
  env->inner = std::move(req);
  env->category = TrafficCategory::kControl;
  RouteEnvelopeMsg(std::move(env));
}

void DhtPeer::RouteApp(const std::string& key, sim::PayloadPtr inner,
                       TrafficCategory category, AppResponseCallback cb,
                       RetryPolicy retry,
                       std::optional<OwnerHint> owner_hint) {
  if (!cb) {
    auto req = std::make_shared<AppRequest>();
    req->key = key;
    req->origin = node_;
    req->inner = std::move(inner);
    auto env = std::make_shared<RouteEnvelope>();
    env->key = HashKey(key);
    env->inner = std::move(req);
    env->category = category;
    SendEnvelope(std::move(env), owner_hint);
    return;
  }
  PendingApp pending;
  pending.cb = std::move(cb);
  pending.routed = true;
  pending.key = key;
  pending.inner = std::move(inner);
  pending.category = category;
  pending.retry = retry;
  pending.owner_hint = owner_hint;
  IssueApp(std::move(pending));
}

void DhtPeer::Reply(NodeIndex origin, RequestId req_id, sim::PayloadPtr inner,
                    TrafficCategory category) {
  auto resp = std::make_shared<AppResponse>();
  resp->req_id = req_id;
  resp->inner = std::move(inner);
  network_->Send(Message{node_, origin, category, std::move(resp)});
}

void DhtPeer::SendApp(NodeIndex target, sim::PayloadPtr inner,
                      TrafficCategory category) {
  auto req = std::make_shared<AppRequest>();
  req->origin = node_;
  req->inner = std::move(inner);
  network_->Send(Message{node_, target, category, std::move(req)});
}

void DhtPeer::CallApp(NodeIndex target, sim::PayloadPtr inner,
                      TrafficCategory category, AppResponseCallback cb,
                      RetryPolicy retry) {
  if (!cb) {
    auto req = std::make_shared<AppRequest>();
    req->origin = node_;
    req->inner = std::move(inner);
    network_->Send(Message{node_, target, category, std::move(req)});
    return;
  }
  PendingApp pending;
  pending.cb = std::move(cb);
  pending.routed = false;
  pending.target = target;
  pending.inner = std::move(inner);
  pending.category = category;
  pending.retry = retry;
  IssueApp(std::move(pending));
}

RequestId DhtPeer::IssueApp(PendingApp pending) {
  const RequestId id = NextRequestId();
  auto req = std::make_shared<AppRequest>();
  req->origin = node_;
  req->req_id = id;
  req->inner = pending.inner;
  const double timeout = pending.retry.timeout_s;
  const bool routed = pending.routed;
  const std::string key = pending.key;
  const NodeIndex target = pending.target;
  const TrafficCategory category = pending.category;
  const std::optional<OwnerHint> owner_hint = pending.owner_hint;
  auto [it, inserted] = pending_app_.emplace(id, std::move(pending));
  KADOP_CHECK(inserted, "app request id collision");
  if (timeout > 0) {
    it->second.timeout_event = network_->scheduler()->After(
        timeout, [this, id]() { OnAppTimeout(id); });
  }
  if (routed) {
    req->key = key;
    auto env = std::make_shared<RouteEnvelope>();
    env->key = HashKey(key);
    env->inner = std::move(req);
    env->category = category;
    SendEnvelope(std::move(env), owner_hint);
  } else {
    network_->Send(Message{node_, target, category, std::move(req)});
  }
  return id;
}

void DhtPeer::OnAppTimeout(RequestId req_id) {
  auto it = pending_app_.find(req_id);
  if (it == pending_app_.end()) return;  // answered in time
  C().timeouts->Increment();
  PendingApp pending = std::move(it->second);
  pending_app_.erase(it);
  pending.timeout_event = sim::kInvalidEventId;
  if (pending.attempt <= pending.retry.max_retries) {
    pending.attempt++;
    pending.owner_hint.reset();
    C().retries->Increment();
    const double delay = pending.retry.BackoffDelay(pending.attempt - 1);
    auto next = std::make_shared<PendingApp>(std::move(pending));
    // Routed resends re-resolve the owner, so a request aimed at a peer
    // that crashed since reaches whoever inherited the key range.
    network_->scheduler()->After(delay, [this, next]() {
      IssueApp(std::move(*next));
    });
    return;
  }
  pending.cb(nullptr);
}

sim::EventId DhtPeer::ArmTimeout(RequestId req_id, double timeout_s) {
  return network_->scheduler()->After(
      timeout_s, [this, req_id]() { OnGetTimeout(req_id); });
}

void DhtPeer::OnGetTimeout(RequestId req_id) {
  auto it = pending_get_.find(req_id);
  if (it == pending_get_.end()) return;  // completed in time
  C().get_timeouts->Increment();
  C().timeouts->Increment();
  PendingGet pending = std::move(it->second);
  pending_get_.erase(it);
  pending.timeout_event = sim::kInvalidEventId;
  // A streaming get that already surfaced blocks to its caller cannot be
  // transparently reissued (the caller would see duplicates); it fails
  // instead. Accumulating gets discard the partial list and start over.
  const bool can_retry = pending.retry.enabled() &&
                         pending.attempt <= pending.retry.max_retries &&
                         (pending.accumulate || !pending.delivered_any);
  if (can_retry) {
    pending.attempt++;
    pending.accumulated.clear();
    // The resend re-resolves the owner by routing: the hinted node may be
    // the one that crashed.
    pending.spec.owner_hint.reset();
    pending.spec.awaited.reset();
    C().retries->Increment();
    const double delay = pending.retry.BackoffDelay(pending.attempt - 1);
    auto next = std::make_shared<PendingGet>(std::move(pending));
    network_->scheduler()->After(delay, [this, next]() {
      IssueGet(std::move(*next));
    });
    return;
  }
  if (pending.accumulate) {
    if (pending.on_done) {
      pending.on_done(GetResult{
          std::move(pending.accumulated), false,
          Status::DeadlineExceeded("get retry budget exhausted for '" +
                                   pending.spec.key + "'")});
    }
  } else if (pending.on_block) {
    pending.on_block({}, /*last=*/true, /*complete=*/false);
  }
}

// ---------------------------------------------------------------------------
// Routing

void DhtPeer::RouteEnvelopeMsg(std::shared_ptr<RouteEnvelope> env) {
  stats_.routed_messages++;
  C().routed_messages->Increment();
  if (IsResponsible(env->key)) {
    // Local delivery (free).
    network_->Send(Message{node_, node_, env->category, std::move(env)});
    return;
  }
  NodeIndex next = NextHop(env->key);
  env->hops++;
  stats_.route_hops++;
  C().route_hops->Increment();
  network_->Send(Message{node_, next, env->category, std::move(env)});
}

void DhtPeer::SendEnvelope(std::shared_ptr<RouteEnvelope> env,
                           std::optional<OwnerHint> owner_hint) {
  // A key this peer owns is delivered here whatever the hint names: after
  // a crash the sender may have inherited the dead node's range, and a
  // send to the dead node would only wait out the timeout.
  if (!owner_hint.has_value() || owner_hint->node == node_ ||
      IsResponsible(env->key)) {
    RouteEnvelopeMsg(std::move(env));
    return;
  }
  // One hop straight to the hinted owner, counted like a routing hop. The
  // receiver re-checks ownership (HandleMessage) and routes on if the hint
  // went stale, so a wrong hint costs hops but never misdelivers.
  stats_.routed_messages++;
  C().routed_messages->Increment();
  env->hops++;
  env->hinted = true;
  stats_.route_hops++;
  C().route_hops->Increment();
  C().hint_sends->Increment();
  if (owner_hint->cached) C().hint_cached->Increment();
  network_->Send(
      Message{node_, owner_hint->node, env->category, std::move(env)});
}

void DhtPeer::DeliverRouted(const RouteEnvelope& env) {
  C().hops_per_delivery->Observe(static_cast<double>(env.hops));
  const sim::Payload* inner = env.inner.get();
  if (const auto* locate = dynamic_cast<const LocateRequest*>(inner)) {
    auto resp = std::make_shared<LocateResponse>();
    resp->req_id = locate->req_id;
    resp->owner = node_;
    network_->Send(Message{node_, locate->origin, TrafficCategory::kControl,
                           std::move(resp)});
    return;
  }
  if (const auto* append = dynamic_cast<const AppendRequest*>(inner)) {
    HandleAppend(*append);
    return;
  }
  if (const auto* get = dynamic_cast<const GetRequest*>(inner)) {
    HandleGet(*get);
    return;
  }
  if (const auto* del = dynamic_cast<const DeleteRequest*>(inner)) {
    HandleDelete(*del);
    return;
  }
  if (const auto* put = dynamic_cast<const BlobPutRequest*>(inner)) {
    store_->PutBlob(put->key, put->blob);
    return;
  }
  if (const auto* del = dynamic_cast<const BlobDeleteRequest*>(inner)) {
    store_->DeleteBlob(del->key);
    return;
  }
  if (const auto* bget = dynamic_cast<const BlobGetRequest*>(inner)) {
    auto resp = std::make_shared<BlobGetResponse>();
    resp->req_id = bget->req_id;
    const std::string* blob = store_->GetBlob(bget->key);
    if (blob) resp->blob = *blob;
    network_->Send(Message{node_, bget->origin, TrafficCategory::kControl,
                           std::move(resp)});
    return;
  }
  if (const auto* app = dynamic_cast<const AppRequest*>(inner)) {
    stats_.app_requests++;
    C().app_requests->Increment();
    if (app_handler_) app_handler_(*app, app->origin);
    return;
  }
  KADOP_LOG_INFO("dropped unknown routed payload '%.*s'",
                 static_cast<int>(inner->TypeName().size()),
                 inner->TypeName().data());
}

// ---------------------------------------------------------------------------
// Server-side handlers

void DhtPeer::SendAppendAck(const AppendRequest& request) {
  if (request.ack_req_id == 0) return;
  auto ack = std::make_shared<AppendAck>();
  ack->req_id = request.ack_req_id;
  network_->Send(Message{node_, request.ack_origin, TrafficCategory::kControl,
                         std::move(ack)});
}

void DhtPeer::HandleAppend(const AppendRequest& req) {
  stats_.appends_received++;
  C().appends_received->Increment();
  load_appends_->Increment();
  // At-most-once application of retry-capable appends: a resend of an
  // already-applied request skips the store (and the DPP interceptor) but
  // still forwards down the replication chain and acks, so the resend both
  // repairs replicas that missed it and unblocks the waiting client.
  if (req.dedup_id != 0 && !applied_appends_.insert(req.dedup_id).second) {
    C().dedup_hits->Increment();
    const bool forward = req.replicate > 1 && routing_.successor_node != node_;
    if (forward) {
      auto copy = std::make_shared<AppendRequest>(req);
      copy->replicate = req.replicate - 1;
      network_->Send(Message{node_, routing_.successor_node,
                             TrafficCategory::kPublish, std::move(copy)});
      return;  // the tail of the chain acks
    }
    SendAppendAck(req);
    return;
  }
  stats_.postings_stored += req.postings.size();
  C().postings_stored->Increment(req.postings.size());
  if (append_interceptor_ && append_interceptor_(req)) return;

  auto& tracer = obs::Tracer::Default();
  const obs::SpanId apply = tracer.Begin("dht.append.apply");
  tracer.Annotate(apply, "key", req.key);

  const uint64_t r0 = store_->io().read_bytes;
  const uint64_t w0 = store_->io().write_bytes;
  if (req.per_entry) {
    for (const Posting& p : req.postings) store_->AppendPosting(req.key, p);
  } else {
    store_->AppendPostings(req.key, req.postings);
  }
  const DhtOptions& opt = dht_->options();
  const double io_bytes_as_read =
      static_cast<double>(store_->io().read_bytes - r0);
  const double io_bytes_as_write =
      static_cast<double>(store_->io().write_bytes - w0);
  const double now = network_->Now();
  const double start = std::max(now, disk_free_at_);
  const double end = start + opt.disk_seek_s +
                     io_bytes_as_read / opt.disk_read_bytes_per_s +
                     io_bytes_as_write / opt.disk_write_bytes_per_s;
  disk_free_at_ = end;

  const bool forward = req.replicate > 1 &&
                       routing_.successor_node != node_;
  // Children of the apply span: the disk-completion event below and any
  // replication forward / ack it sends.
  obs::ScopedTraceContext scope(tracer.ContextFor(apply));
  network_->scheduler()->At(end, [this, req, forward, apply]() {
    obs::Tracer::Default().End(apply);
    if (forward) {
      auto copy = std::make_shared<AppendRequest>(req);
      copy->replicate = req.replicate - 1;
      network_->Send(Message{node_, routing_.successor_node,
                             TrafficCategory::kPublish, std::move(copy)});
      return;  // the tail of the chain acks
    }
    if (req.ack_req_id != 0) {
      auto ack = std::make_shared<AppendAck>();
      ack->req_id = req.ack_req_id;
      network_->Send(Message{node_, req.ack_origin,
                             TrafficCategory::kControl, std::move(ack)});
    }
  });
}

void DhtPeer::SendGetBlock(NodeIndex origin, RequestId req_id,
                           uint32_t block_index, bool last,
                           PostingList postings) {
  auto out = std::make_shared<GetBlock>();
  out->req_id = req_id;
  out->block_index = block_index;
  out->last = last;
  out->postings = std::move(postings);
  stats_.blocks_sent++;
  C().blocks_sent->Increment();
  network_->Send(
      Message{node_, origin, TrafficCategory::kPosting, std::move(out)});
}

void DhtPeer::HandleGet(const GetRequest& req) {
  stats_.gets_served++;
  C().gets_served->Increment();
  load_gets_->Increment();
  if (get_interceptor_ && get_interceptor_(req)) return;
  auto& tracer = obs::Tracer::Default();
  const obs::SpanId serve = tracer.Begin("dht.get.serve");
  tracer.Annotate(serve, "key", req.key);
  // Disk-read completions (and the block sends they trigger) parent to the
  // serve span; the span closes when the final block leaves for the uplink.
  obs::ScopedTraceContext scope(tracer.ContextFor(serve));
  PostingList list = store_->GetPostingRange(req.key, req.lo, req.hi, 0);

  const size_t block_postings =
      req.pipelined ? std::max<uint32_t>(1, req.block_postings) : 0;
  const size_t total = list.size();
  const size_t n_blocks =
      req.pipelined
          ? std::max<size_t>(1, (total + block_postings - 1) /
                                    std::max<size_t>(1, block_postings))
          : 1;

  // Disk read time is spread uniformly over the blocks so that the stream
  // is paced by min(disk, uplink) as in a real producer.
  size_t sent = 0;
  for (size_t b = 0; b < n_blocks; ++b) {
    const size_t begin = req.pipelined ? b * block_postings : 0;
    const size_t end_pos =
        req.pipelined ? std::min(total, begin + block_postings) : total;
    // Blocks are sliced on posting boundaries, so each one is encoded as a
    // standalone stream (codec::BlockEncoder framing) and the disk read is
    // charged at the stored (encoded) size.
    PostingList block(list.begin() + begin, list.begin() + end_pos);
    const double block_bytes =
        static_cast<double>(index::codec::EncodedBytes(block));
    auto out = std::make_shared<GetBlock>();
    out->req_id = req.req_id;
    out->block_index = static_cast<uint32_t>(b);
    out->last = (b + 1 == n_blocks);
    out->postings = std::move(block);
    const NodeIndex origin = req.origin;
    const bool last_block = (b + 1 == n_blocks);
    ScheduleAfterDisk(block_bytes, /*write=*/false,
                      [this, origin, serve, last_block,
                       out = std::move(out)]() mutable {
                        stats_.blocks_sent++;
                        C().blocks_sent->Increment();
                        network_->Send(Message{node_, origin,
                                               TrafficCategory::kPosting,
                                               std::move(out)});
                        if (last_block) obs::Tracer::Default().End(serve);
                      });
    sent += end_pos - begin;
  }
  KADOP_CHECK(sent == total, "block slicing lost postings");
}

void DhtPeer::HandleDelete(const DeleteRequest& req) {
  if (delete_interceptor_ && delete_interceptor_(req)) return;
  if (req.whole_doc) {
    store_->DeleteDocPostings(req.key, req.doc);
  } else {
    store_->DeletePosting(req.key, req.posting);
  }
}

void DhtPeer::HandleGetBlock(const Message& msg, GetBlock& block) {
  auto it = pending_get_.find(block.req_id);
  if (it == pending_get_.end()) {
    // Ids this peer issued carry its node in the high word (NextRequestId):
    // such a block belongs to a get that timed out earlier. Any other was
    // pushed here (PushGet) and may have overtaken the request that makes
    // this peer await it.
    if ((block.req_id >> 32) != node_) HoldDelivery(msg, block.req_id);
    return;
  }
  PendingGet& pending = it->second;
  // Links are FIFO, so blocks of one attempt arrive in index order; an
  // out-of-sequence index is a fault artifact — a duplicated copy (index
  // below expected) or the far side of a dropped block (index above). In
  // both cases ignore it: delivering would duplicate data or silently
  // complete a stream with a hole. The timeout/retry path recovers.
  if (block.block_index != pending.next_block) return;
  pending.next_block++;
  // The first block of a get routed through the ring comes from the key's
  // owner (its DPP get proxy included). A hinted attempt's owner was
  // already named.
  if (block.block_index == 0 && !pending.spec.owner_hint.has_value() &&
      !pending.spec.awaited.has_value()) {
    LearnOwner(pending.spec.key, msg.from);
  }
  if (pending.accumulate) {
    pending.accumulated.insert(pending.accumulated.end(),
                               block.postings.begin(),
                               block.postings.end());
    if (block.last) {
      PendingGet done = std::move(pending);
      pending_get_.erase(it);
      if (done.timeout_event != sim::kInvalidEventId) {
        network_->scheduler()->Cancel(done.timeout_event);
      }
      if (done.on_done) {
        done.on_done(
            GetResult{std::move(done.accumulated), true, Status::OK()});
      }
    } else if (pending.retry.enabled()) {
      // Progress timer: each block pushes the per-attempt deadline out,
      // so a long healthy stream is not killed mid-transfer.
      if (pending.timeout_event != sim::kInvalidEventId) {
        network_->scheduler()->Cancel(pending.timeout_event);
      }
      pending.timeout_event =
          ArmTimeout(block.req_id, pending.retry.timeout_s);
    }
  } else {
    pending.delivered_any = true;
    BlockCallback cb = pending.on_block;
    const bool last = block.last;
    if (last) {
      if (pending.timeout_event != sim::kInvalidEventId) {
        network_->scheduler()->Cancel(pending.timeout_event);
      }
      pending_get_.erase(it);
    } else if (pending.retry.enabled()) {
      if (pending.timeout_event != sim::kInvalidEventId) {
        network_->scheduler()->Cancel(pending.timeout_event);
      }
      pending.timeout_event =
          ArmTimeout(block.req_id, pending.retry.timeout_s);
    }
    if (cb) cb(std::move(block.postings), last, true);
  }
}

// ---------------------------------------------------------------------------
// Message dispatch

void DhtPeer::HandleMessage(const Message& msg) {
  sim::Payload* payload = msg.payload.get();
  if (auto* env = dynamic_cast<RouteEnvelope*>(payload)) {
    if (IsResponsible(env->key)) {
      DeliverRouted(*env);
    } else {
      if (env->hinted) {
        // A stale hint: this peer no longer owns the key. Count it once;
        // from here the envelope is routed like any other.
        C().hint_forwards->Increment();
        env->hinted = false;
      }
      // Re-wrap in a fresh shared_ptr to the same envelope for forwarding.
      RouteEnvelopeMsg(std::static_pointer_cast<RouteEnvelope>(msg.payload));
    }
    return;
  }
  if (auto* resp = dynamic_cast<LocateResponse*>(payload)) {
    auto it = pending_locate_.find(resp->req_id);
    if (it == pending_locate_.end()) return;
    LocateCallback cb = std::move(it->second);
    pending_locate_.erase(it);
    cb(resp->owner);
    return;
  }
  if (auto* block = dynamic_cast<GetBlock*>(payload)) {
    HandleGetBlock(msg, *block);
    return;
  }
  if (auto* resp = dynamic_cast<BlobGetResponse*>(payload)) {
    auto it = pending_blob_.find(resp->req_id);
    if (it == pending_blob_.end()) return;
    BlobCallback cb = std::move(it->second);
    pending_blob_.erase(it);
    cb(std::move(resp->blob));
    return;
  }
  if (auto* resp = dynamic_cast<AppResponse*>(payload)) {
    auto it = pending_app_.find(resp->req_id);
    if (it == pending_app_.end()) return;
    PendingApp done = std::move(it->second);
    pending_app_.erase(it);
    if (done.timeout_event != sim::kInvalidEventId) {
      network_->scheduler()->Cancel(done.timeout_event);
    }
    // Same rule as a get's first block: the reply to a request routed
    // through the ring comes from the key's owner. A hinted attempt's
    // owner was already named, and a direct CallApp names no key.
    if (done.routed && !done.owner_hint.has_value()) {
      LearnOwner(done.key, msg.from);
    }
    done.cb(resp->inner);
    return;
  }
  if (auto* ack = dynamic_cast<AppendAck*>(payload)) {
    auto it = pending_ack_.find(ack->req_id);
    if (it == pending_ack_.end()) return;
    PendingAppend done = std::move(it->second);
    pending_ack_.erase(it);
    if (done.timeout_event != sim::kInvalidEventId) {
      network_->scheduler()->Cancel(done.timeout_event);
    }
    done.cb(Status::OK());
    return;
  }
  if (auto* append = dynamic_cast<AppendRequest*>(payload)) {
    // Replication chain forwarding arrives directly (not routed).
    HandleAppend(*append);
    return;
  }
  if (auto* app = dynamic_cast<AppRequest*>(payload)) {
    stats_.app_requests++;
    C().app_requests->Increment();
    if (app_handler_) app_handler_(*app, msg.from);
    return;
  }
  KADOP_LOG_INFO("peer %u dropped unknown message '%.*s'", node_,
                 static_cast<int>(payload->TypeName().size()),
                 payload->TypeName().data());
}

std::optional<OwnerHint> DhtPeer::KnownOwner(const std::string& key) const {
  auto it = owners_.find(key);
  if (it == owners_.end()) return std::nullopt;
  return OwnerHint(it->second, /*from_cache=*/true);
}

void DhtPeer::LearnOwner(const std::string& key, NodeIndex owner) {
  owners_[key] = owner;
}

uint64_t DhtPeer::AuthoritativeVersion(const std::string& key) const {
  return dht_->peer(dht_->OwnerOf(HashKey(key)))->store()->PostingVersion(key);
}

}  // namespace kadop::dht
