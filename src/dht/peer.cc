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

// The DHT's event tallies, summed over every peer (see
// docs/observability.md); per-peer load lives under `load.holder.<N>`.
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

DhtPeer::Hop DhtPeer::NextHop(KeyId key) const {
  if (InHalfOpen(key, id_, routing_.successor_id)) {
    return {routing_.successor_node, HopRule::kSuccessor};
  }
  // Entries run in order of distance, so a scan from the farthest meets the
  // entry whose range holds the key before any entry that precedes it.
  for (auto it = routing_.entries.rbegin(); it != routing_.entries.rend();
       ++it) {
    if (InHalfOpen(key, it->predecessor_id, it->id)) {
      return {it->node, HopRule::kRange};
    }
    if (InOpen(it->id, id_, key)) return {it->node, HopRule::kPreceding};
  }
  return {routing_.successor_node, HopRule::kSuccessor};
}

void DhtPeer::set_routing(RoutingTable table) {
  routing_ = std::move(table);
  owners_.clear();
  ++routing_changes_;
  // This peer may have inherited the range of a crashed node that was to
  // push blocks here: a get still awaiting such a push, with no block in
  // hand, starts over and reads the key here (see StartAttempt).
  std::vector<RequestId> inherited;
  for (const auto& [id, request] : requests_) {
    const auto* get = std::get_if<GetCall>(&request.call);
    if (request.awaited.has_value() && get != nullptr && get->next_block == 0 &&
        IsResponsible(HashKey(request.key))) {
      inherited.push_back(id);
    }
  }
  std::sort(inherited.begin(), inherited.end());  // a deterministic order
  for (const RequestId id : inherited) {
    StartAttempt(Finish(requests_.find(id)));
  }
}

// ---------------------------------------------------------------------------
// Disk model

void DhtPeer::ScheduleAfterDisk(double read_bytes, double write_bytes,
                                std::function<void()> fn) {
  const DhtOptions& opt = dht_->options();
  const double start = std::max(network_->Now(), disk_free_at_);
  disk_free_at_ = start + opt.disk_seek_s +
                  read_bytes / opt.disk_read_bytes_per_s +
                  write_bytes / opt.disk_write_bytes_per_s;
  network_->scheduler()->At(disk_free_at_, std::move(fn));
}

// ---------------------------------------------------------------------------
// Client-side operations

namespace {

/// How long a pushed block that arrived before the get awaiting it is
/// kept. Only reordering (jitter) or a resent request makes a push
/// overtake its awaiting request, by far less than this; a dropped hold
/// costs the awaiting get one timeout and a routed ask.
constexpr double kHoldDeliveryS = 1.0;

}  // namespace

RequestId DhtPeer::NextRequestId() {
  return (static_cast<uint64_t>(node_) << 32) | next_req_++;
}

RequestId DhtPeer::ReserveRequestIds(uint32_t n) {
  KADOP_CHECK(n > 0, "reserve at least one request id");
  const RequestId first = NextRequestId();
  next_req_ += n - 1;
  return first;
}

void DhtPeer::Locate(const std::string& key, LocateCallback cb) {
  C().locates->Increment();
  Request request;
  request.key = key;
  request.retry = dht_->options().retry;
  request.call = LocateCall{std::move(cb)};
  StartAttempt(std::move(request));
}

void DhtPeer::Append(const std::string& key, PostingList postings,
                     AppendCallback on_ack,
                     std::vector<std::string> doc_types,
                     RetryPolicy retry) {
  // Without an ack there is no loss signal to retry on: fire-and-forget.
  const bool acked = on_ack != nullptr;
  Request request;
  request.key = key;
  request.category = TrafficCategory::kPublish;
  if (acked) request.retry = retry.enabled() ? retry : dht_->options().retry;
  const uint64_t dedup_id = request.retry.enabled() ? NextRequestId() : 0;
  request.call =
      AppendCall{std::move(on_ack), index::codec::EncodePostings(postings),
                 std::move(doc_types), dedup_id};
  if (!acked) {
    SendAttempt(request, /*id=*/0);
    return;
  }
  StartAttempt(std::move(request));
}

GetRequest DhtPeer::AskFor(const GetSpec& spec) const {
  GetRequest ask;
  ask.pipelined = spec.pipelined;
  ask.block_postings = spec.block_postings != 0
                           ? spec.block_postings
                           : dht_->options().pipeline_block_postings;
  ask.lo = spec.lo;
  ask.hi = spec.hi;
  return ask;
}

void DhtPeer::Get(const std::string& key, GetCallback cb) {
  GetSpec spec;
  spec.key = key;
  GetCall call;
  call.accumulate = true;
  call.on_done = std::move(cb);
  StartGet(std::move(spec), std::move(call));
}

void DhtPeer::GetBlocks(const GetSpec& spec, BlockCallback on_block) {
  GetCall call;
  call.on_block = std::move(on_block);
  StartGet(spec, std::move(call));
}

void DhtPeer::StartGet(GetSpec spec, GetCall call) {
  Request request;
  request.key = std::move(spec.key);
  request.owner_hint = spec.owner_hint;
  request.awaited = spec.awaited;
  request.retry = spec.retry.enabled() ? spec.retry : dht_->options().retry;
  call.ask = AskFor(spec);
  request.call = std::move(call);
  StartAttempt(std::move(request));
}

void DhtPeer::PushGet(const GetSpec& spec, NodeIndex target,
                      RequestId req_id) {
  KADOP_CHECK(target != node_, "a peer asks for its own gets");
  auto req = std::make_shared<GetRequest>(AskFor(spec));
  req->key = spec.key;
  req->req_id = req_id;
  req->origin = target;
  Route(spec.key, std::move(req), TrafficCategory::kControl,
        spec.owner_hint);
}

void DhtPeer::Delete(const std::string& key, const Posting& posting) {
  auto req = std::make_shared<DeleteRequest>();
  req->key = key;
  req->posting = posting;
  Route(key, std::move(req), TrafficCategory::kControl);
}

void DhtPeer::DeleteDoc(const std::string& key, const index::DocId& doc) {
  auto req = std::make_shared<DeleteRequest>();
  req->key = key;
  req->whole_doc = true;
  req->doc = doc;
  Route(key, std::move(req), TrafficCategory::kControl);
}

void DhtPeer::PutBlob(const std::string& key, std::string blob) {
  auto req = std::make_shared<BlobPutRequest>();
  req->key = key;
  req->blob = std::move(blob);
  Route(key, std::move(req), TrafficCategory::kPublish);
}

void DhtPeer::DeleteBlobKey(const std::string& key) {
  auto req = std::make_shared<BlobDeleteRequest>();
  req->key = key;
  Route(key, std::move(req), TrafficCategory::kControl);
}

void DhtPeer::GetBlob(const std::string& key, BlobCallback cb) {
  Request request;
  request.key = key;
  request.retry = dht_->options().retry;
  request.call = BlobCall{std::move(cb)};
  StartAttempt(std::move(request));
}

void DhtPeer::RouteApp(const std::string& key, sim::PayloadPtr inner,
                       TrafficCategory category, AppResponseCallback cb,
                       RetryPolicy retry,
                       std::optional<OwnerHint> owner_hint) {
  const bool awaits_reply = cb != nullptr;
  Request request;
  request.key = key;
  request.category = category;
  request.owner_hint = owner_hint;
  request.retry = retry;
  request.call = AppCall{std::move(cb), std::move(inner)};
  if (!awaits_reply) {
    SendAttempt(request, /*id=*/0);
    return;
  }
  StartAttempt(std::move(request));
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
    SendApp(target, std::move(inner), category);
    return;
  }
  Request request;
  request.target = target;
  request.category = category;
  request.retry = retry;
  request.call = AppCall{std::move(cb), std::move(inner)};
  StartAttempt(std::move(request));
}

// ---------------------------------------------------------------------------
// The request table

void DhtPeer::StartAttempt(Request request) {
  // An id is awaited once. A get naming an id awaited here before (a
  // resent task whose pushed blocks were taken, or timed out) asks itself.
  // So does a get of a key this peer owns, as Route delivers such a key
  // here whatever a hint names: it reads its own store now, and late
  // copies of the push are dropped. After a crash this peer may have
  // inherited the range of the dead node that was to push the blocks.
  if (request.awaited.has_value()) {
    auto seen = deliveries_.find(*request.awaited);
    if (seen != deliveries_.end() && seen->second.awaited) {
      request.awaited.reset();
    } else if (IsResponsible(HashKey(request.key))) {
      MarkAwaited(*request.awaited, kHoldDeliveryS + request.retry.SpanS())
          .held.clear();
      request.awaited.reset();
    }
  }
  // An awaited attempt takes a fresh id too, so the sequence never
  // depends on what is awaited.
  const RequestId fresh = NextRequestId();
  const RequestId id = request.awaited.value_or(fresh);
  auto [it, inserted] = requests_.emplace(id, std::move(request));
  KADOP_CHECK(inserted, "request id collision");
  Request& entry = it->second;
  if (entry.retry.enabled()) {
    entry.timeout_event = ArmTimeout(id, entry.retry.timeout_s);
  }
  if (entry.awaited.has_value()) {
    // A resend of the task that named the id comes within the task's
    // retry budget, which is this get's.
    AwaitPushed(id, kHoldDeliveryS + entry.retry.SpanS());
    return;
  }
  SendAttempt(entry, id);
}

void DhtPeer::SendAttempt(Request& request, RequestId id) {
  sim::PayloadPtr ask;
  if (std::holds_alternative<LocateCall>(request.call)) {
    auto req = std::make_shared<LocateRequest>();
    req->req_id = id;
    req->origin = node_;
    ask = std::move(req);
  } else if (std::holds_alternative<BlobCall>(request.call)) {
    auto req = std::make_shared<BlobGetRequest>();
    req->key = request.key;
    req->req_id = id;
    req->origin = node_;
    ask = std::move(req);
  } else if (auto* get = std::get_if<GetCall>(&request.call)) {
    auto req = std::make_shared<GetRequest>(get->ask);
    req->key = request.key;
    req->req_id = id;
    req->origin = node_;
    ask = std::move(req);
  } else if (auto* app = std::get_if<AppCall>(&request.call)) {
    auto req = std::make_shared<AppRequest>();
    req->key = request.key;
    req->req_id = id;
    req->origin = node_;
    req->inner = app->inner;
    ask = std::move(req);
  } else {
    auto& append = std::get<AppendCall>(request.call);
    auto req = std::make_shared<AppendRequest>();
    req->key = request.key;
    // Resends need the payload again; a single attempt hands it over.
    if (request.retry.enabled()) {
      req->postings = append.postings;
      req->doc_types = append.doc_types;
    } else {
      req->postings = std::move(append.postings);
      req->doc_types = std::move(append.doc_types);
    }
    req->per_entry = dht_->options().per_entry_reconciliation;
    req->replicate = dht_->options().replication;
    req->ack_req_id = id;
    req->ack_origin = node_;
    req->dedup_id = append.dedup_id;
    ask = std::move(req);
  }
  if (request.target.has_value()) {
    network_->Send(
        Message{node_, *request.target, request.category, std::move(ask)});
  } else {
    Route(request.key, std::move(ask), request.category, request.owner_hint);
  }
}

sim::EventId DhtPeer::ArmTimeout(RequestId req_id, double timeout_s) {
  return network_->scheduler()->After(
      timeout_s, [this, req_id]() { OnTimeout(req_id); });
}

void DhtPeer::OnTimeout(RequestId req_id) {
  auto it = requests_.find(req_id);
  if (it == requests_.end()) return;  // completed in time
  Request request = std::move(it->second);
  requests_.erase(it);
  request.timeout_event = sim::kInvalidEventId;
  auto* get = std::get_if<GetCall>(&request.call);
  if (get != nullptr) C().get_timeouts->Increment();
  C().timeouts->Increment();
  // A streaming get that already surfaced blocks to its caller cannot be
  // transparently resent (the caller would see duplicates); it fails
  // instead. Accumulating gets discard the partial list and start over.
  const bool can_retry =
      request.attempt <= request.retry.max_retries &&
      (get == nullptr || get->accumulate || !get->delivered_any);
  if (!can_retry) {
    GiveUp(request);
    return;
  }
  request.attempt++;
  // The resend re-resolves the owner by routing: the hinted node may be
  // the one that crashed, and whoever inherited its key range answers.
  request.owner_hint.reset();
  request.awaited.reset();
  if (get != nullptr) {
    get->accumulated.clear();
    get->next_block = 0;
  }
  C().retries->Increment();
  const double delay = request.retry.BackoffDelay(request.attempt - 1);
  auto next = std::make_shared<Request>(std::move(request));
  network_->scheduler()->After(
      delay, [this, next]() { StartAttempt(std::move(*next)); });
}

void DhtPeer::GiveUp(Request& request) {
  const Status budget_spent =
      Status::DeadlineExceeded("retry budget exhausted for '" + request.key +
                               "'");
  if (auto* locate = std::get_if<LocateCall>(&request.call)) {
    locate->cb(budget_spent);
  } else if (auto* blob = std::get_if<BlobCall>(&request.call)) {
    blob->cb(budget_spent);
  } else if (auto* get = std::get_if<GetCall>(&request.call)) {
    if (!get->accumulate) {
      if (get->on_block) get->on_block({}, /*last=*/true, /*complete=*/false);
    } else if (get->on_done) {
      get->on_done(GetResult{std::move(get->accumulated), false, budget_spent});
    }
  } else if (auto* app = std::get_if<AppCall>(&request.call)) {
    app->cb(nullptr);
  } else if (auto* append = std::get_if<AppendCall>(&request.call)) {
    append->cb(budget_spent);
  }
}

DhtPeer::Request DhtPeer::Finish(Requests::iterator it) {
  Request done = std::move(it->second);
  requests_.erase(it);
  network_->scheduler()->Cancel(done.timeout_event);
  return done;
}

template <typename Call>
std::optional<DhtPeer::Request> DhtPeer::Complete(RequestId req_id) {
  auto it = requests_.find(req_id);
  if (it == requests_.end() ||
      !std::holds_alternative<Call>(it->second.call)) {
    return std::nullopt;
  }
  return Finish(it);
}

void DhtPeer::LearnFromReply(const Request& request, NodeIndex from) {
  // Only a ring-routed attempt learns: a hinted attempt's owner was
  // already named, an awaited get's blocks come from whoever pushed them,
  // and a direct CallApp names no key.
  if (request.target.has_value() || request.owner_hint.has_value() ||
      request.awaited.has_value()) {
    return;
  }
  LearnOwner(request.key, from);
}

DhtPeer::Delivery& DhtPeer::MarkAwaited(RequestId req_id, double remember_s) {
  Delivery& delivery = deliveries_[req_id];
  delivery.awaited = true;
  network_->scheduler()->Cancel(delivery.forget_event);
  delivery.forget_event = network_->scheduler()->After(
      remember_s, [this, req_id]() { deliveries_.erase(req_id); });
  return delivery;
}

void DhtPeer::AwaitPushed(RequestId req_id, double remember_s) {
  Delivery& delivery = MarkAwaited(req_id, remember_s);
  // Blocks pushed before this get awaited them are handled now, in their
  // arrival order.
  if (!delivery.held.empty()) {
    network_->scheduler()->At(
        network_->Now(), [this, blocks = std::move(delivery.held)]() {
          for (const Message& msg : blocks) {
            HandleGetBlock(msg, static_cast<const GetBlock&>(*msg.payload));
          }
        });
    delivery.held.clear();
  }
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

// ---------------------------------------------------------------------------
// Routing

void DhtPeer::RouteEnvelopeMsg(std::shared_ptr<RouteEnvelope> env) {
  C().routed_messages->Increment();
  if (IsResponsible(env->key)) {
    // Local delivery (free).
    network_->Send(Message{node_, node_, env->category, std::move(env)});
    return;
  }
  const NodeIndex next = NextHop(env->key).node;
  env->hops++;
  C().route_hops->Increment();
  network_->Send(Message{node_, next, env->category, std::move(env)});
}

void DhtPeer::Route(const std::string& key, sim::PayloadPtr inner,
                    TrafficCategory category,
                    std::optional<OwnerHint> owner_hint) {
  auto env = std::make_shared<RouteEnvelope>();
  env->key = HashKey(key);
  env->inner = std::move(inner);
  env->category = category;
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
  C().routed_messages->Increment();
  env->hops++;
  env->hinted = true;
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

void DhtPeer::ForwardOrAck(const AppendRequest& req) {
  if (req.replicate > 1 && routing_.successor_node != node_) {
    auto copy = std::make_shared<AppendRequest>(req);
    copy->replicate = req.replicate - 1;
    network_->Send(Message{node_, routing_.successor_node,
                           TrafficCategory::kPublish, std::move(copy)});
    return;  // the tail of the chain acks
  }
  SendAppendAck(req);
}

void DhtPeer::HandleAppend(const AppendRequest& req) {
  C().appends_received->Increment();
  load_appends_->Increment();
  // At-most-once application of retry-capable appends: a resend of an
  // already-applied request skips the store (and the DPP interceptor) but
  // still forwards down the replication chain and acks, so the resend both
  // repairs replicas that missed it and unblocks the waiting client.
  if (req.dedup_id != 0 && !applied_appends_.insert(req.dedup_id).second) {
    C().dedup_hits->Increment();
    ForwardOrAck(req);
    return;
  }
  const PostingList postings = index::codec::DecodePayload(req.postings);
  C().postings_stored->Increment(postings.size());
  if (append_interceptor_ && append_interceptor_(req, postings)) return;

  auto& tracer = obs::Tracer::Default();
  const obs::SpanId apply = tracer.Begin("dht.append.apply");
  tracer.Annotate(apply, "key", req.key);

  const uint64_t r0 = store_->io().read_bytes;
  const uint64_t w0 = store_->io().write_bytes;
  if (req.per_entry) {
    for (const Posting& p : postings) store_->AppendPosting(req.key, p);
  } else {
    store_->AppendPostings(req.key, postings);
  }
  // Children of the apply span: the disk-completion event below and any
  // replication forward / ack it sends.
  obs::ScopedTraceContext scope(tracer.ContextFor(apply));
  ScheduleAfterDisk(static_cast<double>(store_->io().read_bytes - r0),
                    static_cast<double>(store_->io().write_bytes - w0),
                    [this, req, apply]() {
                      obs::Tracer::Default().End(apply);
                      ForwardOrAck(req);
                    });
}

void DhtPeer::SendGetBlock(NodeIndex origin, RequestId req_id,
                           uint32_t block_index, bool last,
                           PostingList postings) {
  auto out = std::make_shared<GetBlock>();
  out->req_id = req_id;
  out->block_index = block_index;
  out->last = last;
  out->postings = index::codec::EncodePostings(postings);
  C().blocks_sent->Increment();
  network_->Send(
      Message{node_, origin, TrafficCategory::kPosting, std::move(out)});
}

void DhtPeer::HandleGet(const GetRequest& req) {
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
    // Blocks are sliced on posting boundaries, so each one is its own
    // EncodePostings stream; the disk read is charged at its length.
    auto out = std::make_shared<GetBlock>();
    out->req_id = req.req_id;
    out->block_index = static_cast<uint32_t>(b);
    out->last = (b + 1 == n_blocks);
    out->postings = index::codec::EncodePostings(
        PostingList(list.begin() + begin, list.begin() + end_pos));
    const double block_bytes = static_cast<double>(out->postings.size());
    const NodeIndex origin = req.origin;
    const bool last_block = (b + 1 == n_blocks);
    ScheduleAfterDisk(block_bytes, /*write_bytes=*/0,
                      [this, origin, serve, last_block,
                       out = std::move(out)]() mutable {
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

void DhtPeer::HandleGetBlock(const Message& msg, const GetBlock& block) {
  auto it = requests_.find(block.req_id);
  GetCall* get = it == requests_.end()
                     ? nullptr
                     : std::get_if<GetCall>(&it->second.call);
  if (get == nullptr) {
    // Ids this peer made carry its node in the high word (NextRequestId):
    // such a block belongs to a get that timed out earlier. Any other was
    // pushed here (PushGet) and may have overtaken the request that makes
    // this peer await it.
    if ((block.req_id >> 32) != node_) HoldDelivery(msg, block.req_id);
    return;
  }
  // Links are FIFO, so blocks of one attempt arrive in index order; an
  // out-of-sequence index is a fault artifact — a duplicated copy (index
  // below expected) or the far side of a dropped block (index above). In
  // both cases ignore it: delivering would duplicate data or silently
  // complete a stream with a hole. The timeout/retry path recovers.
  if (block.block_index != get->next_block) return;
  get->next_block++;
  // The first block comes from the key's owner (its DPP get proxy
  // included).
  if (block.block_index == 0) LearnFromReply(it->second, msg.from);
  PostingList postings = index::codec::DecodePayload(block.postings);
  if (!block.last) {
    // Progress timer: each block pushes the per-attempt deadline out, so
    // a long healthy stream is not killed mid-transfer.
    Request& request = it->second;
    if (request.retry.enabled()) {
      network_->scheduler()->Cancel(request.timeout_event);
      request.timeout_event =
          ArmTimeout(block.req_id, request.retry.timeout_s);
    }
    if (get->accumulate) {
      get->accumulated.insert(get->accumulated.end(), postings.begin(),
                              postings.end());
      return;
    }
    get->delivered_any = true;
    BlockCallback cb = get->on_block;
    if (cb) cb(std::move(postings), /*last=*/false, true);
    return;
  }
  Request done = Finish(it);
  GetCall& call = std::get<GetCall>(done.call);
  if (!call.accumulate) {
    if (call.on_block) call.on_block(std::move(postings), true, true);
    return;
  }
  call.accumulated.insert(call.accumulated.end(), postings.begin(),
                          postings.end());
  if (call.on_done) {
    call.on_done(GetResult{std::move(call.accumulated), true, Status::OK()});
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
    if (auto done = Complete<LocateCall>(resp->req_id)) {
      std::get<LocateCall>(done->call).cb(resp->owner);
    }
    return;
  }
  if (auto* block = dynamic_cast<GetBlock*>(payload)) {
    HandleGetBlock(msg, *block);
    return;
  }
  if (auto* resp = dynamic_cast<BlobGetResponse*>(payload)) {
    if (auto done = Complete<BlobCall>(resp->req_id)) {
      BlobCallback& cb = std::get<BlobCall>(done->call).cb;
      if (resp->blob.has_value()) {
        cb(std::move(*resp->blob));
      } else {
        cb(Status::NotFound("no blob under '" + done->key + "'"));
      }
    }
    return;
  }
  if (auto* resp = dynamic_cast<AppResponse*>(payload)) {
    if (auto done = Complete<AppCall>(resp->req_id)) {
      LearnFromReply(*done, msg.from);
      std::get<AppCall>(done->call).cb(resp->inner);
    }
    return;
  }
  if (auto* ack = dynamic_cast<AppendAck*>(payload)) {
    if (auto done = Complete<AppendCall>(ack->req_id)) {
      std::get<AppendCall>(done->call).cb(Status::OK());
    }
    return;
  }
  if (auto* append = dynamic_cast<AppendRequest*>(payload)) {
    // Replication chain forwarding arrives directly (not routed).
    HandleAppend(*append);
    return;
  }
  if (auto* app = dynamic_cast<AppRequest*>(payload)) {
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
