#include "query/reducer.h"

#include <utility>

#include "common/logging.h"
#include "index/codec.h"
#include "index/dpp.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace kadop::query {

using dht::AppRequest;
using index::PostingList;
using sim::NodeIndex;
using sim::TrafficCategory;

namespace {

struct ReducerCounters {
  obs::Counter* roles_started;
  obs::Counter* abf_built;
  obs::Counter* dbf_built;
  obs::Counter* postings_filtered_out;

  ReducerCounters() {
    auto& r = obs::MetricRegistry::Default();
    roles_started = r.GetCounter("reducer.roles_started");
    abf_built = r.GetCounter("reducer.abf_built");
    dbf_built = r.GetCounter("reducer.dbf_built");
    postings_filtered_out = r.GetCounter("reducer.postings_filtered_out");
  }
};

ReducerCounters& C() {
  static ReducerCounters counters;
  return counters;
}

}  // namespace

ReducerService::ReducerService(dht::DhtPeer* peer) : peer_(peer) {
  KADOP_CHECK(peer_ != nullptr, "ReducerService requires a peer");
}

bool ReducerService::HandleApp(const AppRequest& request,
                               NodeIndex /*from*/) {
  const sim::Payload* inner = request.inner.get();
  if (const auto* start = dynamic_cast<const ReduceStart*>(inner)) {
    obs::Tracer::Default().Event("reducer.start");
    OnStart(*start);
    return true;
  }
  if (const auto* abf = dynamic_cast<const AbfMessage*>(inner)) {
    OnAbf(*abf);
    return true;
  }
  if (const auto* dbf = dynamic_cast<const DbfMessage*>(inner)) {
    OnDbf(*dbf);
    return true;
  }
  if (const auto* dir = dynamic_cast<const index::DppDirRequest*>(inner)) {
    auto resp = std::make_shared<index::DppDirResponse>();
    resp->blocks = index::StoreDirectory(*peer_->store(), dir->term_key,
                                         peer_->node());
    peer_->Reply(request.origin, request.req_id, std::move(resp),
                 TrafficCategory::kControl);
    return true;
  }
  return false;
}

void ReducerService::OnStart(const ReduceStart& start) {
  const StateKey key{start.plan.query_id, start.node};
  NodeState& st = states_[key];
  if (st.started) return;  // duplicate
  st.plan = start.plan;
  st.node = start.node;
  st.started = true;
  C().roles_started->Increment();

  const ReducePlanNode* pn = st.plan.Find(st.node);
  KADOP_CHECK(pn != nullptr, "plan is missing this node");

  // Load this term's posting list through the DHT get: this peer owns the
  // term key, so the read is served locally (disk time modeled by the get
  // path) — and it stays complete when the list is DPP-partitioned, since
  // the owner's get path gathers the overflow blocks. A load that ran out
  // of its retry budget still proceeds, but its list ships flagged
  // incomplete.
  peer_->Get(pn->term_key, [this, key](dht::GetResult got) {
    auto it = states_.find(key);
    if (it == states_.end()) return;
    NodeState& state = it->second;
    state.complete = got.complete;
    state.list = std::move(got.postings);
    state.full_count = state.list.size();
    state.loaded = true;
    // Apply any filters that raced ahead of the list load.
    std::vector<sim::PayloadPtr> pending = std::move(state.pending);
    state.pending.clear();
    for (const sim::PayloadPtr& payload : pending) {
      if (auto* abf = dynamic_cast<AbfMessage*>(payload.get())) OnAbf(*abf);
      if (auto* dbf = dynamic_cast<DbfMessage*>(payload.get())) OnDbf(*dbf);
    }
    Proceed(key);
  });
}

void ReducerService::OnAbf(const AbfMessage& msg) {
  const StateKey key{msg.query_id, msg.to_node};
  NodeState& st = states_[key];
  if (!st.started || !st.loaded) {
    st.pending.push_back(std::make_shared<AbfMessage>(msg));
    return;
  }
  KADOP_CHECK(msg.filter != nullptr, "ABF message without filter");
  const size_t before = st.list.size();
  st.list = msg.filter->Filter(st.list);
  C().postings_filtered_out->Increment(before - st.list.size());
  st.abf_in_applied = true;
  Proceed(key);
}

void ReducerService::OnDbf(const DbfMessage& msg) {
  const StateKey key{msg.query_id, msg.to_node};
  NodeState& st = states_[key];
  if (!st.started || !st.loaded) {
    st.pending.push_back(std::make_shared<DbfMessage>(msg));
    return;
  }
  KADOP_CHECK(msg.filter != nullptr, "DBF message without filter");
  st.dbfs.push_back(msg.filter);
  Proceed(key);
}

bool ReducerService::NeedsAbf(const NodeState& st) {
  if (st.plan.mode == ReduceMode::kDb) return false;
  const ReducePlanNode* pn = st.plan.Find(st.node);
  return pn->parent >= 0;  // non-root nodes are filtered by their parent
}

void ReducerService::Proceed(const StateKey& key) {
  NodeState& st = states_[key];
  if (!st.started || !st.loaded) return;
  const ReducePlanNode* pn = st.plan.Find(st.node);
  const bool is_leaf = pn->children.empty();
  const bool is_root = pn->parent < 0;

  if (NeedsAbf(st) && !st.abf_in_applied) return;  // wait for the ABF

  switch (st.plan.mode) {
    case ReduceMode::kAb:
      if (!is_leaf && !st.abf_out_sent) BuildAndSendAbf(st);
      if (!st.list_sent) SendListToQueryPeer(st);
      break;

    case ReduceMode::kDb:
      if (!is_leaf && st.dbfs.size() < pn->children.size()) return;
      if (!is_leaf) ApplyDbfs(st);
      // Build the outgoing filter first so its bytes are accounted in the
      // ReducedListMessage this node ships.
      if (!is_root && !st.dbf_out_sent) BuildAndSendDbf(st);
      if (!st.list_sent) SendListToQueryPeer(st);
      break;

    case ReduceMode::kBloom:
      // Top-down AB pass first (once), then the bottom-up DB pass on the
      // AB-reduced lists.
      if (!is_leaf && !st.abf_out_sent) BuildAndSendAbf(st);
      if (!is_leaf && st.dbfs.size() < pn->children.size()) return;
      if (!is_leaf) ApplyDbfs(st);
      if (!is_root && !st.dbf_out_sent) BuildAndSendDbf(st);
      if (!st.list_sent) SendListToQueryPeer(st);
      break;
  }
}

void ReducerService::SendListToQueryPeer(NodeState& st) {
  st.list_sent = true;
  auto msg = std::make_shared<ReducedListMessage>();
  msg->query_id = st.plan.query_id;
  msg->node = st.node;
  msg->complete = st.complete;
  msg->postings = index::codec::EncodePostings(st.list);
  msg->full_count = st.full_count;
  msg->ab_filter_bytes = st.ab_filter_bytes;
  msg->db_filter_bytes = st.db_filter_bytes;
  peer_->SendApp(st.plan.query_peer, std::move(msg),
                 TrafficCategory::kPosting);
}

void ReducerService::BuildAndSendAbf(NodeState& st) {
  st.abf_out_sent = true;
  const ReducePlanNode* pn = st.plan.Find(st.node);
  auto filter = std::make_shared<bloom::AncestorBloomFilter>(
      bloom::AncestorBloomFilter::Build(st.list, st.plan.ab_params));
  C().abf_built->Increment();
  for (int child : pn->children) {
    const ReducePlanNode* cn = st.plan.Find(child);
    auto msg = std::make_shared<AbfMessage>();
    msg->query_id = st.plan.query_id;
    msg->from_node = st.node;
    msg->to_node = child;
    msg->filter = filter;
    st.ab_filter_bytes += filter->SizeBytes();
    peer_->RouteApp(cn->term_key, std::move(msg),
                    TrafficCategory::kBloomFilter, nullptr, {}, cn->owner);
  }
}

void ReducerService::BuildAndSendDbf(NodeState& st) {
  st.dbf_out_sent = true;
  const ReducePlanNode* pn = st.plan.Find(st.node);
  const ReducePlanNode* parent = st.plan.Find(pn->parent);
  auto filter = std::make_shared<bloom::DescendantBloomFilter>(
      bloom::DescendantBloomFilter::Build(st.list, st.plan.db_params));
  C().dbf_built->Increment();
  auto msg = std::make_shared<DbfMessage>();
  msg->query_id = st.plan.query_id;
  msg->from_node = st.node;
  msg->to_node = pn->parent;
  msg->filter = filter;
  st.db_filter_bytes += filter->SizeBytes();
  peer_->RouteApp(parent->term_key, std::move(msg),
                  TrafficCategory::kBloomFilter, nullptr, {}, parent->owner);
}

void ReducerService::ApplyDbfs(NodeState& st) {
  if (st.dbfs.empty()) return;
  // One pass through all child filters at once: a posting survives iff
  // every DBF's may-have-descendant probe passes, which is exactly the
  // sequential `Filter` composition (same survivors, same order) at the
  // cost of one output list instead of k.
  const size_t before = st.list.size();
  PostingList kept;
  kept.reserve(before / 4);
  for (const index::Posting& p : st.list) {
    bool pass = true;
    for (const auto& filter : st.dbfs) {
      if (!filter->MaybeAncestor(p)) {
        pass = false;
        break;
      }
    }
    if (pass) kept.push_back(p);
  }
  st.list = std::move(kept);
  C().postings_filtered_out->Increment(before - st.list.size());
  st.dbfs.clear();
}

}  // namespace kadop::query
