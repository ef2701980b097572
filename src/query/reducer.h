#ifndef KADOP_QUERY_REDUCER_H_
#define KADOP_QUERY_REDUCER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dht/peer.h"
#include "query/messages.h"

namespace kadop::query {

/// Per-peer service executing the owner-side roles of the Bloom-based
/// query strategies (Section 5.3).
///
/// For each query it participates in, the peer loads its term's posting
/// list, applies / builds Structural Bloom Filters according to the plan
/// mode, exchanges filters directly with the owners of neighbouring
/// pattern nodes, and finally ships its (reduced) list to the query peer.
///
/// On a DPP-off network it also answers directory requests (the system's
/// one term-size message) from the local store; with DPP on, the
/// DppManager answers them first.
class ReducerService {
 public:
  explicit ReducerService(dht::DhtPeer* peer);

  ReducerService(const ReducerService&) = delete;
  ReducerService& operator=(const ReducerService&) = delete;

  /// Handles reducer messages; returns false if the payload is not one.
  [[nodiscard]] bool HandleApp(const dht::AppRequest& request, sim::NodeIndex from);

 private:
  struct NodeState {
    ReducePlan plan;
    int node = -1;
    bool started = false;
    bool loaded = false;
    /// False when the list load ran out of its retry budget (short list).
    bool complete = true;
    index::PostingList list;
    uint64_t full_count = 0;
    bool abf_in_applied = false;
    bool abf_out_sent = false;
    std::vector<std::shared_ptr<bloom::DescendantBloomFilter>> dbfs;
    bool list_sent = false;
    bool dbf_out_sent = false;
    uint64_t ab_filter_bytes = 0;
    uint64_t db_filter_bytes = 0;
    /// Filters that arrived before ReduceStart.
    std::vector<sim::PayloadPtr> pending;
  };
  using StateKey = std::pair<uint64_t, int>;

  void OnStart(const ReduceStart& start);
  void OnAbf(const AbfMessage& msg);
  void OnDbf(const DbfMessage& msg);
  /// Drives the per-node state machine as far as possible.
  void Proceed(const StateKey& key);
  void SendListToQueryPeer(NodeState& st);
  void BuildAndSendAbf(NodeState& st);
  void BuildAndSendDbf(NodeState& st);
  void ApplyDbfs(NodeState& st);
  /// Whether this node needs an incoming ABF before proceeding.
  [[nodiscard]] static bool NeedsAbf(const NodeState& st);

  dht::DhtPeer* peer_;
  std::map<StateKey, NodeState> states_;
};

}  // namespace kadop::query

#endif  // KADOP_QUERY_REDUCER_H_
