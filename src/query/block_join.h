#ifndef KADOP_QUERY_BLOCK_JOIN_H_
#define KADOP_QUERY_BLOCK_JOIN_H_

#include <functional>
#include <optional>
#include <vector>

#include "dht/peer.h"
#include "index/dpp_messages.h"
#include "query/tree_pattern.h"
#include "query/twig_join.h"

namespace kadop::query {

/// The DPP block pull (docs/distributed_join.md): one directory block
/// fetched trimmed to a document window. kDpp's fetches, kDppJoin's
/// pushes and home reads, and the query peer's local join fallback all
/// use it.

/// The non-pipelined get of `block` clamped to `window`, hinted at the
/// block's holder when the directory named one.
[[nodiscard]] dht::GetSpec BlockPullSpec(const index::DppBlockInfo& block,
                                         const index::Condition& window,
                                         const dht::RetryPolicy& retry);

/// The short-pull rule: may `got` postings pulled from `block` with `spec`
/// be missing data? A crashed holder's range passes to a data-less
/// successor that answers at once with an empty, complete list. So an
/// untrimmed pull must match the directory count, and a pull trimmed at
/// one end must not be empty (the block's posting at the untrimmed end is
/// in range). A window strictly inside the block can be legitimately empty
/// and stays unverifiable. A timed-out pull is always short.
[[nodiscard]] bool ShortPull(const index::DppBlockInfo& block,
                             const dht::GetSpec& spec, size_t got,
                             bool complete);

/// `retry` is the per-fetch policy. With `repull`, a short pull is pulled
/// again, up to `retry.max_retries` times, each after `retry.timeout_s +
/// retry.BackoffDelay(attempt)`, giving a crashed holder time to come back.
/// Re-pulls drop the holder hint and are routed.
/// Once `live` (when set) returns false, a finished pull is dropped and no
/// re-pull is scheduled.
struct PullOptions {
  dht::RetryPolicy retry;
  bool repull = false;
  std::function<bool()> live;
};

/// One finished pull: its postings, whether the get completed, and the
/// ShortPull verdict.
using PullSink =
    std::function<void(index::PostingList got, bool complete, bool suspect)>;

/// Pulls `block` clamped to `window` and hands the final pull to `sink`.
/// With `awaited`, another peer already asked for the pull on this peer's
/// behalf under that request id (dht::DhtPeer::PushGet): the first attempt
/// awaits it instead of asking, under the same timeout.
void PullBlock(dht::DhtPeer* peer, const index::DppBlockInfo& block,
               const index::Condition& window, const PullOptions& options,
               PullSink sink,
               std::optional<dht::RequestId> awaited = std::nullopt);

/// The kDppJoin push rule: which inputs of a task homed at
/// `inputs[home_node][home_block]` the query peer `query_peer` asks their
/// holders to push straight to the home, per node and block. Only to a
/// home the directory names, and not the query peer (an unnamed home's
/// address is unknown; a home at the query peer is reached at once).
/// Every input but the home block and those the directory names the
/// home's holder for (the home reads its own blocks). An unnamed input's
/// push request is routed to its owner; its blocks still go straight to
/// the home. The pushed inputs, in (node, block) order, travel under
/// consecutive request ids from BlockJoinRequest::delivery_id. The query
/// peer's dispatch, the home and `explain` all decide by this one
/// function.
[[nodiscard]] std::vector<std::vector<bool>> PushedInputs(
    const std::vector<std::vector<index::DppBlockInfo>>& inputs,
    size_t home_node, size_t home_block, sim::NodeIndex query_peer);

/// Fetches block `inputs[node][idx]` of a join task and hands its
/// postings to `sink`, exactly once.
using InputFetch = std::function<void(
    size_t node, size_t idx, std::function<void(index::PostingList)> sink)>;

/// One block-join task: fetches every block of `inputs[node]` with
/// `fetch`, merge-distincts each node's blocks, twig-joins them under
/// `pattern` and hands the join to `done`.
void JoinInputs(const TreePattern& pattern,
                const std::vector<std::vector<index::DppBlockInfo>>& inputs,
                const InputFetch& fetch,
                std::function<void(const TwigJoin& join)> done);

/// Called as each input pull of a join task is issued; the callback it
/// returns accounts that pull's postings and verdict.
using PullAccount =
    std::function<std::function<void(const index::PostingList& got,
                                     bool suspect)>(
        const index::DppBlockInfo& block)>;

/// The query peer's local join of one task (its fallback): JoinInputs
/// over pulls of every input clamped to `window`.
void PullAndJoin(dht::DhtPeer* peer, const TreePattern& pattern,
                 const std::vector<std::vector<index::DppBlockInfo>>& inputs,
                 const index::Condition& window, const PullOptions& options,
                 const PullAccount& account,
                 std::function<void(const TwigJoin& join)> done);

/// Holder side of kDppJoin (Section 4.3), one per peer. The query peer
/// sends each task to its home block, the input expected to hold the most
/// of the task's window (PlanJoinTasks), and then asks the holders of the
/// other inputs to push them to the home (PushedInputs). The home reads
/// its own block, awaits the pushed inputs, asks for any others itself,
/// joins, and replies with the answer tuples only, so the window's
/// heaviest input never crosses the wire. A push that has not arrived
/// within the pull's per-attempt timeout is asked for again, routed,
/// within the same retry budget. It never re-pulls: a short input turns
/// the reply into a NACK (complete=false) and the query peer redoes the
/// task.
class BlockJoinService {
 public:
  explicit BlockJoinService(dht::DhtPeer* peer);

  BlockJoinService(const BlockJoinService&) = delete;
  BlockJoinService& operator=(const BlockJoinService&) = delete;

  /// Handles BlockJoinRequest messages; false for any other payload.
  [[nodiscard]] bool HandleApp(const dht::AppRequest& request,
                               sim::NodeIndex from);

 private:
  void RunTask(const index::BlockJoinRequest& req, sim::NodeIndex origin,
               dht::RequestId req_id);

  dht::DhtPeer* peer_;
  /// `load.holder.<N>.join_tasks`: the join tasks this peer ran as a
  /// home, so `stats peer <N>` shows where join work runs.
  obs::Counter* tasks_here_;
};

}  // namespace kadop::query

#endif  // KADOP_QUERY_BLOCK_JOIN_H_
