#ifndef KADOP_QUERY_BLOCK_JOIN_H_
#define KADOP_QUERY_BLOCK_JOIN_H_

#include <functional>
#include <vector>

#include "dht/peer.h"
#include "index/dpp_messages.h"
#include "query/tree_pattern.h"
#include "query/twig_join.h"

namespace kadop::query {

/// The DPP block pull (docs/distributed_join.md): one directory block
/// fetched trimmed to a document window. kDpp's fetches, the kDppJoin
/// holder and the query peer's local join fallback all pull through here.

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
void PullBlock(dht::DhtPeer* peer, const index::DppBlockInfo& block,
               const index::Condition& window, const PullOptions& options,
               PullSink sink);

/// Called as each input pull of a join task is issued; the callback it
/// returns accounts that pull's postings and verdict.
using PullAccount =
    std::function<std::function<void(const index::PostingList& got,
                                     bool suspect)>(
        const index::DppBlockInfo& block)>;

/// One block-join task: pulls every block of `inputs[node]` clamped to
/// `window`, merge-distincts each node's pulls, twig-joins them under
/// `pattern` and hands the join to `done`.
void PullAndJoin(dht::DhtPeer* peer, const TreePattern& pattern,
                 const std::vector<std::vector<index::DppBlockInfo>>& inputs,
                 const index::Condition& window, const PullOptions& options,
                 const PullAccount& account,
                 std::function<void(const TwigJoin& join)> done);

/// Holder side of kDppJoin (Section 4.3), one per peer. The query peer
/// sends each task to its home block, the input expected to hold the most
/// of the task's window (PlanJoinTasks); the holder runs it with
/// PullAndJoin and replies with the answer tuples only, so the window's
/// heaviest input never crosses the wire. It never
/// re-pulls: a short pull turns the reply into a NACK (complete=false) and
/// the query peer redoes the task.
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
};

}  // namespace kadop::query

#endif  // KADOP_QUERY_BLOCK_JOIN_H_
