#include "query/block_join.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "dht/ring.h"
#include "index/codec.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/iterator.h"
#include "query/twig_join.h"

namespace kadop::query {

namespace {

using dht::GetSpec;
using index::PostingList;

struct HolderCounters {
  obs::Counter* tasks;
  obs::Counter* ingress_postings;
  obs::Counter* ingress_wire_bytes;
  obs::Counter* egress_result_bytes;

  HolderCounters() {
    auto& r = obs::MetricRegistry::Default();
    tasks = r.GetCounter("query.join.holder.tasks");
    ingress_postings = r.GetCounter("query.join.holder.ingress_postings");
    ingress_wire_bytes = r.GetCounter("query.join.holder.ingress_wire_bytes");
    egress_result_bytes =
        r.GetCounter("query.join.holder.egress_result_bytes");
  }
};

HolderCounters& C() {
  static HolderCounters counters;
  return counters;
}

/// Rebuilds the join's structural skeleton from the wire slice. Labels
/// are irrelevant to the holder: the twig join consumes parent links and
/// axes only.
TreePattern PatternFromSlice(
    const std::vector<index::BlockJoinPatternNode>& slice) {
  TreePattern pattern;
  pattern.nodes.resize(slice.size());
  for (size_t i = 0; i < slice.size(); ++i) {
    PatternNode& pn = pattern.nodes[i];
    pn.kind = NodeKind::kLabel;
    pn.parent = slice[i].parent;
    pn.axis = slice[i].axis == 0 ? Axis::kChild : Axis::kDescendant;
    if (pn.parent >= 0) {
      pattern.nodes[static_cast<size_t>(pn.parent)].children.push_back(
          static_cast<int>(i));
    }
  }
  return pattern;
}

/// One in-flight task at the holder: input accumulation per pattern node
/// (one sorted list per completed pull, merged once at join time) plus the
/// accounting that travels back in the reply.
struct TaskState {
  TreePattern pattern;
  std::vector<std::vector<PostingList>> gathered;
  size_t pending = 0;
  bool complete = true;
  bool degraded = false;
  uint64_t postings_pulled = 0;
  uint64_t pulled_wire_bytes = 0;
  uint64_t blocks_fetched = 0;
};

}  // namespace

BlockJoinService::BlockJoinService(dht::DhtPeer* peer) : peer_(peer) {
  KADOP_CHECK(peer_ != nullptr, "BlockJoinService requires a peer");
}

bool BlockJoinService::HandleApp(const dht::AppRequest& request,
                                 sim::NodeIndex from) {
  const auto* req =
      dynamic_cast<const index::BlockJoinRequest*>(request.inner.get());
  if (req == nullptr) return false;
  RunTask(*req, request.origin, request.req_id);
  (void)from;
  return true;
}

void BlockJoinService::RunTask(const index::BlockJoinRequest& req,
                               sim::NodeIndex origin, dht::RequestId req_id) {
  C().tasks->Increment();
  auto state = std::make_shared<TaskState>();
  state->pattern = PatternFromSlice(req.nodes);
  state->gathered.resize(req.nodes.size());
  const uint64_t query_id = req.query_id;
  const uint32_t task = req.task;
  dht::DhtPeer* peer = peer_;

  // Holder-side span: parents to the dispatching query via the request's
  // wire context; covers the input pulls and the twig join, and closes when
  // the result leaves for the query peer.
  auto& tracer = obs::Tracer::Default();
  const obs::SpanId span = tracer.Begin("join.holder.task");
  tracer.Annotate(span, "task", std::to_string(task));
  obs::ScopedTraceContext scope(tracer.ContextFor(span));

  auto finish = [state, peer, origin, req_id, query_id, task, span]() {
    obs::Tracer::Default().End(span);
    TwigJoin join(state->pattern);
    for (size_t node = 0; node < state->gathered.size(); ++node) {
      // Pulled blocks may interleave or overlap (random-split ablation):
      // merge-distinct the sorted pulls once — the same canonical result
      // as the query peer's merge path.
      join.Append(node, MergeDistinct(std::move(state->gathered[node])));
    }
    join.CloseAll();
    join.Advance();

    auto result = std::make_shared<index::JoinResultMessage>();
    result->query_id = query_id;
    result->task = task;
    result->answers =
        index::codec::EncodeAnswers(join.matched_docs(), join.answers());
    result->complete = state->complete;
    result->degraded = state->degraded;
    result->postings_pulled = state->postings_pulled;
    result->pulled_wire_bytes = state->pulled_wire_bytes;
    result->blocks_fetched = state->blocks_fetched;
    C().egress_result_bytes->Increment(result->SizeBytes());
    peer->Reply(origin, req_id, std::move(result),
                sim::TrafficCategory::kResult);
  };

  // Count every pull up front so an early completion cannot fire `finish`
  // while later fetches are still being issued.
  for (const auto& per_node : req.inputs) state->pending += per_node.size();
  if (state->pending == 0) {
    finish();
    return;
  }

  for (size_t node = 0; node < req.inputs.size(); ++node) {
    for (const index::DppBlockInfo& block : req.inputs[node]) {
      GetSpec spec;
      spec.key = block.key;
      spec.pipelined = false;
      spec.lo = block.cond.lo < req.window.lo ? req.window.lo : block.cond.lo;
      spec.hi = req.window.hi < block.cond.hi ? req.window.hi : block.cond.hi;
      spec.retry = req.fetch_retry;
      const bool lower_trimmed = block.cond.lo < spec.lo;
      const bool upper_trimmed = spec.hi < block.cond.hi;
      const uint64_t expected = block.count;
      // The home block (and any other block this peer happens to hold) is
      // served locally: the get round-trips through the local store with
      // zero network traffic, so only foreign pulls charge wire bytes.
      const bool local = peer_->IsResponsible(dht::HashKey(block.key));
      auto staged = std::make_shared<PostingList>();
      peer_->GetBlocks(
          spec, [state, node, local, lower_trimmed, upper_trimmed, expected,
                 staged, finish](PostingList postings, bool last,
                                 bool complete) {
            staged->insert(staged->end(), postings.begin(), postings.end());
            if (!last) return;
            PostingList got = std::move(*staged);
            // Verify the pull against the directory. A crashed holder's
            // key range is inherited by its data-less successor, which
            // answers instantly with an empty list and complete=true —
            // silent data loss unless caught here. An untrimmed pull must
            // match the directory count; a pull trimmed at one end must
            // still contain the block's posting at the untrimmed end, so
            // empty means the data is gone. Only a window strictly inside
            // the block (both ends trimmed) can be legitimately empty and
            // stays unverifiable.
            const bool suspect =
                !complete ||
                (!lower_trimmed && !upper_trimmed && got.size() < expected) ||
                (lower_trimmed != upper_trimmed && got.empty() &&
                 expected > 0);
            if (suspect) {
              state->complete = false;
              state->degraded = true;
            }
            state->postings_pulled += got.size();
            state->blocks_fetched++;
            C().ingress_postings->Increment(got.size());
            if (!local) {
              const size_t wire = index::codec::EncodedBytes(got);
              state->pulled_wire_bytes += wire;
              C().ingress_wire_bytes->Increment(wire);
            }
            state->gathered[node].push_back(std::move(got));
            if (--state->pending == 0) finish();
          });
    }
  }
}

}  // namespace kadop::query
