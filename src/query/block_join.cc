#include "query/block_join.h"

#include <algorithm>
#include <memory>
#include <string>
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

obs::MetricRegistry& R() { return obs::MetricRegistry::Default(); }

struct HolderCounters {
  obs::Counter* tasks = R().GetCounter("query.join.holder.tasks");
  // Every posting a holder read for its tasks, local and foreign alike.
  obs::Counter* ingress_postings =
      R().GetCounter("query.join.holder.ingress_postings");
  // The part of ingress_postings read from the holder's own store.
  obs::Counter* local_postings =
      R().GetCounter("query.join.holder.local_postings");
  obs::Counter* ingress_wire_bytes =
      R().GetCounter("query.join.holder.ingress_wire_bytes");
  obs::Counter* egress_result_bytes =
      R().GetCounter("query.join.holder.egress_result_bytes");
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

}  // namespace

GetSpec BlockPullSpec(const index::DppBlockInfo& block,
                      const index::Condition& window,
                      const dht::RetryPolicy& retry) {
  GetSpec spec;
  spec.key = block.key;
  spec.pipelined = false;
  spec.lo = block.cond.lo < window.lo ? window.lo : block.cond.lo;
  spec.hi = window.hi < block.cond.hi ? window.hi : block.cond.hi;
  spec.retry = retry;
  spec.owner_hint = block.holder;
  return spec;
}

bool ShortPull(const index::DppBlockInfo& block, const GetSpec& spec,
               size_t got, bool complete) {
  const bool lower_trimmed = block.cond.lo < spec.lo;
  const bool upper_trimmed = spec.hi < block.cond.hi;
  return !complete ||
         (!lower_trimmed && !upper_trimmed && got < block.count) ||
         (lower_trimmed != upper_trimmed && got == 0 && block.count > 0);
}

namespace {

/// One PullBlock call, shared by its re-pulls.
struct Pull {
  dht::DhtPeer* peer;
  index::DppBlockInfo block;
  GetSpec spec;
  PullOptions options;
  PullSink sink;

  [[nodiscard]] bool Live() const { return !options.live || options.live(); }
};

void Issue(std::shared_ptr<const Pull> pull, uint32_t attempt) {
  auto staged = std::make_shared<PostingList>();
  GetSpec spec = pull->spec;
  // Only the first pull goes straight to the directory's holder or awaits
  // a push; a re-pull re-resolves the key owner by routing.
  if (attempt > 1) {
    spec.owner_hint.reset();
    spec.awaited.reset();
  }
  pull->peer->GetBlocks(spec, [pull, attempt, staged](
                                        PostingList postings, bool last,
                                        bool complete) {
    if (staged->empty()) {
      staged->swap(postings);
    } else {
      staged->insert(staged->end(), postings.begin(), postings.end());
    }
    if (!last || !pull->Live()) return;
    const bool suspect =
        ShortPull(pull->block, pull->spec, staged->size(), complete);
    const dht::RetryPolicy& retry = pull->options.retry;
    if (suspect && pull->options.repull && retry.enabled() &&
        attempt <= retry.max_retries) {
      pull->peer->network()->scheduler()->After(
          retry.timeout_s + retry.BackoffDelay(attempt), [pull, attempt]() {
            if (pull->Live()) Issue(pull, attempt + 1);
          });
      return;
    }
    pull->sink(std::move(*staged), complete, suspect);
  });
}

}  // namespace

void PullBlock(dht::DhtPeer* peer, const index::DppBlockInfo& block,
               const index::Condition& window, const PullOptions& options,
               PullSink sink, std::optional<dht::RequestId> awaited) {
  GetSpec spec = BlockPullSpec(block, window, options.retry);
  spec.awaited = awaited;
  Issue(std::make_shared<const Pull>(
            Pull{peer, block, std::move(spec), options, std::move(sink)}),
        /*attempt=*/1);
}

std::vector<std::vector<bool>> PushedInputs(
    const std::vector<std::vector<index::DppBlockInfo>>& inputs,
    size_t home_node, size_t home_block, sim::NodeIndex query_peer) {
  std::vector<std::vector<bool>> pushed(inputs.size());
  const std::optional<sim::NodeIndex> home =
      inputs[home_node][home_block].holder;
  for (size_t node = 0; node < inputs.size(); ++node) {
    pushed[node].resize(inputs[node].size(), false);
    if (!home.has_value() || *home == query_peer) continue;
    // The home block is held by the home, like any other input named so.
    for (size_t idx = 0; idx < inputs[node].size(); ++idx) {
      pushed[node][idx] = inputs[node][idx].holder != home;
    }
  }
  return pushed;
}

void JoinInputs(const TreePattern& pattern,
                const std::vector<std::vector<index::DppBlockInfo>>& inputs,
                const InputFetch& fetch,
                std::function<void(const TwigJoin& join)> done) {
  // One sorted list per fetched block, merged once at join time.
  struct Gather {
    TreePattern pattern;
    std::function<void(const TwigJoin& join)> done;
    std::vector<std::vector<PostingList>> lists;
    size_t pending = 0;

    void Join() {
      TwigJoin join(pattern);
      for (size_t node = 0; node < lists.size(); ++node) {
        // Fetched blocks may interleave or overlap (random-split ablation):
        // merge-distinct the sorted lists once, like kDpp's merge path.
        join.Append(node, MergeDistinct(std::move(lists[node])));
      }
      join.CloseAll();
      join.Advance();
      done(join);
    }
  };
  KADOP_CHECK(inputs.size() == pattern.size(), "one input list per node");
  auto gather = std::make_shared<Gather>(
      Gather{pattern, std::move(done),
             std::vector<std::vector<PostingList>>(inputs.size()), 0});
  // Count every fetch up front so an early completion cannot run the join
  // while later fetches are still being issued.
  for (const auto& per_node : inputs) gather->pending += per_node.size();
  if (gather->pending == 0) gather->Join();
  for (size_t node = 0; node < inputs.size(); ++node) {
    for (size_t idx = 0; idx < inputs[node].size(); ++idx) {
      fetch(node, idx, [gather, node](PostingList got) {
        gather->lists[node].push_back(std::move(got));
        if (--gather->pending == 0) gather->Join();
      });
    }
  }
}

void PullAndJoin(dht::DhtPeer* peer, const TreePattern& pattern,
                 const std::vector<std::vector<index::DppBlockInfo>>& inputs,
                 const index::Condition& window, const PullOptions& options,
                 const PullAccount& account,
                 std::function<void(const TwigJoin& join)> done) {
  JoinInputs(
      pattern, inputs,
      [&](size_t node, size_t idx, std::function<void(PostingList)> sink) {
        const index::DppBlockInfo& block = inputs[node][idx];
        PullBlock(peer, block, window, options,
                  [sink = std::move(sink), record = account(block)](
                      PostingList got, bool /*complete*/, bool suspect) {
                    record(got, suspect);
                    sink(std::move(got));
                  });
      },
      std::move(done));
}

BlockJoinService::BlockJoinService(dht::DhtPeer* peer) : peer_(peer) {
  KADOP_CHECK(peer_ != nullptr, "BlockJoinService requires a peer");
  tasks_here_ = R().GetCounter("load.holder." + std::to_string(peer_->node()) +
                               ".join_tasks");
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
  tasks_here_->Increment();
  // The reply, accumulating the pulls' accounting until the join is done.
  auto result = std::make_shared<index::JoinResultMessage>();
  result->task = req.task;
  dht::DhtPeer* peer = peer_;

  // Holder-side span: parents to the dispatching query via the request's
  // wire context; covers the input reads and the twig join, and closes
  // when the result leaves for the query peer.
  auto& tracer = obs::Tracer::Default();
  const obs::SpanId span = tracer.Begin("join.holder.task");
  tracer.Annotate(span, "task", std::to_string(req.task));
  obs::ScopedTraceContext scope(tracer.ContextFor(span));
  auto reply = [result, peer, origin, req_id, span](const TwigJoin& join) {
    obs::Tracer::Default().End(span);
    result->answers =
        index::codec::EncodeAnswers(join.matched_docs(), join.answers());
    C().egress_result_bytes->Increment(result->SizeBytes());
    peer->Reply(origin, req_id, result, sim::TrafficCategory::kResult);
  };

  // The query peer pushed this task's foreign inputs to the home it named
  // (PushedInputs) under consecutive ids from `delivery_id`. A task that
  // reached another peer (the heir of a crashed holder, or past a stale
  // name) asks for every input itself.
  const index::DppBlockInfo& home = req.inputs[req.home_node][req.home_block];
  std::vector<std::vector<std::optional<dht::RequestId>>> awaited(
      req.inputs.size());
  const std::vector<std::vector<bool>> pushed =
      PushedInputs(req.inputs, req.home_node, req.home_block, origin);
  dht::RequestId next_delivery = req.delivery_id;
  for (size_t node = 0; node < req.inputs.size(); ++node) {
    awaited[node].resize(req.inputs[node].size());
    for (size_t idx = 0; idx < req.inputs[node].size(); ++idx) {
      if (!pushed[node][idx]) continue;
      const dht::RequestId id = next_delivery++;
      if (home.holder == peer->node()) awaited[node][idx] = id;
    }
  }
  const PullOptions options{.retry = req.fetch_retry, .repull = false,
                            .live = {}};
  const index::Condition window = req.window;
  JoinInputs(
      PatternFromSlice(req.nodes), req.inputs,
      [&](size_t node, size_t idx, std::function<void(PostingList)> sink) {
        const index::DppBlockInfo& block = req.inputs[node][idx];
        // The home block (and any other block this peer holds) is read
        // from the local store with zero network traffic, so only foreign
        // inputs charge wire bytes.
        const bool local = peer->IsResponsible(dht::HashKey(block.key));
        PullBlock(
            peer, block, window, options,
            [result, local, sink = std::move(sink)](
                PostingList got, bool /*complete*/, bool suspect) {
              if (suspect) {  // unverifiable here: NACK the task
                result->complete = false;
                result->degraded = true;
              }
              result->postings_pulled += got.size();
              result->blocks_fetched++;
              C().ingress_postings->Increment(got.size());
              if (local) {
                C().local_postings->Increment(got.size());
              } else {
                const size_t wire = index::codec::EncodedBytes(got);
                result->pulled_wire_bytes += wire;
                C().ingress_wire_bytes->Increment(wire);
              }
              sink(std::move(got));
            },
            awaited[node][idx]);
      },
      reply);
}

}  // namespace kadop::query
