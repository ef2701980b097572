#include "query/executor.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "common/logging.h"
#include "index/codec.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/block_join.h"
#include "query/iterator.h"

namespace kadop::query {

namespace {

obs::MetricRegistry& R() { return obs::MetricRegistry::Default(); }

// Maximum concurrent DPP block fetches per posting list (the paper's
// parallelism degree K). kAuto prices a parallel fetch as spread over half
// of them.
constexpr size_t kDppParallelism = 16;
// kAuto runs the Sub-query Reducer when
// min_count * kAutoSelectivityRatio < max_count.
constexpr double kAutoSelectivityRatio = 10;

struct QueryCounters {
  obs::Counter* submitted = R().GetCounter("query.submitted");
  obs::Counter* completed = R().GetCounter("query.completed");
  obs::Counter* incomplete = R().GetCounter("query.incomplete");
  obs::Counter* degraded = R().GetCounter("query.degraded");
  obs::Counter* postings_received = R().GetCounter("query.postings_received");
  obs::Counter* posting_bytes = R().GetCounter("query.posting_bytes");
  obs::Counter* posting_wire_bytes =
      R().GetCounter("query.posting_wire_bytes");
  obs::Counter* ab_filter_bytes = R().GetCounter("query.ab_filter_bytes");
  obs::Counter* db_filter_bytes = R().GetCounter("query.db_filter_bytes");
  obs::Counter* dpp_blocks_fetched =
      R().GetCounter("query.dpp.blocks_fetched");
  obs::Counter* dpp_blocks_skipped =
      R().GetCounter("query.dpp.blocks_skipped");
  obs::Counter* join_tasks = R().GetCounter("query.join.tasks");
  obs::Counter* join_remote = R().GetCounter("query.join.remote");
  obs::Counter* join_local_fallback =
      R().GetCounter("query.join.local_fallback");
  obs::Counter* join_result_postings =
      R().GetCounter("query.join.result_postings");
  obs::Counter* result_wire_bytes = R().GetCounter("query.result_wire_bytes");
  obs::Histogram* response_time_s =
      R().GetHistogram("query.response_time_s", obs::LatencyBuckets());
  obs::Histogram* first_answer_s =
      R().GetHistogram("query.first_answer_s", obs::LatencyBuckets());
  // Fan-out actually in flight when a DPP pump pass finishes.
  obs::Histogram* dpp_outstanding =
      R().GetHistogram("query.dpp.outstanding", obs::CountBuckets());
};

QueryCounters& C() {
  static QueryCounters counters;
  return counters;
}

/// Ends a phase span if it is still open.
void EndSpan(obs::SpanId& span) {
  if (span != 0) obs::Tracer::Default().End(span);
  span = 0;
}

}  // namespace

using dht::AppRequest;
using dht::GetSpec;
using index::DocId;
using index::Posting;
using index::PostingList;
using sim::NodeIndex;
using sim::TrafficCategory;

std::string_view QueryStrategyName(QueryStrategy s) {
  static constexpr std::string_view kNames[] = {
      "baseline",         "dpp",  "ab-reducer", "db-reducer", "bloom-reducer",
      "subquery-reducer", "auto", "dpp-join",   "view"};
  static_assert(std::size(kNames) ==
                static_cast<size_t>(QueryStrategy::kView) + 1);
  const auto i = static_cast<size_t>(s);
  return i < std::size(kNames) ? kNames[i] : "unknown";
}

double QueryMetrics::NormalizedDataVolume() const {
  // The paper's metric is defined over raw posting records; the encoded
  // wire size shows up in posting_wire_bytes, not here.
  const double baseline = static_cast<double>(
      index::codec::RawBytes(static_cast<size_t>(full_postings)));
  if (baseline <= 0) return 0.0;
  return (static_cast<double>(posting_bytes) +
          static_cast<double>(ab_filter_bytes) +
          static_cast<double>(db_filter_bytes)) /
         baseline;
}

// ---------------------------------------------------------------------------
// QueryClient

QueryClient::QueryClient(dht::DhtPeer* peer) : peer_(peer) {
  KADOP_CHECK(peer_ != nullptr, "QueryClient requires a peer");
}

void QueryClient::Submit(const TreePattern& pattern,
                         const QueryOptions& options, Callback callback) {
  const uint64_t id =
      (static_cast<uint64_t>(peer_->node()) << 40) | next_query_id_++;
  auto exec = std::make_shared<QueryExecutor>(this, id, pattern, options,
                                              std::move(callback));
  active_[id] = exec;
  C().submitted->Increment();
  exec->Start();
}

bool QueryClient::HandleApp(const AppRequest& request, NodeIndex from) {
  const auto* list =
      dynamic_cast<const ReducedListMessage*>(request.inner.get());
  if (list == nullptr) return false;
  auto it = active_.find(list->query_id);
  if (it == active_.end()) return true;  // late message for a finished query
  return it->second->HandleApp(request, from);
}

void QueryClient::Finish(uint64_t query_id) { active_.erase(query_id); }

// ---------------------------------------------------------------------------
// QueryExecutor

QueryExecutor::QueryExecutor(QueryClient* client, uint64_t query_id,
                             TreePattern pattern, QueryOptions options,
                             QueryClient::Callback callback)
    : client_(client),
      peer_(client->peer()),
      query_id_(query_id),
      pattern_(std::move(pattern)),
      options_(options),
      callback_(std::move(callback)),
      join_(pattern_) {
  stream_closed_.assign(pattern_.size(), false);
  metrics_.submit_time = peer_->network()->Now();
}

void QueryExecutor::Start() {
  if (pattern_.HasWildcard()) {
    // Bare wildcard nodes make the index query imprecise; the distributed
    // engine does not support them.
    KADOP_LOG_INFO("query %llu failed: wildcard pattern",
                   static_cast<unsigned long long>(query_id_));
    Finish(false);
    return;
  }
  metrics_.effective_strategy = options_.strategy;
  auto& tracer = obs::Tracer::Default();
  // Root of a fresh trace: the trace id comes from the tracer's sequence
  // counter, and every remote span this query causes (directory serves,
  // posting serves, holder joins) parents back here via the wire-propagated
  // context.
  span_ = tracer.BeginRoot("query", peer_->node());
  tracer.Annotate(span_, "strategy",
                  std::string(QueryStrategyName(options_.strategy)));
  obs::ScopedTraceContext scope(tracer.ContextFor(span_));
  ArmTimeout();
  Run(options_.strategy);
}

void QueryExecutor::Run(QueryStrategy strategy) {
  switch (strategy) {
    case QueryStrategy::kBaseline:
      StartBaseline();
      break;
    case QueryStrategy::kDppJoin:
      // Same directory round and block filtering as kDpp;
      // OnDppDirectoriesReady branches into task planning instead of
      // fetches.
      dpp_join_mode_ = true;
      [[fallthrough]];
    case QueryStrategy::kDpp:
      FetchDirectories([this]() { OnDppDirectoriesReady(); });
      break;
    case QueryStrategy::kAuto:
      FetchDirectories([this]() {
        metrics_.effective_strategy = plan_->pick;
        Run(plan_->pick);
      });
      break;
    case QueryStrategy::kView:
      StartView();
      break;
    case QueryStrategy::kAbReducer:
      StartReducer(ReduceMode::kAb);
      break;
    case QueryStrategy::kDbReducer:
      StartReducer(ReduceMode::kDb);
      break;
    case QueryStrategy::kBloomReducer:
      StartReducer(ReduceMode::kBloom);
      break;
    case QueryStrategy::kSubQueryReducer:
      FetchDirectories([this]() { OnTermCountsReady(); });
      break;
  }
}

void QueryExecutor::ArmTimeout() {
  if (options_.timeout_s <= 0) return;
  auto self = shared_from_this();
  peer_->network()->scheduler()->After(options_.timeout_s, [self]() {
    if (self->finished_) return;
    self->join_.CloseAll();
    self->AdvanceJoin();
    self->Finish(false);
  });
}

// -- Baseline ---------------------------------------------------------------

void QueryExecutor::FetchStream(size_t node, bool count_blocks) {
  auto self = shared_from_this();
  GetSpec spec;
  spec.key = pattern_.node(node).TermKey();
  spec.pipelined = options_.pipelined;
  spec.block_postings = options_.block_postings;
  spec.retry = options_.fetch_retry;
  spec.owner_hint = TermOwner(node);
  peer_->GetBlocks(spec, [self, node, count_blocks](PostingList block,
                                                    bool last, bool complete) {
    if (self->finished_) return;
    self->RecordTransfer(block);
    self->metrics_.full_postings += block.size();
    if (count_blocks) self->metrics_.blocks_fetched++;
    if (!block.empty()) self->join_.Append(node, std::move(block));
    if (last) {
      if (!complete) {
        self->metrics_.complete = false;
        if (self->options_.fetch_retry.enabled()) {
          self->metrics_.degraded = true;
        }
      }
      self->CloseStream(node);
    }
    self->AdvanceJoin();
    self->MaybeFinishStreams();
  });
}

size_t QueryExecutor::RecordTransfer(const PostingList& postings) {
  // The pure size function: the ratio counters were already bumped when
  // the carrying payload was encoded.
  const size_t wire = index::codec::EncodedBytes(postings);
  metrics_.postings_received += postings.size();
  metrics_.posting_bytes += index::codec::RawBytes(postings);
  metrics_.posting_wire_bytes += wire;
  C().postings_received->Increment(postings.size());
  C().posting_bytes->Increment(index::codec::RawBytes(postings));
  C().posting_wire_bytes->Increment(wire);
  return wire;
}

void QueryExecutor::StartBaseline() {
  auto& tracer = obs::Tracer::Default();
  phase_span_ = tracer.Begin("query.fetch", span_);
  obs::ScopedTraceContext scope(tracer.ContextFor(phase_span_));
  for (size_t node = 0; node < pattern_.size(); ++node) {
    FetchStream(node, /*count_blocks=*/true);
  }
}

// -- DPP --------------------------------------------------------------------

std::shared_ptr<const std::vector<TermDirectory>> FetchTermDirectories(
    dht::DhtPeer* peer, const TreePattern& pattern,
    const dht::RetryPolicy& retry,
    std::function<void(const std::vector<TermDirectory>&)> done) {
  // Shared: a reply that never comes leaves its callback registered past
  // any caller's wait.
  auto dirs = std::make_shared<std::vector<TermDirectory>>(pattern.size());
  auto pending = std::make_shared<size_t>(pattern.size());
  for (size_t node = 0; node < pattern.size(); ++node) {
    index::DppManager::FetchDirectory(
        peer, pattern.node(node).TermKey(),
        [dirs, pending, done, node](Status st,
                                    std::vector<index::DppBlockInfo> blocks) {
          (*dirs)[node] = {true, std::move(st), std::move(blocks)};
          if (--*pending == 0 && done) done(*dirs);
        },
        retry);
  }
  return dirs;
}

QueryPlan PlanQuery(const TreePattern& pattern,
                    const std::vector<TermDirectory>& directories,
                    const std::optional<ViewCatalog::Rewrite>& view_rewrite,
                    const QueryOptions& options, sim::NodeIndex at) {
  QueryPlan plan;
  std::vector<std::vector<index::DppBlockInfo>> blocks;
  for (size_t node = 0; node < pattern.size(); ++node) {
    const std::vector<index::DppBlockInfo>& dir = directories[node].blocks;
    const std::string term_key = pattern.node(node).TermKey();
    plan.term_counts.push_back(index::DirectoryCount(dir));
    plan.overflow.push_back(index::OverflowCount(dir, term_key));
    // The term owner answered for block 0 under the term key.
    std::optional<sim::NodeIndex>& owner = plan.term_owners.emplace_back();
    for (const index::DppBlockInfo& b : dir) {
      if (b.key == term_key) owner = b.holder;
    }
    blocks.push_back(dir);
  }
  if (view_rewrite.has_value()) {
    plan.view = PriceViewRewrite(*view_rewrite, plan.term_counts);
  }
  plan.costs = EstimateStrategyCosts(pattern, plan.term_counts, options,
                                     plan.view, plan.overflow);
  plan.pick = PickStrategy(plan.costs, options.objective);
  plan.sub_query_path = SubQueryPath(pattern, plan.term_counts);
  plan.selection = SelectDppBlocks(std::move(blocks));
  if (plan.selection.viable) {
    plan.tasks = PlanJoinTasks(plan.selection.blocks, plan.selection.window);
  }
  for (JoinTaskPlan& task : plan.tasks) {
    task.pushed =
        PushedInputs(task.inputs, task.home_node, task.home_block, at);
  }
  return plan;
}

void QueryExecutor::FetchDirectories(std::function<void()> then) {
  // kAuto's round (reached directly or through a kView fallback) already
  // holds what every later plan needs.
  if (plan_.has_value()) {
    then();
    return;
  }
  auto self = shared_from_this();
  auto& tracer = obs::Tracer::Default();
  route_span_ = tracer.Begin("query.route.directory", span_);
  obs::ScopedTraceContext scope(tracer.ContextFor(route_span_));
  FetchTermDirectories(
      peer_, pattern_, options_.fetch_retry,
      [self, then = std::move(then)](
          const std::vector<TermDirectory>& directories) {
        if (self->finished_) return;
        // A directory owner unreachable within the retry budget.
        const bool lost =
            std::any_of(directories.begin(), directories.end(),
                        [](const TermDirectory& d) { return !d.status.ok(); });
        ViewCatalog* catalog = self->client_->view_catalog();
        if (!lost && self->options_.strategy == QueryStrategy::kAuto &&
            catalog != nullptr) {
          // A servable rewrite makes kView a priced candidate, with the
          // extent cardinality from the catalog and the residual cost from
          // the directory counts. An empty catalog answers at once.
          self->view_rewrite_ =
              catalog->FindRewrite(self->pattern_, self->peer_);
        }
        self->plan_ = PlanQuery(self->pattern_, directories,
                                self->view_rewrite_, self->options_,
                                self->peer_->node());
        self->AnnotateTermCounts();
        EndSpan(self->route_span_);
        if (lost) {
          // Every plan starts at the term owners, so none can reach the
          // lost term's postings: finish with the sound (empty) subset
          // instead of dispatching work that may never be answered.
          self->metrics_.degraded = true;
          self->Finish(false);
          return;
        }
        then();
      });
}

std::optional<dht::OwnerHint> QueryExecutor::TermOwner(size_t node) const {
  if (plan_.has_value()) return plan_->term_owners[node];
  return peer_->KnownOwner(pattern_.node(node).TermKey());
}

void QueryExecutor::AnnotateTermCounts() {
  if (span_ == 0) return;  // tracing off: skip building the string
  std::string counts;
  for (size_t node = 0; node < pattern_.size(); ++node) {
    if (node > 0) counts += ',';
    counts += pattern_.node(node).TermKey() + '=' +
              std::to_string(plan_->term_counts[node]);
  }
  obs::Tracer::Default().Annotate(span_, "term_counts", std::move(counts));
}

void QueryExecutor::OnDppDirectoriesReady() {
  const DppBlockSelection& selection = plan_->selection;
  for (const uint64_t count : plan_->term_counts) {
    metrics_.full_postings += count;
  }
  metrics_.blocks_skipped += selection.skipped;
  C().dpp_blocks_skipped->Increment(selection.skipped);
  if (!selection.viable) {
    for (size_t node = 0; node < pattern_.size(); ++node) CloseStream(node);
    AdvanceJoin();
    Finish(metrics_.complete);
    return;
  }

  // Phase span for the remainder of the query: block fetches (kDpp), or
  // the dispatch/result round of holder-side joins (kDppJoin). Ended by
  // Finish().
  auto& tracer = obs::Tracer::Default();
  phase_span_ = tracer.Begin(
      dpp_join_mode_ ? "query.join.dispatch" : "query.fetch", span_);
  obs::ScopedTraceContext phase_scope(tracer.ContextFor(phase_span_));

  if (dpp_join_mode_) {  // no query-side fetches in join mode
    join_tasks_.resize(plan_->tasks.size());
    metrics_.join_tasks = join_tasks_.size();
    C().join_tasks->Increment(join_tasks_.size());
    tracer.Annotate(span_, "join_tasks", std::to_string(join_tasks_.size()));
    if (join_tasks_.empty()) {
      Finish(metrics_.complete);
      return;
    }
    // Every task leaves before any push request, so the pushes never queue
    // a dispatch behind them on this peer's uplink.
    for (size_t t = 0; t < join_tasks_.size(); ++t) DispatchJoinTask(t);
    for (size_t t = 0; t < join_tasks_.size(); ++t) PushJoinInputs(t);
    return;
  }
  dpp_.resize(pattern_.size());
  for (size_t node = 0; node < pattern_.size(); ++node) {
    DppNodeState& st = dpp_[node];
    const std::vector<index::DppBlockInfo>& blocks = selection.blocks[node];
    // Overlapping conditions (random-split ablation) cannot be streamed in
    // order: collect fully and merge before feeding the join.
    for (size_t i = 1; i < blocks.size(); ++i) {
      if (blocks[i - 1].cond.Intersects(blocks[i].cond)) {
        st.requires_merge = true;
      }
    }
    if (blocks.empty()) {
      CloseStream(node);
    } else {
      PumpDppFetches(node);
    }
  }
  AdvanceJoin();
  MaybeFinishStreams();
}

DppBlockSelection SelectDppBlocks(
    std::vector<std::vector<index::DppBlockInfo>> directories) {
  DppBlockSelection out;
  // The [min, max] document-interval filter of Section 4.2: all answers lie
  // between the largest per-term minimum and the smallest per-term maximum.
  DocId min_doc{0, 0};
  DocId max_doc{UINT32_MAX, UINT32_MAX};
  bool empty = false;
  for (const auto& blocks : directories) {
    if (blocks.empty()) {
      empty = true;
      continue;
    }
    const DocId lo = blocks.front().cond.MinDoc();
    DocId hi = blocks.back().cond.MaxDoc();
    // With random (unordered) splits conditions overlap; take true extremes.
    for (const auto& b : blocks) {
      if (hi < b.cond.MaxDoc()) hi = b.cond.MaxDoc();
    }
    if (min_doc < lo) min_doc = lo;
    if (hi < max_doc) max_doc = hi;
  }
  if (empty || max_doc < min_doc) {
    // Some term has no postings, or the document intervals are disjoint:
    // the index query is provably empty without fetching anything.
    for (const auto& blocks : directories) out.skipped += blocks.size();
    return out;
  }
  out.viable = true;
  out.window.lo = Posting{min_doc.peer, min_doc.doc, {0, 0, 0}};
  out.window.hi =
      Posting{max_doc.peer, max_doc.doc, {UINT32_MAX, UINT32_MAX, UINT16_MAX}};

  // Type-aware filtering (Section 4.1): a document type can only produce
  // answers if every query term has postings of that type, so a block none
  // of whose types occurs under every term is skipped. Blocks with no type
  // info (e.g. `rev:` entries) disable the filter conservatively.
  std::map<std::string, size_t> terms_with_type;
  bool types_known = true;
  for (const auto& blocks : directories) {
    std::set<std::string> term_types;
    for (const auto& b : blocks) {
      types_known = types_known && !b.types.empty();
      term_types.insert(b.types.begin(), b.types.end());
    }
    for (const auto& t : term_types) terms_with_type[t]++;
  }

  out.blocks.resize(directories.size());
  for (size_t node = 0; node < directories.size(); ++node) {
    for (auto& b : directories[node]) {
      bool type_viable = !types_known;
      for (const auto& t : b.types) {
        type_viable = type_viable || terms_with_type[t] == directories.size();
      }
      if (type_viable && b.cond.Intersects(out.window)) {
        out.blocks[node].push_back(std::move(b));
      } else {
        out.skipped++;
      }
    }
  }
  return out;
}

// -- Distributed block-level twig join (kDppJoin) ---------------------------

namespace {

/// A document's place in the (peer, doc) order as one number.
uint64_t LinearDoc(const DocId& d) {
  return (static_cast<uint64_t>(d.peer) << 32) | d.doc;
}

}  // namespace

double InWindowPostings(const index::DppBlockInfo& block,
                        const index::Condition& window) {
  if (!block.cond.Intersects(window)) return 0;
  const DocId lo = std::max(block.cond.MinDoc(), window.MinDoc());
  const DocId hi = std::min(block.cond.MaxDoc(), window.MaxDoc());
  const double covered =
      static_cast<double>(LinearDoc(hi) - LinearDoc(lo)) + 1;
  const double whole = static_cast<double>(LinearDoc(block.cond.MaxDoc()) -
                                           LinearDoc(block.cond.MinDoc())) +
                       1;
  return static_cast<double>(block.count) * covered / whole;
}

std::vector<JoinTaskPlan> PlanJoinTasks(
    const std::vector<std::vector<index::DppBlockInfo>>& blocks,
    const index::Condition& window) {
  // Cut the document window wherever any block ends: within one interval
  // every term is covered by a fixed set of blocks, so the join decomposes
  // into at most sum(m_i) independent tasks (Section 4.3). The window
  // maximum is always a cut so the intervals cover the window even when
  // type filtering dropped the block that defined it.
  const DocId window_max = window.MaxDoc();
  std::set<DocId> cuts;
  cuts.insert(window_max);
  for (const auto& per_node : blocks) {
    for (const auto& b : per_node) {
      const DocId end = b.cond.MaxDoc();
      cuts.insert(end < window_max ? end : window_max);
    }
  }

  std::vector<JoinTaskPlan> tasks;
  Posting lo = window.lo;
  for (const DocId& cut : cuts) {
    JoinTaskPlan task;
    task.window.lo = lo;
    task.window.hi = Posting{cut.peer, cut.doc,
                             {UINT32_MAX, UINT32_MAX, UINT16_MAX}};
    lo = cut.doc < UINT32_MAX
             ? Posting{cut.peer, cut.doc + 1, {0, 0, 0}}
             : Posting{cut.peer + 1, 0, {0, 0, 0}};
    // A task can only produce answers if every term has a block there.
    bool viable = true;
    bool homed = false;
    task.inputs.resize(blocks.size());
    for (size_t node = 0; node < blocks.size() && viable; ++node) {
      for (const auto& b : blocks[node]) {
        if (!b.cond.Intersects(task.window)) continue;
        // Home = the block expected to hold the most of this window (ties:
        // first seen), so the window's heaviest input never moves.
        const double postings = InWindowPostings(b, task.window);
        if (!homed || postings > task.home_postings) {
          homed = true;
          task.home_postings = postings;
          task.home_node = node;
          task.home_block = task.inputs[node].size();
        }
        task.inputs[node].push_back(b);
      }
      if (task.inputs[node].empty()) viable = false;
    }
    if (viable) tasks.push_back(std::move(task));
  }
  return tasks;
}

void QueryExecutor::DispatchJoinTask(size_t task) {
  auto self = shared_from_this();
  JoinTask& jt = join_tasks_[task];
  const JoinTaskPlan& plan = plan_->tasks[task];
  uint32_t pushes = 0;
  for (const auto& per_node : plan.pushed) {
    pushes += static_cast<uint32_t>(
        std::count(per_node.begin(), per_node.end(), true));
  }
  if (pushes > 0) jt.delivery_id = peer_->ReserveRequestIds(pushes);
  auto req = std::make_shared<index::BlockJoinRequest>();
  req->delivery_id = jt.delivery_id;
  req->task = static_cast<uint32_t>(task);
  req->nodes.reserve(pattern_.size());
  for (size_t node = 0; node < pattern_.size(); ++node) {
    index::BlockJoinPatternNode pn;
    pn.parent = pattern_.node(node).parent;
    pn.axis = pattern_.node(node).axis == Axis::kChild ? 0 : 1;
    req->nodes.push_back(pn);
  }
  req->inputs = plan.inputs;
  req->window = plan.window;
  req->home_node = plan.home_node;
  req->home_block = plan.home_block;
  req->fetch_retry = options_.fetch_retry;
  const index::DppBlockInfo& home =
      plan.inputs[plan.home_node][plan.home_block];
  peer_->RouteApp(
      home.key, std::move(req), TrafficCategory::kQuery,
      [self, task](sim::PayloadPtr inner) {
        if (self->finished_) return;
        const auto* msg =
            dynamic_cast<const index::JoinResultMessage*>(inner.get());
        if (msg == nullptr) {
          // Routing retry budget exhausted (holder down) or a foreign
          // reply: this task falls back to a query-side join.
          self->RunLocalJoinFallback(task);
          return;
        }
        self->OnJoinTaskResult(task, *msg);
      },
      options_.fetch_retry, home.holder);
}

void QueryExecutor::PushJoinInputs(size_t task) {
  const JoinTaskPlan& plan = plan_->tasks[task];
  const index::DppBlockInfo& home =
      plan.inputs[plan.home_node][plan.home_block];
  dht::RequestId next = join_tasks_[task].delivery_id;
  for (size_t node = 0; node < plan.inputs.size(); ++node) {
    for (size_t idx = 0; idx < plan.inputs[node].size(); ++idx) {
      if (!plan.pushed[node][idx]) continue;
      peer_->PushGet(BlockPullSpec(plan.inputs[node][idx], plan.window,
                                   options_.fetch_retry),
                     *home.holder, next++);
    }
  }
}

void QueryExecutor::OnJoinTaskResult(size_t task,
                                     const index::JoinResultMessage& msg) {
  // Every reply crossed to this peer, whether or not its answers are used.
  const size_t wire = msg.SizeBytes();
  metrics_.result_wire_bytes += wire;
  C().result_wire_bytes->Increment(wire);
  JoinTask& jt = join_tasks_[task];
  if (jt.done) return;  // a late remote result after the local fallback won
  std::vector<Answer> answers;
  std::vector<DocId> matched_docs;
  if (!msg.complete ||
      !index::codec::DecodeAnswers(msg.answers.data(), msg.answers.size(),
                                   pattern_.size(), &matched_docs, &answers)
           .ok()) {
    // A NACK: the holder could not verify its inputs — typically it
    // inherited the real holder's key range after a crash and found
    // nothing under the home block. A reply that fails to decode is
    // treated the same. Either way the task is redone here, where the
    // fallback's verified fetches can out-wait the outage.
    RunLocalJoinFallback(task);
    return;
  }
  const size_t elements = answers.size() * pattern_.size();
  metrics_.join_remote++;
  metrics_.join_result_postings += elements;
  metrics_.join_input_wire_bytes += msg.pulled_wire_bytes;
  metrics_.blocks_fetched += msg.blocks_fetched;
  C().join_remote->Increment();
  C().join_result_postings->Increment(elements);
  C().dpp_blocks_fetched->Increment(msg.blocks_fetched);
  if (msg.degraded) metrics_.degraded = true;
  FinishJoinTask(task, std::move(answers), std::move(matched_docs));
}

void QueryExecutor::RunLocalJoinFallback(size_t task) {
  JoinTask& jt = join_tasks_[task];
  if (jt.done) return;
  metrics_.join_local_fallback++;
  C().join_local_fallback->Increment();
  // Fault tolerance changed the evaluation even if the answers end up
  // complete: the join ran here, with the blocks shipped after all.
  metrics_.degraded = true;

  auto self = shared_from_this();
  // Unlike the holder, the fallback re-pulls a short pull within the retry
  // budget: the crashed holder may come back and reclaim its range.
  auto account = [self](const index::DppBlockInfo& /*block*/) {
    return [self](const PostingList& got, bool suspect) {
      if (suspect) {
        self->metrics_.complete = false;
        self->metrics_.degraded = true;
      }
      // These postings really crossed to the query peer: full ingress
      // accounting, exactly like a kDpp block fetch.
      self->RecordTransfer(got);
      self->metrics_.blocks_fetched++;
      C().dpp_blocks_fetched->Increment();
    };
  };
  const JoinTaskPlan& plan = plan_->tasks[task];
  PullAndJoin(peer_, pattern_, plan.inputs, plan.window,
              {.retry = options_.fetch_retry,
               .repull = true,
               .live = [self]() { return !self->finished_; }},
              account, [self, task](const TwigJoin& join) {
                self->FinishJoinTask(task, join.answers(),
                                     join.matched_docs());
              });
}

void QueryExecutor::FinishJoinTask(size_t task, std::vector<Answer> answers,
                                   std::vector<DocId> matched_docs) {
  JoinTask& jt = join_tasks_[task];
  if (jt.done) return;
  jt.done = true;
  jt.answers = std::move(answers);
  jt.matched_docs = std::move(matched_docs);
  DeliverReadyJoinTasks();
}

void QueryExecutor::DeliverReadyJoinTasks() {
  if (finished_) return;
  while (join_next_to_deliver_ < join_tasks_.size() &&
         join_tasks_[join_next_to_deliver_].done) {
    JoinTask& jt = join_tasks_[join_next_to_deliver_];
    if (!jt.answers.empty() && metrics_.first_answer_time < 0) {
      metrics_.first_answer_time = peer_->network()->Now();
      obs::Tracer::Default().Event("query.first_answer", span_);
    }
    merged_answers_.insert(merged_answers_.end(),
                           std::make_move_iterator(jt.answers.begin()),
                           std::make_move_iterator(jt.answers.end()));
    merged_docs_.insert(merged_docs_.end(), jt.matched_docs.begin(),
                        jt.matched_docs.end());
    jt.answers.clear();
    jt.matched_docs.clear();
    join_next_to_deliver_++;
  }
  if (join_next_to_deliver_ == join_tasks_.size()) {
    Finish(metrics_.complete);
  }
}

void QueryExecutor::PumpDppFetches(size_t node) {
  auto self = shared_from_this();
  DppNodeState& st = dpp_[node];
  const std::vector<index::DppBlockInfo>& blocks =
      plan_->selection.blocks[node];
  while (st.outstanding < kDppParallelism &&
         st.next_to_issue < blocks.size()) {
    const size_t idx = st.next_to_issue++;
    st.outstanding++;
    PullBlock(
        peer_, blocks[idx], plan_->selection.window,
        {.retry = options_.fetch_retry,
         .repull = false,
         .live = [self]() { return !self->finished_; }},
        [self, node, idx](PostingList postings, bool complete, bool suspect) {
          // Without a retry policy only a timeout marks the query
          // incomplete. With one, a short pull does too: the data died
          // with its holder. The answers still computable are a sound
          // subset, so deliver what arrived but say so.
          const bool retry = self->options_.fetch_retry.enabled();
          const bool sound = retry ? !suspect : complete;
          if (!sound) {
            self->metrics_.complete = false;
            if (retry) self->metrics_.degraded = true;
          }
          self->RecordTransfer(postings);
          self->metrics_.blocks_fetched++;
          C().dpp_blocks_fetched->Increment();
          self->OnDppBlock(node, idx, std::move(postings));
        });
  }
  if (st.outstanding > 0) {
    C().dpp_outstanding->Observe(static_cast<double>(st.outstanding));
  }
}

void QueryExecutor::OnDppBlock(size_t node, size_t idx, PostingList postings) {
  DppNodeState& st = dpp_[node];
  st.ready[idx] = std::move(postings);
  st.outstanding--;
  DeliverReadyDppBlocks(node);
  PumpDppFetches(node);
  AdvanceJoin();
  MaybeFinishStreams();
}

void QueryExecutor::DeliverReadyDppBlocks(size_t node) {
  DppNodeState& st = dpp_[node];
  const size_t blocks = plan_->selection.blocks[node].size();
  if (st.requires_merge) {
    // Wait for everything, then merge-distinct once (each block is
    // already sorted; overlap is across blocks only).
    if (st.ready.size() < blocks) return;
    std::vector<PostingList> lists;
    lists.reserve(st.ready.size());
    for (auto& [idx, postings] : st.ready) lists.push_back(std::move(postings));
    st.ready.clear();
    join_.Append(node, MergeDistinct(std::move(lists)));
    st.next_to_deliver = blocks;
    CloseStream(node);
    return;
  }
  while (true) {
    auto it = st.ready.find(st.next_to_deliver);
    if (it == st.ready.end()) break;
    join_.Append(node, std::move(it->second));
    st.ready.erase(it);
    st.next_to_deliver++;
  }
  if (st.next_to_deliver == blocks && !stream_closed_[node]) {
    CloseStream(node);
  }
}

// -- Bloom reducers ---------------------------------------------------------

void QueryExecutor::StartReducer(ReduceMode mode) {
  std::vector<ReducePlanNode> nodes;
  for (size_t node = 0; node < pattern_.size(); ++node) {
    ReducePlanNode pn;
    pn.node = static_cast<int>(node);
    pn.term_key = pattern_.node(node).TermKey();
    pn.parent = pattern_.node(node).parent;
    pn.children = pattern_.node(node).children;
    if (const auto owner = TermOwner(node)) pn.owner = owner->node;
    nodes.push_back(std::move(pn));
  }
  LaunchReducePlan(mode, std::move(nodes));
}

void QueryExecutor::LaunchReducePlan(ReduceMode mode,
                                     std::vector<ReducePlanNode> nodes) {
  ReducePlan plan;
  plan.query_id = query_id_;
  plan.query_peer = peer_->node();
  plan.mode = mode;
  plan.ab_params = options_.ab_params;
  plan.db_params = options_.db_params;
  plan.nodes = std::move(nodes);
  reduced_lists_pending_ += plan.nodes.size();
  // Phase span for the owners' loads and filter rounds (and, for the
  // sub-query plan, its off-path fetches); Finish closes it.
  auto& tracer = obs::Tracer::Default();
  phase_span_ = tracer.Begin("query.fetch", span_);
  obs::ScopedTraceContext scope(tracer.ContextFor(phase_span_));
  for (const ReducePlanNode& pn : plan.nodes) {
    auto start = std::make_shared<ReduceStart>();
    start->plan = plan;
    start->node = pn.node;
    // TermOwner rather than pn.owner: it also says whether the hint came
    // from this peer's owner cache.
    peer_->RouteApp(pn.term_key, std::move(start), TrafficCategory::kQuery,
                    nullptr, {}, TermOwner(static_cast<size_t>(pn.node)));
  }
}

bool QueryExecutor::HandleApp(const AppRequest& request, NodeIndex /*from*/) {
  const auto* list =
      dynamic_cast<const ReducedListMessage*>(request.inner.get());
  if (list == nullptr) return false;
  if (finished_) return true;
  const size_t node = static_cast<size_t>(list->node);
  KADOP_CHECK(node < pattern_.size(), "bad node in reduced list");
  KADOP_CHECK(!stream_closed_[node], "duplicate reduced list");
  const PostingList postings = index::codec::DecodePayload(list->postings);
  RecordTransfer(postings);
  if (!list->complete) {
    // The owner's load ran out of its retry budget: the list is short.
    metrics_.complete = false;
    metrics_.degraded = true;
  }
  metrics_.full_postings += list->full_count;
  metrics_.ab_filter_bytes += list->ab_filter_bytes;
  metrics_.db_filter_bytes += list->db_filter_bytes;
  C().ab_filter_bytes->Increment(list->ab_filter_bytes);
  C().db_filter_bytes->Increment(list->db_filter_bytes);
  if (!postings.empty()) join_.Append(node, postings);
  CloseStream(node);
  KADOP_CHECK(reduced_lists_pending_ > 0, "unexpected reduced list");
  reduced_lists_pending_--;
  AdvanceJoin();
  MaybeFinishStreams();
  return true;
}

// -- Sub-query reducer -------------------------------------------------------

ViewPricing PriceViewRewrite(const ViewCatalog::Rewrite& rewrite,
                             const std::vector<uint64_t>& term_counts) {
  ViewPricing pricing;
  pricing.extent_postings = rewrite.extent_postings;
  for (size_t q = 0; q < term_counts.size(); ++q) {
    if (!rewrite.match.Covers(static_cast<int>(q))) {
      pricing.residual_postings += term_counts[q];
    }
  }
  return pricing;
}

std::vector<int> SubQueryPath(const TreePattern& pattern,
                              const std::vector<uint64_t>& term_counts) {
  size_t best = 0;
  for (size_t node = 1; node < term_counts.size(); ++node) {
    if (term_counts[node] < term_counts[best]) best = node;
  }
  std::vector<int> path;
  for (int q = static_cast<int>(best); q >= 0; q = pattern.node(q).parent) {
    path.push_back(q);
  }
  return path;
}

std::vector<StrategyCostEstimate> EstimateStrategyCosts(
    const TreePattern& pattern, const std::vector<uint64_t>& term_counts,
    const QueryOptions& options, std::optional<ViewPricing> view,
    const std::vector<uint64_t>& overflow) {
  // Per-posting transfer estimate: postings always ship delta-coded.
  const double kWire = index::codec::EstimatedWirePostingBytes();
  // Approximate per-posting DBF cost: |containers| inserts at ~10 bits.
  constexpr double kDbfBytesPerPosting = 15.0;

  double total = 0;
  double max_count = 0;
  for (size_t i = 0; i < term_counts.size(); ++i) {
    total += static_cast<double>(term_counts[i]);
    max_count = std::max(max_count, static_cast<double>(term_counts[i]));
  }
  // Answer-cardinality heuristic: the scarcest stream's count. It is not a
  // bound, since one posting can take part in many answers (long_list's
  // //article//author returns 80638 answers from 32254 article postings).
  // It stands wherever a strategy's cost depends on how much survives the
  // join rather than on what ships.
  const double est_matches =
      static_cast<double>(EstimateTwigResults(pattern, term_counts));

  std::vector<StrategyCostEstimate> costs;
  {
    StrategyCostEstimate baseline;
    baseline.strategy = QueryStrategy::kBaseline;
    baseline.bytes = total * kWire;
    baseline.bottleneck_bytes = max_count * kWire;  // one owner's uplink
    costs.push_back(baseline);
  }
  if (options.dpp_available) {
    StrategyCostEstimate dpp;
    dpp.strategy = QueryStrategy::kDpp;
    dpp.bytes = total * kWire;
    // Parallel block fetch spreads the longest list across holders.
    dpp.bottleneck_bytes =
        max_count * kWire / static_cast<double>(kDppParallelism / 2);
    costs.push_back(dpp);
    if (options.dpp_join_available) {
      // Distributed block join: each task is joined at the holder of the
      // block with the most postings in its window (PlanJoinTasks), so the
      // heaviest input of every window stays put. Priced as if the largest
      // list never moves: the rest ship holder-to-holder with the same
      // block parallelism, and only answer tuples come back.
      StrategyCostEstimate djoin;
      djoin.strategy = QueryStrategy::kDppJoin;
      // Holder-to-holder input shipping plus the result tuples coming
      // back, priced at the answer codec's per-answer estimate. The egress
      // term is what makes kDppJoin lose to kDpp on low-selectivity
      // patterns — shipping every answer tuple can cost more than
      // shipping the inputs.
      djoin.bytes =
          (total - max_count) * kWire +
          est_matches *
              index::codec::EstimatedWireAnswerBytes(pattern.size());
      djoin.bottleneck_bytes =
          (total - max_count) * kWire /
          static_cast<double>(kDppParallelism / 2);
      costs.push_back(djoin);
    }
  }
  // The twig estimate is the most selective term's count — the same
  // quantity the sub-query heuristic keys on.
  const double min_count = est_matches;
  if (pattern.size() > 1 &&
      min_count * kAutoSelectivityRatio < max_count) {
    // DB-reduce the path from the most selective term to the root: path
    // lists shrink to ~min_count; off-path lists ship entire.
    const std::vector<int> path = SubQueryPath(pattern, term_counts);
    const size_t path_len = path.size();
    double off_path = 0;
    std::vector<bool> on_path(pattern.size(), false);
    for (const int q : path) on_path[static_cast<size_t>(q)] = true;
    for (size_t i = 0; i < term_counts.size(); ++i) {
      if (!on_path[i]) off_path += static_cast<double>(term_counts[i]);
    }
    StrategyCostEstimate sub;
    sub.strategy = QueryStrategy::kSubQueryReducer;
    sub.bytes = (off_path + min_count * static_cast<double>(path_len)) *
                    kWire +
                min_count * kDbfBytesPerPosting *
                    static_cast<double>(path_len);
    sub.bottleneck_bytes = std::max(off_path > 0 ? off_path * kWire /
                                        static_cast<double>(
                                            term_counts.size())
                                                 : 0.0,
                                    min_count * kWire);
    // Off-path long lists still ship entire from single owners.
    for (size_t i = 0; i < term_counts.size(); ++i) {
      if (!on_path[i]) {
        sub.bottleneck_bytes = std::max(
            sub.bottleneck_bytes, static_cast<double>(term_counts[i]) *
                                      kWire);
      }
    }
    // Each on-path owner loads its whole list before it reduces: the DPP
    // get proxy first pulls a partitioned term's overflow blocks to the
    // owner, all at once. The owners gather side by side, so the largest
    // gather delays the reduction, spread like a kDpp block fetch.
    KADOP_CHECK(overflow.empty() || overflow.size() == term_counts.size(),
                "one overflow count per term");
    double gathered = 0;
    double max_gather = 0;
    for (size_t i = 0; i < overflow.size(); ++i) {
      if (!on_path[i]) continue;
      gathered += static_cast<double>(overflow[i]);
      max_gather = std::max(max_gather, static_cast<double>(overflow[i]));
    }
    sub.bytes += gathered * kWire;
    sub.bottleneck_bytes +=
        max_gather * kWire / static_cast<double>(kDppParallelism / 2);
    costs.push_back(sub);
  }
  if (view.has_value()) {
    // Serving from a materialized view ships the extent columns plus the
    // residual terms' base lists — nothing else. Appended last so exact
    // cost ties (strict-< best pick) keep preferring the base strategies,
    // leaving view-less plans byte-identical to the pre-view planner.
    const double extent = static_cast<double>(view->extent_postings);
    const double residual = static_cast<double>(view->residual_postings);
    StrategyCostEstimate served;
    served.strategy = QueryStrategy::kView;
    served.bytes = (extent + residual) * kWire;
    // Columns live under distinct keys and fetch in parallel; a residual
    // term's full list ships from its single owner.
    served.bottleneck_bytes =
        std::max(extent * kWire / static_cast<double>(kDppParallelism / 2),
                 residual * kWire);
    costs.push_back(served);
  }
  return costs;
}

QueryStrategy PickStrategy(const std::vector<StrategyCostEstimate>& costs,
                           QueryOptions::Objective objective) {
  KADOP_CHECK(!costs.empty(), "no viable strategy");
  const bool traffic = objective == QueryOptions::Objective::kTraffic;
  auto key = [traffic](const StrategyCostEstimate& c) {
    return traffic ? std::pair(c.bytes, c.bottleneck_bytes)
                   : std::pair(c.bottleneck_bytes, c.bytes);
  };
  const StrategyCostEstimate* best = &costs[0];
  for (const StrategyCostEstimate& c : costs) {
    if (key(c) < key(*best)) best = &c;
  }
  return best->strategy;
}

void QueryExecutor::OnTermCountsReady() {
  // DB-reduce the sub-query path; fetch everything else entire.
  const std::vector<int>& path = plan_->sub_query_path;

  std::vector<ReducePlanNode> nodes;
  for (size_t i = 0; i < path.size(); ++i) {
    ReducePlanNode pn;
    pn.node = path[i];
    pn.term_key = pattern_.node(path[i]).TermKey();
    if (const auto owner = TermOwner(static_cast<size_t>(path[i]))) {
      pn.owner = owner->node;
    }
    // The path is leaf -> root; within the plan each node's parent is the
    // next path entry and its child the previous one.
    pn.parent = i + 1 < path.size() ? path[i + 1] : -1;
    if (i > 0) pn.children.push_back(path[i - 1]);
    nodes.push_back(std::move(pn));
  }
  LaunchReducePlan(ReduceMode::kDb, std::move(nodes));

  // Remaining nodes: plain full fetches (uncounted in blocks_fetched,
  // which tracks the DPP/baseline block economy only).
  obs::ScopedTraceContext scope(
      obs::Tracer::Default().ContextFor(phase_span_));
  for (size_t node = 0; node < pattern_.size(); ++node) {
    if (std::find(path.begin(), path.end(), static_cast<int>(node)) !=
        path.end()) {
      continue;
    }
    FetchStream(node, /*count_blocks=*/false);
  }
}

// -- Materialized views (kView) ----------------------------------------------

void QueryExecutor::StartView() {
  if (!view_rewrite_.has_value()) {
    // kAuto stashes the rewrite it priced; an explicit kView resolves here.
    if (ViewCatalog* catalog = client_->view_catalog()) {
      view_rewrite_ = catalog->FindRewrite(pattern_, peer_);
    }
  }
  if (!view_rewrite_.has_value()) {
    FallbackFromView();
    return;
  }
  ServeFromView();
}

void QueryExecutor::FallbackFromView() {
  metrics_.view_fallback = true;
  // Fault-tolerance semantics: the requested evaluation changed shape,
  // whether the cause was a crashed column holder, a stale extent, or no
  // servable rewrite at all. The answers are still exact.
  metrics_.degraded = true;
  if (ViewCatalog* catalog = client_->view_catalog()) {
    catalog->CountFallback(view_rewrite_ ? view_rewrite_->name
                                         : std::string());
  }
  EndSpan(phase_span_);
  // Only what the planner may run: a DPP-off network clears
  // dpp_available, and kDppJoin reads DPP blocks too.
  const QueryStrategy fallback =
      options_.dpp_available && options_.dpp_join_available
          ? QueryStrategy::kDppJoin
          : (options_.dpp_available ? QueryStrategy::kDpp
                                    : QueryStrategy::kBaseline);
  metrics_.effective_strategy = fallback;
  obs::Tracer::Default().Annotate(span_, "view_fallback",
                                  std::string(QueryStrategyName(fallback)));
  Run(fallback);
}

void QueryExecutor::ServeFromView() {
  auto self = shared_from_this();
  auto& tracer = obs::Tracer::Default();
  phase_span_ = tracer.Begin("query.view.fetch", span_);
  obs::ScopedTraceContext scope(tracer.ContextFor(phase_span_));
  const ViewCatalog::Rewrite& rw = *view_rewrite_;
  tracer.Annotate(span_, "view", rw.name);
  const size_t arity = rw.def.pattern.size();
  // Pre-flight: buffer every extent column and verify it against the
  // catalog's stored count before anything reaches the join, so a failed
  // verification can still dispatch a clean base-strategy fallback.
  struct ColumnGather {
    std::vector<PostingList> columns;
    uint64_t wire_bytes = 0;
    size_t pending = 0;
    bool verified = true;
  };
  auto gather = std::make_shared<ColumnGather>();
  gather->columns.resize(arity);
  gather->pending = arity;
  // Column keys are not in the query's directory round: the column gets
  // are hinted from the owner cache only.
  for (size_t v = 0; v < arity; ++v) {
    GetSpec spec;
    spec.key = rw.def.ColumnKey(v);
    spec.pipelined = options_.pipelined;
    spec.block_postings = options_.block_postings;
    spec.retry = options_.fetch_retry;
    spec.owner_hint = peer_->KnownOwner(spec.key);
    const uint64_t expected = rw.column_counts[v];
    peer_->GetBlocks(spec, [self, gather, v, expected](
                               PostingList block, bool last, bool complete) {
      if (self->finished_) return;
      // Full ingress accounting: extent postings ship to the query peer
      // like any fetched posting list. They also stand in for the terms'
      // full lists in the normalized-volume denominator (full_postings),
      // which understates the denominator on purpose — the extent is what
      // this strategy would fetch at worst.
      gather->wire_bytes += self->RecordTransfer(block);
      self->metrics_.full_postings += block.size();
      self->metrics_.blocks_fetched++;
      PostingList& column = gather->columns[v];
      column.insert(column.end(), block.begin(), block.end());
      if (!last) return;
      // Directory-count-style verification: a short column (crashed
      // holder's data-less successor, timed-out stream) must not serve.
      if (!complete || column.size() != expected) gather->verified = false;
      if (--gather->pending == 0) {
        self->OnViewColumns(std::move(gather->columns), gather->wire_bytes,
                            gather->verified);
      }
    });
  }
}

void QueryExecutor::OnViewColumns(std::vector<PostingList> columns,
                                  uint64_t wire_bytes, bool verified) {
  if (finished_) return;
  if (!verified) {
    FallbackFromView();
    return;
  }
  const ViewCatalog::Rewrite& rw = *view_rewrite_;
  metrics_.view_hit = true;
  metrics_.view_exact = rw.match.exact;
  metrics_.effective_strategy = QueryStrategy::kView;
  if (ViewCatalog* catalog = client_->view_catalog()) {
    catalog->CountHit(rw.name, rw.match.exact, wire_bytes);
  }
  // Feed each column into the join at its mapped query node. The column
  // join under the (stricter or equal) query pattern re-derives exactly
  // the projected answers: every query answer projects into the extent
  // (containment), and any structurally valid assignment over extent
  // candidates satisfies the query's own axes by the join's checks.
  for (size_t v = 0; v < columns.size(); ++v) {
    const auto q = static_cast<size_t>(rw.match.node_map[v]);
    if (!columns[v].empty()) join_.Append(q, std::move(columns[v]));
    CloseStream(q);
  }
  // Residual predicates: the uncovered query nodes fetch their base term
  // lists through the ordinary stream path and filter via the join.
  for (size_t q = 0; q < pattern_.size(); ++q) {
    if (!rw.match.Covers(static_cast<int>(q))) {
      FetchStream(q, /*count_blocks=*/true);
    }
  }
  AdvanceJoin();
  MaybeFinishStreams();
}

// -- Completion ---------------------------------------------------------------

void QueryExecutor::CloseStream(size_t node) {
  stream_closed_[node] = true;
  join_.Close(node);
}

void QueryExecutor::AdvanceJoin() {
  const size_t produced = join_.Advance();
  if (produced > 0 && metrics_.first_answer_time < 0) {
    metrics_.first_answer_time = peer_->network()->Now();
    obs::Tracer::Default().Event("query.first_answer", span_);
  }
}

void QueryExecutor::MaybeFinishStreams() {
  if (finished_) return;
  for (bool closed : stream_closed_) {
    if (!closed) return;
  }
  Finish(metrics_.complete);
}

void QueryExecutor::Finish(bool complete) {
  if (finished_) return;
  finished_ = true;
  metrics_.complete = complete;
  metrics_.complete_time = peer_->network()->Now();
  QueryResult result;
  if (dpp_join_mode_) {
    result.answers = std::move(merged_answers_);
    result.matched_docs = std::move(merged_docs_);
  } else {
    result.answers = join_.answers();
    result.matched_docs = join_.matched_docs();
  }
  result.metrics = metrics_;
  (complete ? C().completed : C().incomplete)->Increment();
  if (metrics_.degraded) C().degraded->Increment();
  C().response_time_s->Observe(metrics_.ResponseTime());
  if (metrics_.TimeToFirstAnswer() >= 0) {
    C().first_answer_s->Observe(metrics_.TimeToFirstAnswer());
  }
  EndSpan(route_span_);
  EndSpan(phase_span_);
  auto& tracer = obs::Tracer::Default();
  tracer.Annotate(span_, "effective",
                  std::string(QueryStrategyName(metrics_.effective_strategy)));
  tracer.Annotate(span_, "answers", std::to_string(result.answers.size()));
  tracer.Annotate(span_, "complete", complete ? "true" : "false");
  if (metrics_.degraded) tracer.Annotate(span_, "degraded", "true");
  tracer.End(span_);
  QueryClient::Callback cb = std::move(callback_);
  client_->Finish(query_id_);
  if (cb) cb(std::move(result));
}

}  // namespace kadop::query
