#ifndef KADOP_QUERY_EXECUTOR_H_
#define KADOP_QUERY_EXECUTOR_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dht/peer.h"
#include "index/dpp.h"
#include "obs/trace.h"
#include "query/messages.h"
#include "query/tree_pattern.h"
#include "query/twig_join.h"
#include "query/view_manager.h"

namespace kadop::query {

/// Index-query evaluation strategies.
enum class QueryStrategy : uint8_t {
  /// Fetch every term's full posting list with (pipelined) gets.
  kBaseline = 0,
  /// Use the DPP directories: parallel block fetches from the holders,
  /// block skipping and range trimming via the [min, max] document
  /// interval (Section 4.2).
  kDpp = 1,
  kAbReducer = 2,
  kDbReducer = 3,
  kBloomReducer = 4,
  /// DB Reducer applied only to the lowest-selectivity root-to-leaf path;
  /// remaining lists are fetched entire (Section 5.4, fourth strategy).
  kSubQueryReducer = 5,
  /// The optimizer the paper leaves as current work (Section 8): run the
  /// cheapest candidate PlanQuery prices under `QueryOptions::objective`
  /// (QueryPlan::pick), from the one directory round. A DPP plan then reads
  /// the same directories without a second fetch.
  kAuto = 6,
  /// Distributed block-level twig join (Section 4.3): after the directory
  /// round and [min, max] / type-set filtering, partition the document
  /// window into per-interval join tasks and route each to the peer
  /// holding the input block with the most postings in the task's window
  /// (PlanJoinTasks). The other blocks' holders push them to a named
  /// home (PushedInputs); homes join locally and ship back answer tuples
  /// only — the query peer receives results, not posting lists.
  kDppJoin = 7,
  /// Answer from a materialized tree-pattern view (docs/views.md): fetch
  /// the matched view's extent columns, re-join them under the query
  /// pattern together with the residual (uncovered) terms' base lists,
  /// and verify the fetched columns against the catalog's stored counts.
  /// Falls back to kDppJoin / kDpp / kBaseline when no servable rewrite
  /// exists or verification fails.
  kView = 8,
};

[[nodiscard]] std::string_view QueryStrategyName(QueryStrategy s);

struct QueryOptions {
  QueryStrategy strategy = QueryStrategy::kBaseline;
  /// Use the pipelined get (Section 3) for full-list fetches.
  bool pipelined = true;
  /// Pipelined-get block granularity in postings (0 = DHT default).
  uint32_t block_postings = 0;
  bloom::StructuralFilterParams ab_params{
      .levels = 20, .target_fp = 0.2, .trace_c = 4, .point_probe = false};
  bloom::StructuralFilterParams db_params{
      .levels = 20, .target_fp = 0.01, .trace_c = 0, .point_probe = false};
  /// Overall deadline; 0 disables. On expiry the query completes with
  /// whatever arrived (`metrics.complete = false`).
  double timeout_s = 0.0;
  /// Per-fetch retry policy (block fetches and directory fetches).
  /// Disabled by default. When enabled, a fetch whose target died is
  /// retried around the failure (routed retries reach the key's new
  /// owner) and a query whose retry budget runs dry finishes with
  /// `metrics.complete = false` / `metrics.degraded = true` instead of
  /// hanging until the overall deadline.
  dht::RetryPolicy fetch_retry;
  /// Whether the index partitions posting lists into DPP blocks (without
  /// it, kAuto prices neither kDpp nor kDppJoin; every peer still answers
  /// directory requests, with one block per term).
  bool dpp_available = true;
  /// Whether peers run the BlockJoinService, making kDppJoin a candidate
  /// for kAuto. Off by default so existing deployments (and seeded
  /// baseline runs) plan exactly as before.
  bool dpp_join_available = false;
  /// kAuto objective (the paper's planned optimizer "minimizes query
  /// response time or traffic consumption, depending on the setting"):
  /// kTraffic weights shipped bytes only; kTime also rewards transfer
  /// parallelism (DPP) over the reducers' filter round-trips.
  enum class Objective : uint8_t { kTime = 0, kTraffic = 1 };
  Objective objective = Objective::kTime;
};

/// The kAuto cost model: predicted shipped bytes per candidate strategy,
/// from the stored posting-list sizes of the query terms. Exposed for
/// tests and for explain-style tooling.
struct StrategyCostEstimate {
  QueryStrategy strategy = QueryStrategy::kBaseline;
  /// Predicted bytes moved during index-query evaluation.
  double bytes = 0;
  /// Predicted serial transfer bottleneck in bytes (lower = faster under
  /// parallel fetch); used by the kTime objective.
  double bottleneck_bytes = 0;
};

/// Planner inputs for kView, from a servable catalog rewrite: the matched
/// extent's total stored postings and the summed base-list counts of the
/// residual (uncovered) query terms.
struct ViewPricing {
  uint64_t extent_postings = 0;
  uint64_t residual_postings = 0;
};

/// Prices `rewrite` against the query's per-term posting counts.
[[nodiscard]] ViewPricing PriceViewRewrite(
    const ViewCatalog::Rewrite& rewrite,
    const std::vector<uint64_t>& term_counts);

/// The sub-query the Sub-query Reducer DB-reduces (Section 5.4), the one
/// with a guaranteed low selectivity factor: the path from the term with
/// the smallest count (the first on a tie) up to the root, leaf first.
[[nodiscard]] std::vector<int> SubQueryPath(
    const TreePattern& pattern, const std::vector<uint64_t>& term_counts);

/// Estimates costs for the viable strategies given per-term posting
/// counts. kView is a candidate only when `view` prices a rewrite.
/// `overflow` gives each term's index::OverflowCount, the postings its
/// owner gathers before a sub-query reduction can start; empty means
/// nothing is partitioned.
[[nodiscard]] std::vector<StrategyCostEstimate> EstimateStrategyCosts(
    const TreePattern& pattern, const std::vector<uint64_t>& term_counts,
    const QueryOptions& options,
    std::optional<ViewPricing> view = std::nullopt,
    const std::vector<uint64_t>& overflow = {});

/// kAuto's choice among `costs` (non-empty): the lowest primary cost
/// under `objective` (bytes for kTraffic, bottleneck bytes for kTime),
/// ties broken by the other cost, then by list order. `explain` reports
/// the same pick.
[[nodiscard]] QueryStrategy PickStrategy(
    const std::vector<StrategyCostEstimate>& costs,
    QueryOptions::Objective objective);

/// The directory blocks a DPP query reads: per pattern node, the blocks
/// that survive the [min, max] document-interval filter (Section 4.2) and
/// the type-set filter (Section 4.1), in directory order.
struct DppBlockSelection {
  /// False when some term has no postings or the per-term intervals are
  /// disjoint: the index query is provably empty and `blocks` is empty.
  bool viable = false;
  /// From the largest per-term minimum document to the smallest maximum.
  index::Condition window;
  std::vector<std::vector<index::DppBlockInfo>> blocks;
  /// Blocks dropped by either filter.
  size_t skipped = 0;
};

/// Filters one directory per pattern node. kDpp, kDppJoin and `explain`
/// read the same selection.
[[nodiscard]] DppBlockSelection SelectDppBlocks(
    std::vector<std::vector<index::DppBlockInfo>> directories);

/// One kDppJoin task (Section 4.3): a window of the document order, the
/// blocks of every pattern node that intersect it, and the home block the
/// task is sent to, `inputs[home_node][home_block]`.
struct JoinTaskPlan {
  index::Condition window;
  std::vector<std::vector<index::DppBlockInfo>> inputs;  // per node
  size_t home_node = 0;
  size_t home_block = 0;
  /// InWindowPostings of the home block.
  double home_postings = 0;
  /// PushedInputs for the query peer (set by PlanQuery, not PlanJoinTasks).
  std::vector<std::vector<bool>> pushed;
};

/// The postings of `block` expected inside `window`: its count times the
/// share of its document interval [MinDoc, MaxDoc] the window covers.
/// Documents are linearized as peer * 2^32 + doc, the (peer, doc) order
/// of the conditions, so a block spanning several publishers gets a small
/// share of a window inside one of them.
[[nodiscard]] double InWindowPostings(const index::DppBlockInfo& block,
                                      const index::Condition& window);

/// Cuts `window` wherever a block of `blocks` (a DppBlockSelection) ends
/// and keeps each interval where every node has a block: at most Σ mᵢ
/// tasks, in document order. Each task's home is the input block with
/// the most InWindowPostings, the first seen on a tie, so the heaviest
/// input of the window is joined where it already lives.
[[nodiscard]] std::vector<JoinTaskPlan> PlanJoinTasks(
    const std::vector<std::vector<index::DppBlockInfo>>& blocks,
    const index::Condition& window);

/// One term's answer to the directory round (FetchTermDirectories).
struct TermDirectory {
  bool answered = false;
  /// Not OK when the owner stayed unreachable within the retry budget.
  Status status;
  std::vector<index::DppBlockInfo> blocks;
};

/// The planning round: fetches every term's directory from `peer` in node
/// order and runs `done` (if set) once every term has answered. The result
/// fills as replies arrive; a term whose owner never replies stays
/// unanswered.
std::shared_ptr<const std::vector<TermDirectory>> FetchTermDirectories(
    dht::DhtPeer* peer, const TreePattern& pattern,
    const dht::RetryPolicy& retry,
    std::function<void(const std::vector<TermDirectory>&)> done);

/// What kAuto, kDpp, kDppJoin, the sub-query reducer and `explain` read
/// from one directory round. Only PlanQuery derives it.
struct QueryPlan {
  /// Per term: its posting count (index::DirectoryCount), the owner that
  /// answered for block 0 (unset for a term with none), and the postings
  /// that owner gathers from overflow holders (index::OverflowCount).
  std::vector<uint64_t> term_counts;
  std::vector<std::optional<sim::NodeIndex>> term_owners;
  std::vector<uint64_t> overflow;
  /// The view rewrite PlanQuery was given, priced against the counts.
  std::optional<ViewPricing> view;
  std::vector<StrategyCostEstimate> costs;
  /// kAuto's choice among `costs` (PickStrategy).
  QueryStrategy pick = QueryStrategy::kBaseline;
  /// The sub-query reducer's path (SubQueryPath).
  std::vector<int> sub_query_path;
  /// The blocks kDpp reads, and kDppJoin's tasks over them.
  DppBlockSelection selection;
  std::vector<JoinTaskPlan> tasks;
};

/// Plans a query issued at `at`. Pure: the caller consults the catalog.
[[nodiscard]] QueryPlan PlanQuery(
    const TreePattern& pattern, const std::vector<TermDirectory>& directories,
    const std::optional<ViewCatalog::Rewrite>& view_rewrite,
    const QueryOptions& options, sim::NodeIndex at);

struct QueryMetrics {
  double submit_time = 0.0;
  /// Virtual time of the first produced answer; < 0 if none.
  double first_answer_time = -1.0;
  double complete_time = 0.0;
  bool complete = true;
  /// True when fault tolerance changed the evaluation: a fetch exhausted
  /// its retry budget, a directory came back unanswered, or a DPP block
  /// pull came back short (ShortPull in query/block_join.h:
  /// data lost with a crashed holder). A degraded query's answers
  /// are a sound subset; `complete` says whether they are the full set.
  bool degraded = false;

  uint64_t postings_received = 0;
  /// Raw (decoded) bytes of postings shipped to this peer — the paper's
  /// data-volume unit, independent of the wire encoding.
  uint64_t posting_bytes = 0;
  /// Bytes those postings actually occupied on the wire: their
  /// delta+varint-coded size.
  uint64_t posting_wire_bytes = 0;
  uint64_t ab_filter_bytes = 0;
  uint64_t db_filter_bytes = 0;
  /// Sum of the unfiltered posting-list sizes of all query terms (the
  /// denominator of the paper's normalized data volume).
  uint64_t full_postings = 0;
  uint64_t blocks_fetched = 0;
  uint64_t blocks_skipped = 0;
  /// kDppJoin: join tasks formed (bounded by the sum of surviving
  /// per-term block counts), how many completed at a remote holder vs.
  /// via the query peer's local fallback, and the answer-tuple elements
  /// shipped back in result messages.
  uint64_t join_tasks = 0;
  uint64_t join_remote = 0;
  uint64_t join_local_fallback = 0;
  uint64_t join_result_postings = 0;
  /// kDppJoin: wire bytes of the holders' result messages received by
  /// this peer (answer streams plus their fixed headers). With
  /// posting_wire_bytes it is the query peer's whole data ingress.
  uint64_t result_wire_bytes = 0;
  /// kDppJoin: wire bytes of the posting blocks the holders pulled from
  /// each other on this query's behalf. Holder-side ingress, not part of
  /// posting_wire_bytes (which counts query-peer ingress only); the sum of
  /// the two is the query's total posting movement — what a view serve's
  /// posting_wire_bytes competes against.
  uint64_t join_input_wire_bytes = 0;
  /// kView: whether a view extent actually served this query, whether the
  /// rewrite was exact (no residual terms), and whether a kView start fell
  /// back to a base strategy (miss or failed verification).
  bool view_hit = false;
  bool view_exact = false;
  bool view_fallback = false;
  /// The strategy that actually ran (differs from the request for kAuto;
  /// stays kAuto when a lost directory ended the query before planning).
  QueryStrategy effective_strategy = QueryStrategy::kBaseline;

  /// Virtual time from submission to completion (including a timeout-forced
  /// completion); < 0 if the query never reached Finish, so a default-
  /// constructed or still-running QueryMetrics never reports a bogus
  /// negative duration as a valid latency.
  [[nodiscard]] double ResponseTime() const {
    return complete_time < submit_time ? -1.0 : complete_time - submit_time;
  }
  [[nodiscard]] double TimeToFirstAnswer() const {
    return first_answer_time < submit_time ? -1.0
                                           : first_answer_time - submit_time;
  }
  /// (filters + shipped postings) / (full posting lists), in bytes.
  [[nodiscard]] double NormalizedDataVolume() const;
};

struct QueryResult {
  std::vector<Answer> answers;
  std::vector<index::DocId> matched_docs;
  QueryMetrics metrics;
};

class QueryExecutor;

/// Per-peer registry of in-flight queries issued from this peer. Routes
/// incoming reduced lists to the right executor.
class QueryClient {
 public:
  explicit QueryClient(dht::DhtPeer* peer);

  QueryClient(const QueryClient&) = delete;
  QueryClient& operator=(const QueryClient&) = delete;

  using Callback = std::function<void(QueryResult)>;

  /// Starts an index query with the given strategy. The callback fires at
  /// completion (or timeout) with answers and metrics.
  void Submit(const TreePattern& pattern, const QueryOptions& options,
              Callback callback);

  /// Handles messages addressed to queries of this peer; false if the
  /// payload is not a query-client message.
  [[nodiscard]] bool HandleApp(const dht::AppRequest& request, sim::NodeIndex from);

  dht::DhtPeer* peer() { return peer_; }

  /// The network's view catalog (may be null). Consulted by kAuto / kView
  /// executors for rewrites.
  void SetViewCatalog(ViewCatalog* catalog) { view_catalog_ = catalog; }
  ViewCatalog* view_catalog() { return view_catalog_; }

 private:
  friend class QueryExecutor;
  void Finish(uint64_t query_id);

  dht::DhtPeer* peer_;
  uint64_t next_query_id_ = 1;
  std::map<uint64_t, std::shared_ptr<QueryExecutor>> active_;
  ViewCatalog* view_catalog_ = nullptr;
};

/// One in-flight index query (created by QueryClient).
class QueryExecutor : public std::enable_shared_from_this<QueryExecutor> {
 public:
  QueryExecutor(QueryClient* client, uint64_t query_id, TreePattern pattern,
                QueryOptions options, QueryClient::Callback callback);

  void Start();
  [[nodiscard]] bool HandleApp(const dht::AppRequest& request, sim::NodeIndex from);

 private:
  /// Starts `strategy`: the one dispatch shared by Start, kAuto's pick and
  /// a kView fallback.
  void Run(QueryStrategy strategy);
  /// Full-list fetch of `node`'s term: used by the baseline strategy and
  /// the sub-query plan's off-path fetches (the only difference being
  /// whether blocks_fetched is counted). After a directory round the get
  /// goes to the term owner in one hop.
  void FetchStream(size_t node, bool count_blocks);
  /// Accounts a posting transfer that crossed to this peer: the received
  /// count, raw bytes and wire bytes. Returns the wire (encoded) size,
  /// computed once per transfer.
  size_t RecordTransfer(const index::PostingList& postings);
  void StartBaseline();
  /// Starts kDpp's block fetches, or dispatches every kDppJoin task of the
  /// plan and then asks for every task's pushed inputs.
  void OnDppDirectoriesReady();
  void DispatchJoinTask(size_t task);
  /// Asks the holder of each input PushedInputs names to push it to the
  /// task's home.
  void PushJoinInputs(size_t task);
  void OnJoinTaskResult(size_t task, const index::JoinResultMessage& msg);
  /// The holder is unreachable (routing retry budget exhausted) or replied
  /// without being able to verify its inputs: pull the task's input
  /// blocks here, re-pulling short pulls within the retry budget, and
  /// join locally, like a one-task kDpp.
  void RunLocalJoinFallback(size_t task);
  void FinishJoinTask(size_t task, std::vector<Answer> answers,
                      std::vector<index::DocId> matched_docs);
  /// Appends completed tasks to the merged result in task (= document)
  /// order; finishes the query when every task has been delivered.
  void DeliverReadyJoinTasks();
  void StartReducer(ReduceMode mode);
  /// kView: resolve a rewrite (unless kAuto already stashed one), fetch and
  /// count-verify the extent columns, then feed them into the join at their
  /// mapped query nodes alongside residual-term base fetches. Any miss or
  /// verification failure routes through FallbackFromView.
  void StartView();
  void ServeFromView();
  void OnViewColumns(std::vector<index::PostingList> columns,
                     uint64_t wire_bytes, bool verified);
  /// Re-dispatches a failed kView start to the strongest available base
  /// strategy (kDppJoin > kDpp > kBaseline) with degraded accounting.
  void FallbackFromView();
  /// The planning round (FetchTermDirectories) and PlanQuery over it, into
  /// `plan_`; then runs `then` (at once if the round already ran). kAuto
  /// consults the view catalog in between. A directory lost to the retry
  /// budget finishes the query degraded and incomplete instead.
  void FetchDirectories(std::function<void()> then);
  void OnTermCountsReady();
  /// The owner of `node`'s term as the plan names it; without a directory
  /// round, the owner the peer's owner cache names (DhtPeer::KnownOwner).
  [[nodiscard]] std::optional<dht::OwnerHint> TermOwner(size_t node) const;
  /// Records the plan's counts on the root span (`term_counts`).
  void AnnotateTermCounts();
  void LaunchReducePlan(ReduceMode mode, std::vector<ReducePlanNode> nodes);
  /// DPP: issue up to K block fetches for `node`; called on completions.
  void PumpDppFetches(size_t node);
  /// DPP: block `idx` of `node` arrived.
  void OnDppBlock(size_t node, size_t idx, index::PostingList postings);
  void DeliverReadyDppBlocks(size_t node);
  void CloseStream(size_t node);
  void AdvanceJoin();
  void MaybeFinishStreams();
  void Finish(bool complete);
  void ArmTimeout();

  QueryClient* client_;
  dht::DhtPeer* peer_;
  const uint64_t query_id_;
  const TreePattern pattern_;
  const QueryOptions options_;
  QueryClient::Callback callback_;

  TwigJoin join_;
  QueryMetrics metrics_;
  obs::SpanId span_ = 0;
  // Phase spans under span_: the directory round, then either the block
  // fetch phase or the join dispatch/result round. Both are closed by
  // Finish() if still open.
  obs::SpanId route_span_ = 0;
  obs::SpanId phase_span_ = 0;
  bool finished_ = false;

  // Stream bookkeeping (baseline / DPP / plain fetches in sub-query mode).
  std::vector<bool> stream_closed_;

  // kDpp fetch state per pattern node, over plan_->selection.blocks.
  struct DppNodeState {
    size_t next_to_issue = 0;
    size_t outstanding = 0;
    size_t next_to_deliver = 0;
    /// Out-of-order completions, moved into the join in block order.
    std::map<size_t, index::PostingList> ready;
    /// Set when block conditions overlap (random-split ablation): blocks
    /// must be collected fully and merge-sorted before joining.
    bool requires_merge = false;
  };
  std::vector<DppNodeState> dpp_;
  /// Set once the directory round has completed.
  std::optional<QueryPlan> plan_;

  // Distributed block-join state (kDppJoin). Tasks partition the document
  // window into disjoint ascending intervals, so delivering them in task
  // order reproduces the document-order answer stream of kDpp exactly.
  // One per task of plan_->tasks.
  struct JoinTask {
    /// The first of the pushed inputs' delivery ids.
    dht::RequestId delivery_id = 0;
    bool done = false;
    std::vector<Answer> answers;
    std::vector<index::DocId> matched_docs;
  };
  bool dpp_join_mode_ = false;
  std::vector<JoinTask> join_tasks_;
  size_t join_next_to_deliver_ = 0;
  std::vector<Answer> merged_answers_;
  std::vector<index::DocId> merged_docs_;

  // Reducer state.
  size_t reduced_lists_pending_ = 0;

  // View state: the rewrite this query serves from (stashed by kAuto's
  // catalog consult or resolved by StartView).
  std::optional<ViewCatalog::Rewrite> view_rewrite_;
};

}  // namespace kadop::query

#endif  // KADOP_QUERY_EXECUTOR_H_
