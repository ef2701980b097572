#ifndef KADOP_CORE_KADOP_H_
#define KADOP_CORE_KADOP_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "dht/dht.h"
#include "fundex/fundex.h"
#include "index/doc_store.h"
#include "index/dpp.h"
#include "index/publisher.h"
#include "obs/metrics.h"
#include "query/block_join.h"
#include "query/executor.h"
#include "query/local_eval.h"
#include "query/reducer.h"
#include "query/view_manager.h"
#include "sim/fault_plan.h"
#include "sim/network.h"
#include "sim/scheduler.h"

namespace kadop::core {

/// Phase-2 message: evaluate a pattern against locally stored documents
/// (the listed ones, or every local document when `all_docs` is set — the
/// broadcast fallback).
struct DocQueryRequest final : sim::Payload {
  std::string pattern;
  std::vector<index::DocSeq> docs;
  bool all_docs = false;

  size_t SizeBytes() const override {
    return pattern.size() + docs.size() * 4 + 9;
  }
  std::string_view TypeName() const override { return "DocQueryRequest"; }
};

/// The answers as a `codec::EncodeAnswers` stream with no matched docs.
struct DocQueryResponse final : sim::Payload {
  std::vector<uint8_t> answers;

  size_t SizeBytes() const override { return 8 + answers.size(); }
  std::string_view TypeName() const override { return "DocQueryResponse"; }
};

/// Key-range handoff when a peer joins: the previous owner ships each key
/// it no longer owns — its postings (as their `codec::EncodePostings`
/// stream; the empty list's for a blob), or a blob, plus the DPP root
/// block if the key had one.
struct HandoffMessage final : sim::Payload {
  std::string key;
  std::vector<uint8_t> postings;
  std::optional<std::string> blob;
  std::optional<index::DppManager::TermExport> dpp_root;

  size_t SizeBytes() const override {
    size_t total = key.size() + 16 + postings.size();
    if (blob) total += blob->size();
    if (dpp_root) total += dpp_root->WireBytes();
    return total;
  }
  std::string_view TypeName() const override { return "HandoffMessage"; }
};

/// Top-level configuration of a KadoP network.
struct KadopOptions {
  size_t peers = 16;
  sim::NetworkParams net;
  dht::DhtOptions dht;
  /// Enable the DPP layer (Section 4). When off, posting lists are flat.
  bool enable_dpp = true;
  index::DppOptions dpp;
  index::PublishOptions publish;
};

/// One KadoP peer: the DHT node plus every KadoP service — local document
/// repository, publisher, DPP manager, Bloom reducer service, query client,
/// Fundex service, and the phase-2 document query handler.
class KadopPeer {
 public:
  KadopPeer(dht::DhtPeer* dht_peer, const KadopOptions& options,
            fundex::Resolver resolver);

  KadopPeer(const KadopPeer&) = delete;
  KadopPeer& operator=(const KadopPeer&) = delete;

  dht::DhtPeer* dht_peer() { return dht_peer_; }
  index::DocStore& doc_store() { return doc_store_; }
  index::Publisher& publisher() { return *publisher_; }
  index::DppManager* dpp() { return dpp_.get(); }
  query::QueryClient& query_client() { return *query_client_; }
  query::BlockJoinService& block_join() { return *block_join_; }
  query::ReducerService& reducer() { return *reducer_; }
  fundex::FundexService& fundex() { return *fundex_; }

 private:
  /// App-message dispatcher: tries each service in turn.
  void HandleApp(const dht::AppRequest& request, sim::NodeIndex from);
  void HandleHandoff(const HandoffMessage& msg);

  dht::DhtPeer* dht_peer_;
  index::DocStore doc_store_;
  std::unique_ptr<index::Publisher> publisher_;
  std::unique_ptr<index::DppManager> dpp_;
  std::unique_ptr<query::ReducerService> reducer_;
  std::unique_ptr<query::QueryClient> query_client_;
  std::unique_ptr<query::BlockJoinService> block_join_;
  std::unique_ptr<fundex::FundexService> fundex_;
};

/// An index query result extended with phase-2 answers computed at the
/// document peers.
struct FullQueryResult {
  query::QueryResult index;
  std::vector<query::Answer> final_answers;
  double total_time = 0.0;
};

/// A network-wide statistics snapshot: the clock, the network's traffic
/// meter and the metrics-registry snapshot, which holds every event tally
/// the paper's figures draw from (`dht.*`, `store.*`, `dpp.*`, `fundex.*`,
/// `net.dropped`, ...). The registry is process-wide, so its counters sum
/// over every network since the last `MetricRegistry::Reset()`. Both dumps
/// are deterministic: identical seeded runs produce byte-identical output
/// (all timestamps are virtual).
struct KadopStats {
  size_t peers = 0;
  /// Virtual clock at snapshot time.
  double now = 0.0;
  uint64_t executed_events = 0;
  sim::TrafficStats traffic;
  obs::MetricsSnapshot metrics;

  /// Human-readable dump (one line per figure-relevant quantity, then the
  /// registry in `MetricsSnapshot::ToText` form).
  [[nodiscard]] std::string ToText() const;
  /// Machine-readable dump (stable key order, fixed float formatting).
  [[nodiscard]] std::string ToJson() const;
};

/// A complete simulated KadoP deployment: scheduler, network, DHT overlay,
/// and one KadopPeer per DHT peer, plus synchronous drivers that run the
/// event loop to completion — the entry point used by the examples, tests
/// and benchmark harnesses.
class KadopNet {
 public:
  explicit KadopNet(KadopOptions options);
  ~KadopNet();

  KadopNet(const KadopNet&) = delete;
  KadopNet& operator=(const KadopNet&) = delete;

  size_t PeerCount() const { return peers_.size(); }
  KadopPeer* peer(sim::NodeIndex node) { return peers_.at(node).get(); }
  sim::Scheduler& scheduler() { return scheduler_; }
  sim::Network& network() { return *network_; }
  dht::Dht& dht() { return *dht_; }
  const KadopOptions& options() const { return options_; }

  /// Registers corpus documents for uri resolution (Fundex) — the network
  /// borrows them; they must outlive it.
  void RegisterDocuments(const std::vector<xml::Document>& docs);

  /// Publishes documents from `publisher` and runs until all postings are
  /// durably indexed. Returns the virtual time the publication took.
  double PublishAndWait(sim::NodeIndex publisher,
                        const std::vector<const xml::Document*>& docs);

  /// Publishes several batches from distinct peers concurrently; returns
  /// the virtual time until the last publisher finished.
  double ParallelPublishAndWait(
      const std::vector<
          std::pair<sim::NodeIndex, std::vector<const xml::Document*>>>&
          batches);

  /// Fundex-mode publication (Section 6).
  double FundexPublishAndWait(sim::NodeIndex publisher,
                              const std::vector<const xml::Document*>& docs,
                              fundex::IntensionalMode mode);

  /// Withdraws a document published by `publisher` (document modification
  /// is unpublish + republish). Runs the deletions to completion.
  [[nodiscard]] bool UnpublishAndWait(sim::NodeIndex publisher, index::DocSeq seq);

  /// Adds a peer to the running network: the overlay stabilizes and the
  /// new peer's successor hands off the keys (postings, blobs, DPP root
  /// blocks) that now fall into the newcomer's range, so queries stay
  /// complete. Returns the new peer's node index.
  [[nodiscard]] sim::NodeIndex JoinPeerAndWait();

  /// Fails a peer and restabilizes (with replication, its successor takes
  /// over from the replicas).
  void FailPeerAndStabilize(sim::NodeIndex node);

  /// Brings a previously failed peer back: its network endpoint comes up
  /// and its id rejoins the ring with the store it had at crash time, and
  /// the overlay restabilizes (crash-stop with durable storage).
  void RestartPeerAndStabilize(sim::NodeIndex node);

  /// Installs a seeded fault plan on the network (message drops,
  /// duplications, delay jitter, slow peers) and schedules the given
  /// crash/restart events on the virtual clock. Identical options +
  /// schedule + workload reproduce the exact same run byte for byte.
  /// Replaces any previously installed plan (and its stats).
  void EnableFaults(const sim::FaultOptions& fault_options,
                    std::vector<sim::CrashEvent> schedule = {});

  /// Removes the fault plan; subsequent traffic is fault-free. Already
  /// scheduled crash/restart events still fire.
  void DisableFaults();

  /// The installed plan, or nullptr when faults are off.
  const sim::FaultPlan* fault_plan() const { return fault_plan_.get(); }

  /// Parses and runs an index query from `at`, driving the simulation
  /// until it completes.
  Result<query::QueryResult> QueryAndWait(sim::NodeIndex at,
                                          std::string_view xpath,
                                          const query::QueryOptions& options);

  /// Index query followed by phase 2: the query is forwarded to the peers
  /// holding matched documents and the answers are computed there.
  Result<FullQueryResult> QueryDocumentsAndWait(
      sim::NodeIndex at, std::string_view xpath,
      const query::QueryOptions& options);

  /// The paper's "brutal" fallback: the query is flooded to every peer,
  /// which evaluates it against all locally stored documents. Complete for
  /// any pattern (wildcards included) but contacts everyone — the index is
  /// exactly what makes this unnecessary for indexable patterns.
  Result<FullQueryResult> BroadcastQueryAndWait(sim::NodeIndex at,
                                                std::string_view xpath);

  /// Resolves a document id to the uri recorded in the Doc relation at
  /// publication time (DHT blob lookup).
  Result<std::string> LookupDocUriAndWait(sim::NodeIndex at,
                                          const index::DocId& doc);

  /// Explains how the optimizer sees a query: runs kAuto's directory round
  /// (under `options.fetch_retry` or else the DHT's retry policy) and
  /// renders the query::QueryPlan PlanQuery derives from it: the parsed
  /// pattern and its completeness/precision analysis, each term's posting
  /// and block counts, any view rewrite, the cost estimates and the pick.
  /// When kDppJoin is a candidate it also lists the plan's join tasks: each
  /// window, its home block, the home's estimated postings in the window
  /// and how each other input reaches the home. A term whose directory
  /// never arrives yields kUnavailable naming it.
  Result<std::string> ExplainQueryAndWait(sim::NodeIndex at,
                                          std::string_view xpath,
                                          const query::QueryOptions& options);

  /// Fundex-aware query (Section 6).
  Result<fundex::FundexQueryResult> FundexQueryAndWait(
      sim::NodeIndex at, std::string_view xpath,
      fundex::IntensionalMode mode);

  /// The network's view catalog (docs/views.md).
  query::ViewCatalog& views() { return *view_catalog_; }

  /// Registers a view over `xpath` (auto-named when `name` is empty),
  /// materializes its extent from a ground-truth index query, and drives
  /// the simulation until the extent is installed and in sync. Returns the
  /// view's name. kAuto and kView may serve from it from then on.
  Result<std::string> CreateViewAndWait(std::string_view xpath,
                                        std::string name = "");

  /// Forgets a view; its extent columns become unreferenced garbage. The
  /// catalog blob is republished once the caller next drives the network.
  bool DropView(const std::string& name);

  /// Runs the network to idle, re-records every quiescent view's freshness
  /// oracles, and republishes the catalog under its well-known key
  /// ("view:catalog") for discovery.
  void SyncViews();

  /// Submits an index query without driving the scheduler (for workload
  /// benches that overlap many queries).
  Status SubmitQuery(sim::NodeIndex at, std::string_view xpath,
                     const query::QueryOptions& options,
                     query::QueryClient::Callback callback);

  /// Runs the event loop until idle; returns the final virtual time.
  double RunToIdle() { return scheduler_.RunUntilIdle(); }

  /// Aggregates every subsystem's stats across all live peers and snapshots
  /// the metrics registry (see docs/observability.md).
  [[nodiscard]] KadopStats Stats();

 private:
  fundex::Resolver MakeResolver();
  /// Runs the registered view's ground-truth query and ships the projected
  /// extent columns as acked appends. Asynchronous: the entry serves once
  /// every chunk acked and the oracles resynced. An incomplete or degraded
  /// ground truth drops the view instead of installing a wrong extent.
  void MaterializeView(const std::string& name);
  /// The lowest-index live peer (origin for view maintenance and catalog
  /// publication after crashes).
  sim::NodeIndex FirstLivePeer() const;

  KadopOptions options_;
  sim::Scheduler scheduler_;
  std::unique_ptr<sim::Network> network_;
  std::unique_ptr<sim::FaultPlan> fault_plan_;
  std::unique_ptr<dht::Dht> dht_;
  std::unique_ptr<query::ViewCatalog> view_catalog_;
  std::vector<std::unique_ptr<KadopPeer>> peers_;
  std::map<std::string, const xml::Document*> uri_index_;
};

}  // namespace kadop::core

#endif  // KADOP_CORE_KADOP_H_
