#include "core/kadop.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/logging.h"
#include "dht/ring.h"
#include "index/codec.h"
#include "obs/json.h"
#include "obs/trace.h"

namespace kadop::core {

using index::DocSeq;
using sim::NodeIndex;
using sim::TrafficCategory;

namespace {

struct FaultEventCounters {
  obs::Counter* crashes;
  obs::Counter* restarts;

  FaultEventCounters() {
    auto& r = obs::MetricRegistry::Default();
    crashes = r.GetCounter("fault.crashes");
    restarts = r.GetCounter("fault.restarts");
  }
};

FaultEventCounters& FaultEvents() {
  static FaultEventCounters counters;
  return counters;
}

/// Appends a phase-2 reply's answers, decoded with the pattern's `arity`.
void TakeDocAnswers(const sim::PayloadPtr& inner, size_t arity,
                    std::vector<query::Answer>* out) {
  const auto* resp = dynamic_cast<const DocQueryResponse*>(inner.get());
  if (resp == nullptr) return;
  std::vector<index::DocId> matched;
  std::vector<query::Answer> answers;
  const Status status = index::codec::DecodeAnswers(
      resp->answers.data(), resp->answers.size(), arity, &matched, &answers);
  KADOP_CHECK(status.ok(), "phase-2 answer stream is corrupt");
  out->insert(out->end(), std::make_move_iterator(answers.begin()),
              std::make_move_iterator(answers.end()));
}

/// `options` as a network with or without DPP can plan them: without it
/// every list is one block at its owner, so kAuto and `explain` must price
/// neither kDpp nor kDppJoin.
query::QueryOptions Plannable(query::QueryOptions options, bool enable_dpp) {
  options.dpp_available = options.dpp_available && enable_dpp;
  return options;
}

}  // namespace

// ---------------------------------------------------------------------------
// KadopPeer

KadopPeer::KadopPeer(dht::DhtPeer* dht_peer, const KadopOptions& options,
                     fundex::Resolver resolver)
    : dht_peer_(dht_peer) {
  publisher_ = std::make_unique<index::Publisher>(dht_peer_, &doc_store_,
                                                  options.publish);
  if (options.enable_dpp) {
    dpp_ = std::make_unique<index::DppManager>(dht_peer_, options.dpp);
    dht_peer_->SetAppendInterceptor(
        [this](const dht::AppendRequest& request,
               const index::PostingList& postings) {
          return dpp_->OnAppend(request, postings);
        });
    dht_peer_->SetGetInterceptor([this](const dht::GetRequest& request) {
      return dpp_->OnGet(request);
    });
    dht_peer_->SetDeleteInterceptor(
        [this](const dht::DeleteRequest& request) {
          return dpp_->OnDelete(request);
        });
  }
  reducer_ = std::make_unique<query::ReducerService>(dht_peer_);
  query_client_ = std::make_unique<query::QueryClient>(dht_peer_);
  block_join_ = std::make_unique<query::BlockJoinService>(dht_peer_);
  fundex_ = std::make_unique<fundex::FundexService>(dht_peer_, &doc_store_,
                                                    std::move(resolver));
  dht_peer_->SetAppHandler(
      [this](const dht::AppRequest& request, NodeIndex from) {
        HandleApp(request, from);
      });
}

void KadopPeer::HandleHandoff(const HandoffMessage& msg) {
  const index::PostingList postings = index::codec::DecodePayload(msg.postings);
  if (!postings.empty()) {
    dht_peer_->store()->AppendPostings(msg.key, postings);
  }
  if (msg.blob) {
    dht_peer_->store()->PutBlob(msg.key, *msg.blob);
  }
  if (msg.dpp_root && dpp_) {
    dpp_->ImportTerm(*msg.dpp_root);
  }
}

void KadopPeer::HandleApp(const dht::AppRequest& request, NodeIndex from) {
  if (dpp_ && dpp_->HandleApp(request, from)) return;
  if (reducer_->HandleApp(request, from)) return;
  if (query_client_->HandleApp(request, from)) return;
  if (block_join_->HandleApp(request, from)) return;
  if (fundex_->HandleApp(request, from)) return;

  if (const auto* handoff =
          dynamic_cast<const HandoffMessage*>(request.inner.get())) {
    HandleHandoff(*handoff);
    return;
  }

  if (const auto* doc_query =
          dynamic_cast<const DocQueryRequest*>(request.inner.get())) {
    std::vector<query::Answer> answers;
    Result<query::TreePattern> pattern = query::ParsePattern(
        doc_query->pattern);
    if (pattern.ok()) {
      std::vector<DocSeq> seqs = doc_query->docs;
      if (doc_query->all_docs) {
        seqs.clear();
        for (DocSeq seq = 0; seq < doc_store_.size(); ++seq) {
          seqs.push_back(seq);
        }
      }
      for (DocSeq seq : seqs) {
        const xml::Document* doc = doc_store_.Get(seq);
        if (doc == nullptr) continue;
        auto found = query::EvaluateOnDocument(
            pattern.value(), *doc,
            index::DocId{dht_peer_->node(), seq});
        answers.insert(answers.end(), found.begin(), found.end());
      }
    }
    auto resp = std::make_shared<DocQueryResponse>();
    resp->answers = index::codec::EncodeAnswers({}, answers);
    dht_peer_->Reply(request.origin, request.req_id, std::move(resp),
                     TrafficCategory::kResult);
    return;
  }
  KADOP_LOG_DEBUG("peer %u: unhandled app payload '%.*s'", dht_peer_->node(),
                  static_cast<int>(request.inner->TypeName().size()),
                  request.inner->TypeName().data());
}

// ---------------------------------------------------------------------------
// KadopNet

KadopNet::KadopNet(KadopOptions options) : options_(options) {
  network_ = std::make_unique<sim::Network>(&scheduler_, options_.net);
  dht_ = std::make_unique<dht::Dht>(&scheduler_, network_.get(),
                                    options_.dht);
  KADOP_CHECK(options_.peers > 0, "need at least one peer");
  dht_->AddPeers(options_.peers);

  // The view catalog and its publisher hooks must exist before any peer is
  // built: every Publisher — the per-peer member and each PublishAndWait
  // batch publisher — copies options_.publish at construction, so hooks
  // installed here reach all of them.
  view_catalog_ = std::make_unique<query::ViewCatalog>();
  query::ViewCatalog* catalog = view_catalog_.get();
  options_.publish.derive =
      [catalog](dht::DhtPeer* p, const xml::Document& doc,
                index::PeerId peer_id, DocSeq seq,
                const std::vector<index::TermPosting>& postings) {
        return catalog->MakePublishDeltas(p, doc, peer_id, seq, postings);
      };
  options_.publish.on_unpublish =
      [catalog](dht::DhtPeer* p, const xml::Document& doc,
                index::PeerId peer_id, DocSeq seq,
                const std::vector<index::TermPosting>& postings) {
        catalog->HandleUnpublish(p, doc, peer_id, seq, postings);
      };
  // Once a hooked publish settles (base batches AND view deltas acked),
  // the catalog may absorb the base-term version bumps it just caused —
  // without this, every publish would trip the version oracle and park all
  // views on the fallback path until the next explicit SyncViews.
  options_.publish.on_complete = [catalog](dht::DhtPeer* p) {
    catalog->Resync(p);
  };

  for (size_t i = 0; i < options_.peers; ++i) {
    peers_.push_back(std::make_unique<KadopPeer>(
        dht_->peer(static_cast<NodeIndex>(i)), options_, MakeResolver()));
  }
  for (auto& kp : peers_) {
    kp->query_client().SetViewCatalog(view_catalog_.get());
  }

  // Stamp traces with this network's virtual clock so span timestamps are
  // reproducible across identical seeded runs.
  obs::Tracer::Default().SetClock([this] { return scheduler_.Now(); }, this);
}

KadopNet::~KadopNet() {
#ifndef NDEBUG
  // Leak check: every span begun while this network drove the clock should
  // have closed by teardown. An open span means an instrumentation path
  // lost its End() (the KDP016 analyzer rule catches the textual cases;
  // this catches the dynamic ones).
  auto& tracer = obs::Tracer::Default();
  if (tracer.enabled() && tracer.OpenSpans() > 0) {
    std::fprintf(stderr,
                 "KadopNet: %zu trace span(s) still open at teardown — "
                 "a Tracer::Begin() is missing its End()\n",
                 tracer.OpenSpans());
  }
#endif
  obs::Tracer::Default().ClearClock(this);
}

fundex::Resolver KadopNet::MakeResolver() {
  return [this](const std::string& uri) -> const xml::Document* {
    auto it = uri_index_.find(uri);
    return it == uri_index_.end() ? nullptr : it->second;
  };
}

bool KadopNet::UnpublishAndWait(NodeIndex publisher, index::DocSeq seq) {
  const bool ok = peer(publisher)->publisher().Unpublish(seq);
  scheduler_.RunUntilIdle();
  return ok;
}

sim::NodeIndex KadopNet::JoinPeerAndWait() {
  auto& tracer = obs::Tracer::Default();
  const obs::SpanId span = tracer.Begin("join_peer");
  const NodeIndex node = dht_->AddPeer();
  tracer.Annotate(span, "node", std::to_string(node));
  peers_.push_back(std::make_unique<KadopPeer>(dht_->peer(node), options_,
                                               MakeResolver()));
  peers_.back()->query_client().SetViewCatalog(view_catalog_.get());
  dht_->Stabilize();

  // The newcomer's successor owned its key range until now; it hands off
  // every key that changed hands — postings, blobs, and DPP root blocks.
  dht::DhtPeer* new_peer = dht_->peer(node);
  const NodeIndex succ = new_peer->routing().successor_node;
  KadopPeer* old_owner = peer(succ);
  store::PeerStore* old_store = old_owner->dht_peer()->store();

  // With replication, the old owner is the newcomer's successor — exactly
  // where the first replica of the transferred keys belongs — so the copy
  // stays in place; without replication the key moves.
  const bool keep_replica = options_.dht.replication > 1;
  for (const std::string& key : old_store->PostingKeys()) {
    if (dht_->OwnerOf(dht::HashKey(key)) != node) continue;
    auto msg = std::make_shared<HandoffMessage>();
    msg->key = key;
    msg->postings = index::codec::EncodePostings(old_store->GetPostings(key));
    if (!keep_replica) old_store->DeleteKey(key);
    if (old_owner->dpp() != nullptr) {
      msg->dpp_root = old_owner->dpp()->ExportTerm(key);
    }
    old_owner->dht_peer()->SendApp(node, std::move(msg),
                                   sim::TrafficCategory::kPublish);
  }
  for (const std::string& key : old_store->BlobKeys()) {
    if (dht_->OwnerOf(dht::HashKey(key)) != node) continue;
    auto msg = std::make_shared<HandoffMessage>();
    msg->key = key;
    msg->postings = index::codec::EncodePostings({});
    msg->blob = *old_store->GetBlob(key);
    if (!keep_replica) old_store->DeleteBlob(key);
    old_owner->dht_peer()->SendApp(node, std::move(msg),
                                   sim::TrafficCategory::kPublish);
  }
  scheduler_.RunUntilIdle();
  tracer.End(span);
  return node;
}

void KadopNet::FailPeerAndStabilize(NodeIndex node) {
  dht_->FailPeer(node);
  dht_->Stabilize();
}

void KadopNet::RestartPeerAndStabilize(NodeIndex node) {
  dht_->RestartPeer(node);
  dht_->Stabilize();
}

void KadopNet::EnableFaults(const sim::FaultOptions& fault_options,
                            std::vector<sim::CrashEvent> schedule) {
  fault_plan_ = std::make_unique<sim::FaultPlan>(fault_options);
  network_->SetFaultPlan(fault_plan_.get());
  for (const sim::CrashEvent& ev : schedule) {
    KADOP_CHECK(ev.node < peers_.size(), "crash event for unknown peer");
    scheduler_.At(ev.at, [this, ev] {
      if (ev.up) {
        FaultEvents().restarts->Increment();
        RestartPeerAndStabilize(ev.node);
      } else {
        FaultEvents().crashes->Increment();
        FailPeerAndStabilize(ev.node);
      }
    });
  }
}

void KadopNet::DisableFaults() {
  network_->SetFaultPlan(nullptr);
  fault_plan_.reset();
}

void KadopNet::RegisterDocuments(const std::vector<xml::Document>& docs) {
  for (const auto& doc : docs) {
    if (!doc.uri.empty()) uri_index_[doc.uri] = &doc;
  }
}

double KadopNet::PublishAndWait(
    NodeIndex publisher, const std::vector<const xml::Document*>& docs) {
  const double start = scheduler_.Now();
  double done_at = start;
  auto& tracer = obs::Tracer::Default();
  const obs::SpanId span = tracer.Begin("publish");
  tracer.Annotate(span, "documents", std::to_string(docs.size()));
  // A fresh Publisher per batch (the member publisher serves examples that
  // publish once).
  auto batch_publisher = std::make_shared<index::Publisher>(
      peer(publisher)->dht_peer(), &peer(publisher)->doc_store(),
      options_.publish);
  batch_publisher->Publish(docs, [this, &done_at, span, batch_publisher]() {
    done_at = scheduler_.Now();
    obs::Tracer::Default().End(span);
  });
  scheduler_.RunUntilIdle();
  return done_at - start;
}

double KadopNet::ParallelPublishAndWait(
    const std::vector<std::pair<NodeIndex,
                                std::vector<const xml::Document*>>>&
        batches) {
  const double start = scheduler_.Now();
  double last_done = start;
  std::vector<std::shared_ptr<index::Publisher>> publishers;
  for (const auto& [node, docs] : batches) {
    auto pub = std::make_shared<index::Publisher>(
        peer(node)->dht_peer(), &peer(node)->doc_store(), options_.publish);
    publishers.push_back(pub);
    pub->Publish(docs, [this, &last_done]() {
      last_done = std::max(last_done, scheduler_.Now());
    });
  }
  scheduler_.RunUntilIdle();
  return last_done - start;
}

double KadopNet::FundexPublishAndWait(
    NodeIndex publisher, const std::vector<const xml::Document*>& docs,
    fundex::IntensionalMode mode) {
  const double start = scheduler_.Now();
  double done_at = start;
  peer(publisher)->fundex().Publish(docs, mode, options_.publish,
                                    [this, &done_at]() {
                                      done_at = scheduler_.Now();
                                    });
  // Run to idle: function indexing triggered in the background must also
  // settle before queries run.
  scheduler_.RunUntilIdle();
  return std::max(done_at, scheduler_.Now()) - start;
}

// ---------------------------------------------------------------------------
// Materialized views

sim::NodeIndex KadopNet::FirstLivePeer() const {
  for (size_t i = 0; i < peers_.size(); ++i) {
    if (network_->IsNodeUp(static_cast<NodeIndex>(i))) {
      return static_cast<NodeIndex>(i);
    }
  }
  return 0;
}

void KadopNet::MaterializeView(const std::string& name) {
  const query::ViewCatalog::Entry* entry = view_catalog_->Find(name);
  if (entry == nullptr) return;
  const query::TreePattern pattern = entry->def.pattern;
  const std::string extent_prefix = entry->def.extent_prefix;
  // Ground truth comes from the strongest always-available base strategy;
  // never from a view (no rewriting happens for an explicit strategy).
  query::QueryOptions ground;
  ground.strategy = options_.enable_dpp ? query::QueryStrategy::kDpp
                                        : query::QueryStrategy::kBaseline;
  const NodeIndex at = FirstLivePeer();
  peer(at)->query_client().Submit(
      pattern, ground,
      [this, name, extent_prefix, pattern, at](query::QueryResult result) {
        const query::ViewCatalog::Entry* e = view_catalog_->Find(name);
        // Dropped (or re-created under a new generation) mid-flight.
        if (e == nullptr || e->def.extent_prefix != extent_prefix) return;
        if (!result.metrics.complete || result.metrics.degraded) {
          // A partial ground truth would install a wrong extent that the
          // freshness guard could never detect; give up instead.
          view_catalog_->Drop(name);
          return;
        }
        view_catalog_->AddAnswerDelta(
            name, static_cast<int64_t>(result.answers.size()));
        std::vector<index::PostingList> columns =
            query::ProjectAnswers(result.answers, pattern.size());
        dht::DhtPeer* p = peer(at)->dht_peer();
        const size_t batch =
            std::max<size_t>(1, options_.publish.batch_postings);
        for (size_t v = 0; v < columns.size(); ++v) {
          const std::string key = e->def.ColumnKey(v);
          for (size_t off = 0; off < columns[v].size(); off += batch) {
            const size_t end = std::min(columns[v].size(), off + batch);
            index::PostingList chunk(columns[v].begin() + off,
                                     columns[v].begin() + end);
            const auto n = static_cast<int64_t>(chunk.size());
            view_catalog_->BeginMaintenance(name);
            p->Append(key, std::move(chunk),
                      [this, name, extent_prefix, v, n, p](Status st) {
                        // A lost chunk leaves the entry out of sync: safe
                        // (never served), recoverable only by re-creating.
                        if (!st.ok()) return;
                        view_catalog_->OnMaintenanceApplied(
                            name, extent_prefix, v, n, std::nullopt, p);
                      },
                      {}, options_.publish.append_retry);
          }
        }
        view_catalog_->MarkReady(name);
      });
}

Result<std::string> KadopNet::CreateViewAndWait(std::string_view xpath,
                                                std::string name) {
  Result<query::TreePattern> pattern = query::ParsePattern(xpath);
  if (!pattern.ok()) return pattern.status();
  Result<std::string> registered =
      view_catalog_->Register(pattern.value(), std::move(name));
  if (!registered.ok()) return registered.status();
  MaterializeView(registered.value());
  SyncViews();
  if (view_catalog_->Find(registered.value()) == nullptr) {
    return Status::Internal("view materialization incomplete: " +
                            registered.value());
  }
  return registered;
}

bool KadopNet::DropView(const std::string& name) {
  if (!view_catalog_->Drop(name)) return false;
  peer(FirstLivePeer())
      ->dht_peer()
      ->PutBlob("view:catalog", view_catalog_->Describe());
  return true;
}

void KadopNet::SyncViews() {
  scheduler_.RunUntilIdle();
  dht::DhtPeer* p = peer(FirstLivePeer())->dht_peer();
  view_catalog_->Resync(p);
  p->PutBlob("view:catalog", view_catalog_->Describe());
  scheduler_.RunUntilIdle();
}

Status KadopNet::SubmitQuery(NodeIndex at, std::string_view xpath,
                             const query::QueryOptions& options,
                             query::QueryClient::Callback callback) {
  Result<query::TreePattern> pattern = query::ParsePattern(xpath);
  if (!pattern.ok()) return pattern.status();
  peer(at)->query_client().Submit(pattern.value(),
                                  Plannable(options, options_.enable_dpp),
                                  std::move(callback));
  return Status::OK();
}

Result<query::QueryResult> KadopNet::QueryAndWait(
    NodeIndex at, std::string_view xpath,
    const query::QueryOptions& options) {
  std::optional<query::QueryResult> result;
  Status st = SubmitQuery(at, xpath, options,
                          [&result](query::QueryResult r) {
                            result = std::move(r);
                          });
  if (!st.ok()) return st;
  scheduler_.RunUntilIdle();
  if (!result.has_value()) {
    return Status::Internal("query did not complete");
  }
  return std::move(*result);
}

Result<FullQueryResult> KadopNet::QueryDocumentsAndWait(
    NodeIndex at, std::string_view xpath,
    const query::QueryOptions& options) {
  const double start = scheduler_.Now();
  Result<query::QueryResult> index_result = QueryAndWait(at, xpath, options);
  if (!index_result.ok()) return index_result.status();
  KADOP_ASSIGN_OR_RETURN(const query::TreePattern pattern,
                         query::ParsePattern(xpath));
  const size_t arity = pattern.size();

  FullQueryResult full;
  full.index = index_result.take();

  // Phase 2: ask the peers holding matched documents for the answers.
  std::map<NodeIndex, std::vector<DocSeq>> by_peer;
  for (const index::DocId& doc : full.index.matched_docs) {
    by_peer[doc.peer].push_back(doc.doc);
  }
  size_t pending = by_peer.size();
  dht::DhtPeer* origin = peer(at)->dht_peer();
  for (auto& [node, docs] : by_peer) {
    auto req = std::make_shared<DocQueryRequest>();
    req->pattern = std::string(xpath);
    req->docs = docs;
    origin->CallApp(node, std::move(req), TrafficCategory::kQuery,
                    [&full, &pending, arity](sim::PayloadPtr inner) {
                      TakeDocAnswers(inner, arity, &full.final_answers);
                      --pending;
                    });
  }
  scheduler_.RunUntilIdle();
  KADOP_CHECK(pending == 0, "phase-2 responses missing");
  full.total_time = scheduler_.Now() - start;
  return full;
}

Result<FullQueryResult> KadopNet::BroadcastQueryAndWait(
    NodeIndex at, std::string_view xpath) {
  Result<query::TreePattern> pattern = query::ParsePattern(xpath);
  if (!pattern.ok()) return pattern.status();
  const size_t arity = pattern.value().size();
  const double start = scheduler_.Now();
  FullQueryResult full;
  dht::DhtPeer* origin = peer(at)->dht_peer();
  size_t pending = 0;
  for (size_t node = 0; node < peers_.size(); ++node) {
    if (!network_->IsNodeUp(static_cast<NodeIndex>(node))) continue;
    auto req = std::make_shared<DocQueryRequest>();
    req->pattern = std::string(xpath);
    req->all_docs = true;
    ++pending;
    origin->CallApp(static_cast<NodeIndex>(node), std::move(req),
                    TrafficCategory::kQuery,
                    [&full, &pending, arity](sim::PayloadPtr inner) {
                      TakeDocAnswers(inner, arity, &full.final_answers);
                      --pending;
                    });
  }
  scheduler_.RunUntilIdle();
  KADOP_CHECK(pending == 0, "broadcast responses missing");
  full.total_time = scheduler_.Now() - start;
  return full;
}

Result<std::string> KadopNet::LookupDocUriAndWait(NodeIndex at,
                                                  const index::DocId& doc) {
  const std::string key = "doc:" + std::to_string(doc.peer) + ":" +
                          std::to_string(doc.doc);
  // Shared with the callback: without a retry policy a lookup sent toward
  // a crashed owner never calls back, and its request outlives this frame.
  auto got = std::make_shared<Result<std::string>>(
      Status::Internal("blob lookup got no reply"));
  peer(at)->dht_peer()->GetBlob(
      key, [got](Result<std::string> uri) { *got = std::move(uri); });
  scheduler_.RunUntilIdle();
  if (got->status().IsNotFound()) {
    return Status::NotFound("no Doc-relation entry for " + doc.ToString());
  }
  return *got;  // kDeadlineExceeded when the retry budget ran out
}

Result<std::string> KadopNet::ExplainQueryAndWait(
    NodeIndex at, std::string_view xpath,
    const query::QueryOptions& requested) {
  const query::QueryOptions options =
      Plannable(requested, options_.enable_dpp);
  Result<query::TreePattern> parsed = query::ParsePattern(xpath);
  if (!parsed.ok()) return parsed.status();
  const query::TreePattern pattern = parsed.take();

  // The planning round kAuto runs, and its plan.
  dht::DhtPeer* origin = peer(at)->dht_peer();
  const auto dirs =
      query::FetchTermDirectories(origin, pattern, options.fetch_retry, {});
  scheduler_.RunUntilIdle();
  std::string unreachable;
  for (size_t node = 0; node < pattern.size(); ++node) {
    const query::TermDirectory& dir = (*dirs)[node];
    if (dir.answered && dir.status.ok()) continue;
    if (!unreachable.empty()) unreachable += ", ";
    unreachable += '\'';
    unreachable += pattern.node(node).TermKey();
    unreachable += dir.answered ? "' (retry budget exhausted)" : "' (no reply)";
  }
  if (!unreachable.empty()) {
    return Status::Unavailable("no directory for " + unreachable);
  }
  const std::optional<query::ViewCatalog::Rewrite> rewrite =
      view_catalog_->FindRewrite(pattern, origin);
  const query::QueryPlan plan =
      query::PlanQuery(pattern, *dirs, rewrite, options, at);

  std::string out = "pattern: " + pattern.ToString() + "\n";
  const query::PatternAnalysis analysis = query::AnalyzePattern(pattern);
  out += "index query: ";
  out += analysis.complete ? "complete" : "INCOMPLETE";
  out += ", ";
  out += analysis.precise ? "precise" : "IMPRECISE";
  if (!analysis.notes.empty()) out += " (" + analysis.notes + ")";
  out += "\nterms:\n";
  for (size_t node = 0; node < pattern.size(); ++node) {
    const size_t blocks = (*dirs)[node].blocks.size();
    out += "  [" + std::to_string(node) + "] " +
           pattern.node(node).TermKey() + ": " +
           std::to_string(plan.term_counts[node]) + " postings in " +
           std::to_string(blocks) + (blocks == 1 ? " block\n" : " blocks\n");
  }
  if (plan.view.has_value()) {
    out += "view rewrite: " + rewrite->name +
           (rewrite->match.exact ? " (exact" : " (containment") +
           ", extent=" + std::to_string(plan.view->extent_postings) +
           " postings, residual=" +
           std::to_string(plan.view->residual_postings) + " postings)\n";
  }
  out += "strategy cost estimates:\n";
  for (const auto& c : plan.costs) {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "  %-18s bytes=%.0f bottleneck=%.0f",
                  std::string(query::QueryStrategyName(c.strategy)).c_str(),
                  c.bytes, c.bottleneck_bytes);
    out += line;
    if (c.strategy == query::QueryStrategy::kSubQueryReducer) {
      // The postings each on-path owner pulls from its overflow holders
      // before the reduction starts.
      out += " gather";
      for (const int q : plan.sub_query_path) {
        out += " [" + std::to_string(q) +
               "]=" + std::to_string(plan.overflow[static_cast<size_t>(q)]);
      }
    }
    out += '\n';
  }
  out += "auto would run: ";
  out += query::QueryStrategyName(plan.pick);
  out += "\n";
  if (options.dpp_available && options.dpp_join_available) {
    // The tasks a kDppJoin run would dispatch, each with its window and
    // the home block it would be joined at.
    out += "dpp-join tasks: " + std::to_string(plan.tasks.size()) + "\n";
    for (size_t t = 0; t < plan.tasks.size(); ++t) {
      const query::JoinTaskPlan& task = plan.tasks[t];
      const index::DppBlockInfo& home =
          task.inputs[task.home_node][task.home_block];
      char estimate[96];
      std::snprintf(estimate, sizeof(estimate),
                    " ~%.0f of %llu postings in window",
                    task.home_postings,
                    static_cast<unsigned long long>(home.count));
      out += "  [" + std::to_string(t) + "] docs " +
             task.window.MinDoc().ToString() + ".." +
             task.window.MaxDoc().ToString() + " home " + home.key +
             estimate;
      // Every other input: held by the home's named holder too, pushed to
      // the home by its holder, or asked for by the home itself.
      std::string inputs;
      for (size_t node = 0; node < task.inputs.size(); ++node) {
        for (size_t idx = 0; idx < task.inputs[node].size(); ++idx) {
          if (node == task.home_node && idx == task.home_block) continue;
          const index::DppBlockInfo& input = task.inputs[node][idx];
          const bool local =
              home.holder.has_value() && input.holder == home.holder;
          const char* how = task.pushed[node][idx] ? " (pushed)"
                            : local                ? " (local)"
                                                   : " (asked)";
          inputs += " " + input.key + how;
        }
      }
      if (!inputs.empty()) out += ";" + inputs;
      out += '\n';
    }
  }
  return out;
}

Result<fundex::FundexQueryResult> KadopNet::FundexQueryAndWait(
    NodeIndex at, std::string_view xpath, fundex::IntensionalMode mode) {
  Result<query::TreePattern> pattern = query::ParsePattern(xpath);
  if (!pattern.ok()) return pattern.status();
  std::optional<fundex::FundexQueryResult> result;
  fundex::RunFundexQuery(peer(at)->dht_peer(), pattern.value(), mode,
                         [&result](fundex::FundexQueryResult r) {
                           result = std::move(r);
                         });
  scheduler_.RunUntilIdle();
  if (!result.has_value()) {
    return Status::Internal("fundex query did not complete");
  }
  return std::move(*result);
}

// ---------------------------------------------------------------------------
// KadopStats

KadopStats KadopNet::Stats() {
  KadopStats s;
  s.peers = peers_.size();
  s.now = scheduler_.Now();
  s.executed_events = scheduler_.executed_events();
  s.traffic = network_->traffic();
  s.metrics = obs::MetricRegistry::Default().Snapshot();
  return s;
}

namespace {

void AppendLine(std::string& out, const char* key, uint64_t value) {
  out += key;
  out += '=';
  out += std::to_string(value);
  out += '\n';
}

}  // namespace

std::string KadopStats::ToText() const {
  std::string out;
  AppendLine(out, "peers", peers);
  out += "now=";
  out += obs::JsonWriter::FormatDouble(now);
  out += '\n';
  AppendLine(out, "executed_events", executed_events);
  AppendLine(out, "traffic.messages", traffic.messages);
  AppendLine(out, "traffic.bytes", traffic.bytes);
  for (size_t c = 0;
       c < static_cast<size_t>(sim::TrafficCategory::kCategoryCount); ++c) {
    const auto cat = static_cast<sim::TrafficCategory>(c);
    std::string key = "traffic.";
    key += sim::TrafficCategoryName(cat);
    AppendLine(out, (key + ".messages").c_str(),
               traffic.messages_by_category[c]);
    AppendLine(out, (key + ".bytes").c_str(), traffic.bytes_by_category[c]);
  }
  out += "--- metrics ---\n";
  out += metrics.ToText();
  return out;
}

std::string KadopStats::ToJson() const {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("peers");
  w.Value(static_cast<uint64_t>(peers));
  w.Key("now");
  w.Value(now);
  w.Key("executed_events");
  w.Value(executed_events);
  w.Key("traffic");
  w.BeginObject();
  w.Key("messages");
  w.Value(traffic.messages);
  w.Key("bytes");
  w.Value(traffic.bytes);
  w.Key("by_category");
  w.BeginObject();
  for (size_t c = 0;
       c < static_cast<size_t>(sim::TrafficCategory::kCategoryCount); ++c) {
    const auto cat = static_cast<sim::TrafficCategory>(c);
    w.Key(sim::TrafficCategoryName(cat));
    w.BeginObject();
    w.Key("messages");
    w.Value(traffic.messages_by_category[c]);
    w.Key("bytes");
    w.Value(traffic.bytes_by_category[c]);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  w.Key("metrics");
  metrics.AppendJson(w);
  w.EndObject();
  return std::move(w).str();
}

}  // namespace kadop::core
