#include "fundex/fundex.h"

#include <algorithm>
#include <utility>

#include "common/hash.h"
#include "common/logging.h"
#include "index/codec.h"
#include "index/terms.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "xml/parser.h"

namespace kadop::fundex {

namespace {

struct FundexCounters {
  obs::Counter* functions_indexed;
  obs::Counter* duplicate_requests;
  obs::Counter* rev_entries;
  obs::Counter* rev_lookups;
  obs::Counter* completion_joins;

  FundexCounters() {
    auto& r = obs::MetricRegistry::Default();
    functions_indexed = r.GetCounter("fundex.functions_indexed");
    duplicate_requests = r.GetCounter("fundex.duplicate_requests");
    rev_entries = r.GetCounter("fundex.rev_entries");
    rev_lookups = r.GetCounter("fundex.rev_lookups");
    completion_joins = r.GetCounter("fundex.completion_joins");
  }
};

FundexCounters& FX() {
  static FundexCounters counters;
  return counters;
}

}  // namespace

using index::DocSeq;
using index::Posting;
using index::PostingList;
using sim::TrafficCategory;

std::string_view IntensionalModeName(IntensionalMode mode) {
  switch (mode) {
    case IntensionalMode::kNaive:
      return "naive";
    case IntensionalMode::kFundexSimple:
      return "fundex-simple";
    case IntensionalMode::kFundexRepresentative:
      return "fundex-representative";
    case IntensionalMode::kInline:
      return "inlining";
  }
  return "unknown";
}

std::string AnyWordKey() { return "w:\x01anyword"; }

DocSeq FidSeq(const std::string& uri) {
  return 0x80000000u | (static_cast<uint32_t>(Fnv1a64(uri)) & 0x7fffffffu);
}

std::string RevKey(DocSeq fid_seq) {
  return "rev:" + std::to_string(fid_seq);
}

std::string FunKey(const std::string& uri) { return "fun:" + uri; }

bool IsFunctionalDoc(const Posting& p) { return (p.doc & 0x80000000u) != 0; }

// ---------------------------------------------------------------------------
// FundexService

FundexService::FundexService(dht::DhtPeer* peer, index::DocStore* doc_store,
                             Resolver resolver)
    : peer_(peer), doc_store_(doc_store), resolver_(std::move(resolver)) {
  KADOP_CHECK(peer_ != nullptr && doc_store_ != nullptr,
              "FundexService requires a peer and doc store");
}

namespace {

/// Collects every element of a subtree (for AnyWord markers).
void CollectElements(xml::Node* node, std::vector<xml::Node*>& out) {
  if (!node->IsElement()) return;
  out.push_back(node);
  for (const auto& child : node->children()) {
    CollectElements(child.get(), out);
  }
}

void ExpandInto(const xml::Node& src, xml::Node* dst,
                const xml::Document& doc, const Resolver& resolver,
                xml::StructuralSummary* summary,
                std::vector<xml::Node*>& skeleton) {
  const bool representative = summary != nullptr;
  for (const auto& child : src.children()) {
    if (child->IsEntityRef()) {
      auto it = doc.entities.find(child->label());
      const xml::Document* target =
          it == doc.entities.end() ? nullptr : resolver(it->second);
      if (target == nullptr || target->root == nullptr) continue;
      if (representative) {
        // Fold the target into the inferred type summary, then splice the
        // type's representative instance (not the instance itself): the
        // paper's representative-data-indexing with a DataGuide standing
        // in for the schema/DTD.
        summary->AddSubtree(*target->root);
        std::unique_ptr<xml::Node> instance =
            summary->RepresentativeInstance(target->root->label());
        if (instance != nullptr) {
          CollectElements(instance.get(), skeleton);
          dst->AddChild(std::move(instance));
        }
      } else {
        // In-lining: splice a full copy of the target (recursively
        // expanding nested includes against the target's own entities).
        auto copy = xml::Node::Element(target->root->label());
        ExpandInto(*target->root, copy.get(), *target, resolver,
                   /*summary=*/nullptr, skeleton);
        dst->AddChild(std::move(copy));
      }
      continue;
    }
    if (child->IsText()) {
      dst->AddText(child->text());
      continue;
    }
    auto elem = xml::Node::Element(child->label());
    xml::Node* raw = dst->AddChild(std::move(elem));
    ExpandInto(*child, raw, doc, resolver, summary, skeleton);
  }
}

bool HasEntityRefs(const xml::Node& node) {
  if (node.IsEntityRef()) return true;
  for (const auto& child : node.children()) {
    if (HasEntityRefs(*child)) return true;
  }
  return false;
}

void CollectEntityRefs(
    const xml::Node& node,
    std::vector<std::pair<std::string, xml::StructuralId>>& refs) {
  if (node.IsEntityRef()) {
    refs.emplace_back(node.label(), node.sid());
    return;
  }
  for (const auto& child : node.children()) CollectEntityRefs(*child, refs);
}

}  // namespace

std::unique_ptr<xml::Document> FundexService::Expand(
    const xml::Document& doc, bool representative) {
  auto expanded = std::make_unique<xml::Document>();
  expanded->uri = doc.uri;
  std::vector<xml::Node*> skeleton;
  expanded->root = xml::Node::Element(doc.root->label());
  ExpandInto(*doc.root, expanded->root.get(), doc, resolver_,
             representative ? &summary_ : nullptr, skeleton);
  xml::AnnotateSids(*expanded);
  if (representative && !skeleton.empty()) {
    // AnyWord markers: each skeleton element "may contain any word".
    // Issued as ordinary postings under the reserved key, one level deeper
    // than the element, exactly like a word posting.
    const DocSeq seq = static_cast<DocSeq>(doc_store_->size()) +
                       static_cast<DocSeq>(pending_marker_docs_);
    PostingList markers;
    for (const xml::Node* n : skeleton) {
      xml::StructuralId sid = n->sid();
      sid.level += 1;
      markers.push_back(Posting{peer_->node(), seq, sid});
    }
    std::sort(markers.begin(), markers.end());
    peer_->Append(AnyWordKey(), std::move(markers));
  }
  return expanded;
}

void FundexService::EmitFunctionCalls(const xml::Document& doc,
                                      DocSeq doc_seq) {
  std::vector<std::pair<std::string, xml::StructuralId>> refs;
  if (doc.root) CollectEntityRefs(*doc.root, refs);
  for (const auto& [name, sid] : refs) {
    auto it = doc.entities.find(name);
    if (it == doc.entities.end()) continue;
    const std::string& uri = it->second;
    // Rev: fid -> occurrences of the call (the entity-ref position, which
    // already carries the parent element's interval one level deeper).
    FX().rev_entries->Increment();
    peer_->Append(RevKey(FidSeq(uri)),
                  {Posting{peer_->node(), doc_seq, sid}});
    // Ask the peer in charge of fun:<uri> to materialize and index it.
    auto req = std::make_shared<IndexFunctionRequest>();
    req->uri = uri;
    peer_->RouteApp(FunKey(uri), std::move(req), TrafficCategory::kPublish,
                    nullptr);
  }
}

void FundexService::Publish(const std::vector<const xml::Document*>& docs,
                            IntensionalMode mode,
                            index::PublishOptions options,
                            std::function<void()> on_done) {
  std::vector<const xml::Document*> to_publish;
  to_publish.reserve(docs.size());
  const DocSeq start_seq = static_cast<DocSeq>(doc_store_->size());

  pending_marker_docs_ = 0;
  for (const xml::Document* doc : docs) {
    const bool intensional = doc->root && HasEntityRefs(*doc->root);
    if (intensional && (mode == IntensionalMode::kInline ||
                        mode == IntensionalMode::kFundexRepresentative)) {
      owned_docs_.push_back(Expand(
          *doc, mode == IntensionalMode::kFundexRepresentative));
      to_publish.push_back(owned_docs_.back().get());
    } else {
      to_publish.push_back(doc);
    }
    ++pending_marker_docs_;
  }

  auto publisher = std::make_shared<index::Publisher>(peer_, doc_store_,
                                                      options);
  publisher->Publish(to_publish, [publisher, on_done = std::move(on_done)]() {
    if (on_done) on_done();
  });

  if (mode == IntensionalMode::kFundexSimple) {
    for (size_t i = 0; i < docs.size(); ++i) {
      EmitFunctionCalls(*docs[i], start_seq + static_cast<DocSeq>(i));
    }
  }
}

void FundexService::IndexFunction(const std::string& uri) {
  if (!indexed_functions_.insert(uri).second) {
    FX().duplicate_requests->Increment();
    return;  // already materialized and indexed — nothing to do
  }
  const xml::Document* doc = resolver_(uri);
  if (doc == nullptr) return;
  FX().functions_indexed->Increment();

  // Materialization: the function result is produced locally (modelled as
  // a disk-sized scan), indexed under the functional id, then discarded.
  const std::string serialized = xml::SerializeDocument(*doc);
  peer_->ScheduleAfterDisk(static_cast<double>(serialized.size()),
                           /*write_bytes=*/0, []() {});

  std::vector<index::TermPosting> postings;
  index::ExtractTerms(*doc, peer_->node(), FidSeq(uri), {}, postings);
  std::map<std::string, PostingList> buffers;
  for (auto& tp : postings) buffers[tp.key].push_back(tp.posting);
  for (auto& [key, list] : buffers) {
    peer_->Append(key, std::move(list));
  }
}

bool FundexService::HandleApp(const dht::AppRequest& request,
                              sim::NodeIndex /*from*/) {
  if (const auto* req =
          dynamic_cast<const IndexFunctionRequest*>(request.inner.get())) {
    IndexFunction(req->uri);
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Fundex-aware query evaluation

namespace {

struct FundexQueryContext
    : public std::enable_shared_from_this<FundexQueryContext> {
  dht::DhtPeer* peer;
  query::TreePattern pattern;
  IntensionalMode mode;
  std::function<void(FundexQueryResult)> callback;

  double start_time = 0.0;
  std::vector<PostingList> streams;
  size_t pending = 0;
  FundexQueryResult result;
  bool rev_phase_started = false;

  void FetchLists() {
    auto self = shared_from_this();
    streams.resize(pattern.size());
    pending = pattern.size();
    const bool wants_anyword =
        mode == IntensionalMode::kFundexRepresentative;
    for (size_t node = 0; node < pattern.size(); ++node) {
      peer->Get(pattern.node(node).TermKey(),
                [self, node](dht::GetResult got) {
                  self->result.posting_bytes +=
                      index::codec::RawBytes(got.postings);
                  self->streams[node] = std::move(got.postings);
                  if (--self->pending == 0) self->AfterLists();
                });
    }
    if (wants_anyword) {
      pending++;
      peer->Get(AnyWordKey(), [self](dht::GetResult got) {
        self->result.posting_bytes += index::codec::RawBytes(got.postings);
        self->anyword = std::move(got.postings);
        if (--self->pending == 0) self->AfterLists();
      });
    }
  }

  PostingList anyword;

  void AfterLists() {
    if (mode == IntensionalMode::kFundexSimple) {
      StartRevPhase();
      return;
    }
    if (mode == IntensionalMode::kFundexRepresentative) {
      for (size_t node = 0; node < pattern.size(); ++node) {
        if (pattern.node(node).kind != query::NodeKind::kWord) continue;
        streams[node].insert(streams[node].end(), anyword.begin(),
                             anyword.end());
      }
    }
    FinishJoin();
  }

  void StartRevPhase() {
    // Map functional matches (virtual documents) back through Rev to the
    // citing elements, per word node.
    rev_phase_started = true;
    auto self = shared_from_this();
    pending = 1;  // guard
    for (size_t node = 0; node < pattern.size(); ++node) {
      if (pattern.node(node).kind != query::NodeKind::kWord) continue;
      PostingList extensional;
      std::set<DocSeq> fids;
      for (const Posting& p : streams[node]) {
        if (IsFunctionalDoc(p)) {
          fids.insert(p.doc);
        } else {
          extensional.push_back(p);
        }
      }
      streams[node] = std::move(extensional);
      for (DocSeq fid : fids) {
        pending++;
        result.rev_lookups++;
        FX().rev_lookups->Increment();
        peer->Get(RevKey(fid), [self, node](dht::GetResult got) {
          self->result.posting_bytes +=
              index::codec::RawBytes(got.postings);
          PostingList& stream = self->streams[node];
          stream.insert(stream.end(), got.postings.begin(),
                        got.postings.end());
          if (--self->pending == 0) self->FinishJoin();
        });
      }
    }
    if (--pending == 0) FinishJoin();
  }

  void FinishJoin() {
    // The completion join: re-join extensional postings with the Rev-mapped
    // citing elements (a no-op mapping for the extensional mode).
    FX().completion_joins->Increment();
    obs::Tracer::Default().Event("fundex.completion_join");
    query::TwigJoin join(pattern);
    for (size_t node = 0; node < pattern.size(); ++node) {
      std::sort(streams[node].begin(), streams[node].end());
      streams[node].erase(
          std::unique(streams[node].begin(), streams[node].end()),
          streams[node].end());
      join.Append(node, streams[node]);
      join.Close(node);
    }
    join.Advance();
    result.answers = join.answers();
    result.matched_docs = join.matched_docs();
    result.response_time = peer->network()->Now() - start_time;
    if (callback) callback(std::move(result));
  }
};

}  // namespace

void RunFundexQuery(dht::DhtPeer* peer, const query::TreePattern& pattern,
                    IntensionalMode mode,
                    std::function<void(FundexQueryResult)> callback) {
  auto ctx = std::make_shared<FundexQueryContext>();
  ctx->peer = peer;
  ctx->pattern = pattern;
  ctx->mode = mode;
  ctx->callback = std::move(callback);
  ctx->start_time = peer->network()->Now();
  ctx->FetchLists();
}

}  // namespace kadop::fundex
