#ifndef KADOP_FUNDEX_FUNDEX_H_
#define KADOP_FUNDEX_FUNDEX_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "dht/peer.h"
#include "index/doc_store.h"
#include "index/publisher.h"
#include "query/executor.h"
#include "query/tree_pattern.h"
#include "sim/message.h"
#include "xml/node.h"
#include "xml/schema.h"

namespace kadop::fundex {

/// How intensional data (XML entity includes / function calls, Section 6)
/// is indexed.
enum class IntensionalMode : uint8_t {
  /// Index documents as they are; intensional content is invisible to the
  /// index (incomplete answers — the paper's "naive").
  kNaive = 0,
  /// The Fundex: functional documents are materialized and indexed once,
  /// under a functional id; the Rev relation maps fids back to the
  /// elements holding the calls, and queries complete potential answers
  /// with a theta-join.
  kFundexSimple = 1,
  /// Representative-data-indexing: a label-only skeleton of the target is
  /// indexed in place of the include, with "any word" markers; value
  /// conditions under intensional nodes are ignored (lossy: full recall,
  /// reduced precision, no backward-pointer chasing).
  kFundexRepresentative = 2,
  /// In-lining: includes are expanded before indexing (from the indexing
  /// viewpoint only). Most precise; re-indexes shared content per
  /// occurrence.
  kInline = 3,
};

[[nodiscard]] std::string_view IntensionalModeName(IntensionalMode mode);

/// Resolves a function call / include target to its document ("calling"
/// f(u)). In the simulation, a lookup into the generated corpus.
using Resolver =
    std::function<const xml::Document*(const std::string& uri)>;

/// The reserved word key whose postings mark representative skeleton
/// elements ("may contain any word").
[[nodiscard]] std::string AnyWordKey();

/// Rev-relation DHT key for a functional sequence id.
[[nodiscard]] std::string RevKey(index::DocSeq fid_seq);
/// Function-call DHT key for a target uri.
[[nodiscard]] std::string FunKey(const std::string& uri);
/// Functional document sequence id: high bit set + 31 bits of the uri hash.
[[nodiscard]] index::DocSeq FidSeq(const std::string& uri);
/// True if a posting belongs to a functional (virtual) document.
[[nodiscard]] bool IsFunctionalDoc(const index::Posting& p);

/// Routed request asking the peer in charge of `fun:<uri>` to materialize
/// and index the function result (idempotent: re-requests are no-ops).
struct IndexFunctionRequest final : sim::Payload {
  std::string uri;

  size_t SizeBytes() const override { return uri.size() + 8; }
  std::string_view TypeName() const override {
    return "IndexFunctionRequest";
  }
};

/// Per-peer Fundex service: publishing-side handling of intensional data
/// and the owner role for `fun:` keys.
class FundexService {
 public:
  FundexService(dht::DhtPeer* peer, index::DocStore* doc_store,
                Resolver resolver);

  FundexService(const FundexService&) = delete;
  FundexService& operator=(const FundexService&) = delete;

  /// Publishes documents under the given intensional mode. Documents with
  /// no entity references behave identically in all modes. `on_done` fires
  /// when all postings (including function indexing triggered here) have
  /// been issued and acked.
  void Publish(const std::vector<const xml::Document*>& docs,
               IntensionalMode mode, index::PublishOptions options,
               std::function<void()> on_done);

  /// Handles `fun:` owner messages; false if not a Fundex payload.
  [[nodiscard]] bool HandleApp(const dht::AppRequest& request, sim::NodeIndex from);

  /// The structural summary inferred from the intensional targets seen so
  /// far (the "schema" behind the representative instances).
  const xml::StructuralSummary& summary() const { return summary_; }

 private:
  /// Returns a deep copy of `doc` with every entity reference replaced by
  /// the resolved target subtree (in-lining) or by its label-only skeleton
  /// with AnyWord markers (representative). Re-annotates sids.
  std::unique_ptr<xml::Document> Expand(const xml::Document& doc,
                                        bool representative);
  /// Emits Rev entries and function-indexing requests for `doc`.
  void EmitFunctionCalls(const xml::Document& doc, index::DocSeq doc_seq);
  /// Indexes a functional document under its fid (owner role).
  void IndexFunction(const std::string& uri);

  dht::DhtPeer* peer_;
  index::DocStore* doc_store_;
  Resolver resolver_;
  /// Documents already processed within the current Publish call; used to
  /// pre-compute the DocSeq the publisher will assign.
  size_t pending_marker_docs_ = 0;
  std::set<std::string> indexed_functions_;
  /// Inferred type summary of intensional targets (representative mode).
  xml::StructuralSummary summary_;
  /// Expanded document copies must outlive the simulation.
  std::vector<std::unique_ptr<xml::Document>> owned_docs_;
};

/// Result of a Fundex-aware index query.
struct FundexQueryResult {
  std::vector<query::Answer> answers;
  std::vector<index::DocId> matched_docs;
  double response_time = 0.0;
  uint64_t posting_bytes = 0;
  uint64_t rev_lookups = 0;
  bool complete = true;
};

/// Runs an index query under the given intensional mode (Section 6 query
/// processing): fetches the term lists, and for kFundexSimple maps
/// functional matches through the Rev relation back to the citing
/// elements before the final twig join. For kFundexRepresentative, word
/// streams are widened with the AnyWord markers instead.
void RunFundexQuery(dht::DhtPeer* peer, const query::TreePattern& pattern,
                    IntensionalMode mode,
                    std::function<void(FundexQueryResult)> callback);

}  // namespace kadop::fundex

#endif  // KADOP_FUNDEX_FUNDEX_H_
