#include "index/publisher.h"

#include <set>
#include <utility>

#include "common/logging.h"
#include "obs/metrics.h"

namespace kadop::index {

namespace {

struct PublishCounters {
  obs::Counter* batches;
  obs::Counter* documents;
  obs::Counter* postings;

  PublishCounters() {
    auto& r = obs::MetricRegistry::Default();
    batches = r.GetCounter("publish.batches");
    documents = r.GetCounter("publish.documents");
    postings = r.GetCounter("publish.postings");
  }
};

PublishCounters& C() {
  static PublishCounters counters;
  return counters;
}

}  // namespace

Publisher::Publisher(dht::DhtPeer* peer, DocStore* doc_store,
                     PublishOptions options)
    : peer_(peer), doc_store_(doc_store), options_(options) {
  KADOP_CHECK(peer_ != nullptr && doc_store_ != nullptr,
              "Publisher requires a peer and a doc store");
}

void Publisher::AckOne() {
  KADOP_CHECK(outstanding_acks_ > 0, "spurious append ack");
  if (--outstanding_acks_ != 0) return;
  // Every base batch and derived delta of this publish is settled; the
  // completion hook observes the post-publish index before `on_done`.
  if (options_.on_complete) options_.on_complete(peer_);
  if (on_done_) {
    auto done = std::move(on_done_);
    on_done_ = nullptr;
    done();
  }
}

void Publisher::Flush(const std::string& key, Buffer buffer) {
  if (buffer.postings.empty()) return;
  C().batches->Increment();
  outstanding_acks_++;
  std::vector<std::string> types(buffer.types.begin(), buffer.types.end());
  peer_->Append(
      key, std::move(buffer.postings),
      [this](Status st) {
        if (!st.ok()) {
          KADOP_LOG_INFO("publish batch failed: %s", st.ToString().c_str());
        }
        AckOne();
      },
      std::move(types), options_.append_retry);
}

bool Publisher::Unpublish(DocSeq seq) {
  const xml::Document* doc = doc_store_->Unregister(seq);
  if (doc == nullptr) return false;
  // One traversal rebuilds the document's term keys; a whole-document
  // delete goes to each responsible peer.
  std::vector<TermPosting> postings;
  ExtractTerms(*doc, peer_->node(), seq, options_.extract, postings);
  std::set<std::string> keys;
  for (const auto& tp : postings) keys.insert(tp.key);
  const DocId doc_id{peer_->node(), seq};
  for (const std::string& key : keys) {
    peer_->DeleteDoc(key, doc_id);
  }
  // Drop the Doc-relation entry as well.
  peer_->DeleteBlobKey("doc:" + std::to_string(peer_->node()) + ":" +
                       std::to_string(seq));
  // Derived state (view extents) is withdrawn after the base index: the
  // hook's directory probes then observe post-delete authoritative counts.
  if (options_.on_unpublish) {
    options_.on_unpublish(peer_, *doc, peer_->node(), seq, postings);
  }
  return true;
}

void Publisher::Publish(const std::vector<const xml::Document*>& docs,
                        std::function<void()> on_done) {
  KADOP_CHECK(on_done_ == nullptr, "publish already in progress");
  on_done_ = std::move(on_done);
  // Hold one virtual ack so completion can't fire before all batches are
  // issued.
  outstanding_acks_ = 1;

  std::map<std::string, Buffer> buffers;
  for (const xml::Document* doc : docs) {
    KADOP_CHECK(doc != nullptr, "null document");
    const DocSeq seq = doc_store_->Register(doc);
    C().documents->Increment();
    peer_->PutBlob("doc:" + std::to_string(peer_->node()) + ":" +
                       std::to_string(seq),
                   doc->uri);

    // A document's type is its root label (the paper also supports
    // user-specified or schema-inferred types).
    const std::string doc_type = doc->root ? doc->root->label() : "";
    std::vector<TermPosting> postings;
    ExtractTerms(*doc, peer_->node(), seq, options_.extract, postings);
    C().postings->Increment(postings.size());
    if (options_.derive) {
      // Derived batches (view deltas) ride the same acked append path as
      // base batches and hold this publish open until applied, but are not
      // counted in the publish.* base-index stats.
      for (DerivedAppend& derived :
           options_.derive(peer_, *doc, peer_->node(), seq, postings)) {
        outstanding_acks_++;
        peer_->Append(
            derived.key, std::move(derived.postings),
            [this, on_ack = std::move(derived.on_ack)](Status st) {
              if (on_ack) on_ack(st);
              AckOne();
            },
            {}, options_.append_retry);
      }
    }
    for (auto& tp : postings) {
      Buffer& buffer = buffers[tp.key];
      buffer.postings.push_back(tp.posting);
      if (!doc_type.empty()) buffer.types.insert(doc_type);
      if (buffer.postings.size() >= options_.batch_postings) {
        Flush(tp.key, std::move(buffer));
        buffer = Buffer();
      }
    }
  }
  for (auto& [key, buffer] : buffers) {
    Flush(key, std::move(buffer));
  }
  // Release the virtual ack.
  AckOne();
}

}  // namespace kadop::index
