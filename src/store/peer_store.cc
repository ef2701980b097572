#include "store/peer_store.h"

#include <algorithm>

#include "common/logging.h"
#include "index/codec.h"
#include "obs/metrics.h"

namespace kadop::store {

using index::DocId;
using index::Posting;
using index::PostingList;

namespace {

struct StoreCounters {
  obs::Counter* operations;
  obs::Counter* read_bytes;
  obs::Counter* write_bytes;

  StoreCounters() {
    auto& r = obs::MetricRegistry::Default();
    operations = r.GetCounter("store.operations");
    read_bytes = r.GetCounter("store.read_bytes");
    write_bytes = r.GetCounter("store.write_bytes");
  }
};

StoreCounters& C() {
  static StoreCounters counters;
  return counters;
}

}  // namespace

namespace internal {

void CountBTreeSplit() {
  static obs::Counter* splits =
      obs::MetricRegistry::Default().GetCounter("store.btree.splits");
  splits->Increment();
}

}  // namespace internal

namespace {

/// Each store instance gets its own version epoch: versions from a store
/// that no longer owns a key (handoff, crash takeover) can never collide
/// with the new owner's.
uint64_t NextStoreEpoch() {
  static uint64_t epoch = 0;
  return ++epoch;
}

}  // namespace

PeerStore::PeerStore() : version_epoch_(NextStoreEpoch() << 32) {}

uint64_t PeerStore::PostingVersion(const std::string& key) const {
  auto it = posting_versions_.find(key);
  return it == posting_versions_.end() ? 0 : it->second;
}

void PeerStore::BumpPostingVersion(const std::string& key) {
  ++posting_versions_.try_emplace(key, version_epoch_).first->second;
}

void PeerStore::ChargeIo(uint64_t read, uint64_t write) {
  io_.operations++;
  C().operations->Increment();
  AddIoBytes(read, write);
}

void PeerStore::AddIoBytes(uint64_t read, uint64_t write) {
  io_.read_bytes += read;
  io_.write_bytes += write;
  if (read > 0) C().read_bytes->Increment(read);
  if (write > 0) C().write_bytes->Increment(write);
}

// ---------------------------------------------------------------------------
// BTreePeerStore

uint32_t BTreePeerStore::InternTerm(const std::string& key) {
  auto [it, inserted] =
      term_ids_.emplace(key, static_cast<uint32_t>(term_names_.size()));
  if (inserted) term_names_.push_back(key);
  return it->second;
}

bool BTreePeerStore::LookupTerm(const std::string& key, uint32_t& id) const {
  auto it = term_ids_.find(key);
  if (it == term_ids_.end()) return false;
  id = it->second;
  return true;
}

void BTreePeerStore::AppendPosting(const std::string& key,
                                   const Posting& posting) {
  const uint32_t tid = InternTerm(key);
  if (tree_.InsertOrAssign(TreeKey{tid, posting}, Empty{})) {
    ++counts_[tid];
    BumpPostingVersion(key);
  }
  // Append charge is amortized: only the appended record is (re-)encoded,
  // never the whole stored list.
  ChargeIo(0, index::codec::EncodedSingleBytes(posting));
}

void BTreePeerStore::AppendPostings(const std::string& key,
                                    const PostingList& postings) {
  if (postings.empty()) return;
  const uint32_t tid = InternTerm(key);
  bool changed = false;
  for (const Posting& p : postings) {
    if (tree_.InsertOrAssign(TreeKey{tid, p}, Empty{})) {
      ++counts_[tid];
      changed = true;
    }
  }
  if (changed) BumpPostingVersion(key);
  // One operation per batch, charged at the batch's encoded size: the
  // appended run is written once, as one stream.
  ChargeIo(0, index::codec::EncodedBytes(postings));
}

PostingList BTreePeerStore::GetPostings(const std::string& key) {
  return GetPostingRange(key, index::kMinPosting, index::kMaxPosting, 0);
}

PostingList BTreePeerStore::GetPostingRange(const std::string& key,
                                            const Posting& lo,
                                            const Posting& hi, size_t limit) {
  PostingList out;
  uint32_t tid;
  if (!LookupTerm(key, tid)) return out;
  auto it = tree_.Seek(TreeKey{tid, lo});
  while (it.Valid() && it.key().term_id == tid && !(hi < it.key().posting)) {
    out.push_back(it.key().posting);
    if (limit != 0 && out.size() >= limit) break;
    it.Next();
  }
  ChargeIo(index::codec::EncodedBytes(out), 0);
  return out;
}

size_t BTreePeerStore::PostingCount(const std::string& key) const {
  uint32_t tid;
  if (!LookupTerm(key, tid)) return 0;
  auto it = counts_.find(tid);
  return it == counts_.end() ? 0 : it->second;
}

bool BTreePeerStore::DeletePosting(const std::string& key,
                                   const Posting& posting) {
  uint32_t tid;
  if (!LookupTerm(key, tid)) return false;
  ChargeIo(0, 0);
  if (tree_.Erase(TreeKey{tid, posting})) {
    AddIoBytes(0, index::codec::EncodedSingleBytes(posting));
    --counts_[tid];
    BumpPostingVersion(key);
    return true;
  }
  return false;
}

size_t BTreePeerStore::DeleteDocPostings(const std::string& key,
                                         const DocId& doc) {
  uint32_t tid;
  if (!LookupTerm(key, tid)) return 0;
  // Collect, then erase (iterators are invalidated by Erase).
  PostingList victims = GetPostingRange(
      key, Posting{doc.peer, doc.doc, {0, 0, 0}},
      Posting{doc.peer, doc.doc, {UINT32_MAX, UINT32_MAX, UINT16_MAX}}, 0);
  for (const Posting& p : victims) {
    KADOP_CHECK(tree_.Erase(TreeKey{tid, p}),
                "posting listed by GetPostingRange must be erasable");
    AddIoBytes(0, index::codec::EncodedSingleBytes(p));
  }
  counts_[tid] -= victims.size();
  if (!victims.empty()) BumpPostingVersion(key);
  return victims.size();
}

size_t BTreePeerStore::DeleteKey(const std::string& key) {
  uint32_t tid;
  if (!LookupTerm(key, tid)) return 0;
  PostingList victims =
      GetPostingRange(key, index::kMinPosting, index::kMaxPosting, 0);
  for (const Posting& p : victims) {
    KADOP_CHECK(tree_.Erase(TreeKey{tid, p}),
                "posting listed by GetPostingRange must be erasable");
    AddIoBytes(0, index::codec::EncodedSingleBytes(p));
  }
  counts_[tid] = 0;
  if (!victims.empty()) BumpPostingVersion(key);
  return victims.size();
}

void BTreePeerStore::PutBlob(const std::string& key, std::string blob) {
  ChargeIo(0, blob.size());
  blobs_[key] = std::move(blob);
}

const std::string* BTreePeerStore::GetBlob(const std::string& key) {
  auto it = blobs_.find(key);
  if (it == blobs_.end()) return nullptr;
  ChargeIo(it->second.size(), 0);
  return &it->second;
}

bool BTreePeerStore::DeleteBlob(const std::string& key) {
  ChargeIo(0, 0);
  return blobs_.erase(key) > 0;
}

size_t BTreePeerStore::TotalPostings() const { return tree_.size(); }

std::vector<std::string> BTreePeerStore::PostingKeys() const {
  std::vector<std::string> keys;
  for (const auto& [tid, count] : counts_) {
    if (count > 0) keys.push_back(term_names_[tid]);
  }
  // counts_ is unordered; callers replay these keys as handoff /
  // restart message sequences, so the order must not depend on the
  // stdlib's hash-bucket layout (KDP012).
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::vector<std::string> BTreePeerStore::BlobKeys() const {
  std::vector<std::string> keys;
  keys.reserve(blobs_.size());
  for (const auto& [key, blob] : blobs_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  return keys;
}

// ---------------------------------------------------------------------------
// NaivePeerStore

void NaivePeerStore::ChargeReconciliation(const PostingList& list,
                                          size_t extra) {
  const size_t old_bytes = index::codec::EncodedBytes(list);
  ChargeIo(old_bytes, old_bytes + extra);
}

void NaivePeerStore::AppendPosting(const std::string& key,
                                   const Posting& posting) {
  PostingList& list = lists_[key];
  ChargeReconciliation(list, index::codec::EncodedSingleBytes(posting));
  auto it = std::lower_bound(list.begin(), list.end(), posting);
  if (it == list.end() || *it != posting) {
    list.insert(it, posting);
    BumpPostingVersion(key);
  }
}

void NaivePeerStore::AppendPostings(const std::string& key,
                                    const PostingList& postings) {
  PostingList& list = lists_[key];
  // One reconciliation per batch: read old value once, write merged once.
  ChargeReconciliation(list, index::codec::EncodedBytes(postings));
  bool changed = false;
  for (const Posting& p : postings) {
    auto it = std::lower_bound(list.begin(), list.end(), p);
    if (it == list.end() || *it != p) {
      list.insert(it, p);
      changed = true;
    }
  }
  if (changed) BumpPostingVersion(key);
}

PostingList NaivePeerStore::GetPostings(const std::string& key) {
  auto it = lists_.find(key);
  if (it == lists_.end()) return {};
  ChargeIo(index::codec::EncodedBytes(it->second), 0);
  return it->second;
}

PostingList NaivePeerStore::GetPostingRange(const std::string& key,
                                            const Posting& lo,
                                            const Posting& hi, size_t limit) {
  auto it = lists_.find(key);
  if (it == lists_.end()) return {};
  // The naive store has no clustered index: it reads the whole value and
  // filters in memory.
  ChargeIo(index::codec::EncodedBytes(it->second), 0);
  PostingList out;
  auto from = std::lower_bound(it->second.begin(), it->second.end(), lo);
  for (; from != it->second.end() && !(hi < *from); ++from) {
    out.push_back(*from);
    if (limit != 0 && out.size() >= limit) break;
  }
  return out;
}

size_t NaivePeerStore::PostingCount(const std::string& key) const {
  auto it = lists_.find(key);
  return it == lists_.end() ? 0 : it->second.size();
}

bool NaivePeerStore::DeletePosting(const std::string& key,
                                   const Posting& posting) {
  auto it = lists_.find(key);
  if (it == lists_.end()) return false;
  ChargeReconciliation(it->second, 0);
  auto pos = std::lower_bound(it->second.begin(), it->second.end(), posting);
  if (pos == it->second.end() || *pos != posting) return false;
  it->second.erase(pos);
  BumpPostingVersion(key);
  return true;
}

size_t NaivePeerStore::DeleteDocPostings(const std::string& key,
                                         const DocId& doc) {
  auto it = lists_.find(key);
  if (it == lists_.end()) return 0;
  ChargeReconciliation(it->second, 0);
  size_t before = it->second.size();
  std::erase_if(it->second,
                [&doc](const Posting& p) { return p.doc_id() == doc; });
  if (it->second.size() != before) BumpPostingVersion(key);
  return before - it->second.size();
}

size_t NaivePeerStore::DeleteKey(const std::string& key) {
  auto it = lists_.find(key);
  if (it == lists_.end()) return 0;
  const size_t removed = it->second.size();
  ChargeIo(0, index::codec::EncodedBytes(it->second));
  lists_.erase(it);
  if (removed > 0) BumpPostingVersion(key);
  return removed;
}

void NaivePeerStore::PutBlob(const std::string& key, std::string blob) {
  ChargeIo(0, blob.size());
  blobs_[key] = std::move(blob);
}

const std::string* NaivePeerStore::GetBlob(const std::string& key) {
  auto it = blobs_.find(key);
  if (it == blobs_.end()) return nullptr;
  ChargeIo(it->second.size(), 0);
  return &it->second;
}

bool NaivePeerStore::DeleteBlob(const std::string& key) {
  ChargeIo(0, 0);
  return blobs_.erase(key) > 0;
}

size_t NaivePeerStore::TotalPostings() const {
  size_t n = 0;
  for (const auto& [key, list] : lists_) n += list.size();
  return n;
}

std::vector<std::string> NaivePeerStore::PostingKeys() const {
  std::vector<std::string> keys;
  for (const auto& [key, list] : lists_) {
    if (!list.empty()) keys.push_back(key);
  }
  // Same contract as BTreePeerStore: key enumeration order feeds handoff
  // message sequences and must be hash-layout independent (KDP012).
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::vector<std::string> NaivePeerStore::BlobKeys() const {
  std::vector<std::string> keys;
  keys.reserve(blobs_.size());
  for (const auto& [key, blob] : blobs_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  return keys;
}

}  // namespace kadop::store
