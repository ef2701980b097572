#ifndef KADOP_STORE_PEER_STORE_H_
#define KADOP_STORE_PEER_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "index/posting.h"
#include "store/bplus_tree.h"

namespace kadop::store {

/// Disk-activity counters. The DHT peer converts these to virtual time via
/// its disk-bandwidth parameter, so the store choice (naive vs B+-tree)
/// shows up in indexing and query latency exactly as in Section 3.
struct IoStats {
  uint64_t read_bytes = 0;
  uint64_t write_bytes = 0;
  uint64_t operations = 0;
};

/// Abstract local store of one peer's slice of the Term relation (posting
/// lists clustered by term, ordered by (peer, doc, sid)) plus small named
/// blobs (Doc/Peer relations, DPP root-block metadata).
class PeerStore {
 public:
  virtual ~PeerStore() = default;

  /// Monotone modification version of `key`'s posting data at this store:
  /// 0 until first modified here, then strictly increasing on every
  /// mutation that changes the stored set. A fresh store instance starts
  /// a new epoch in the high bits, so a version observed before a rebuild
  /// can never reappear. View freshness compares against it
  /// (docs/wire_format.md).
  [[nodiscard]] uint64_t PostingVersion(const std::string& key) const;

  /// Advances `key`'s version. Every mutating posting op calls this; the
  /// DPP owner also calls it when an append lands in a remote overflow
  /// block, so a term key's version covers the whole partitioned list.
  void BumpPostingVersion(const std::string& key);

  /// Appends one posting to `key`'s list, keeping the clustered order.
  virtual void AppendPosting(const std::string& key,
                             const index::Posting& posting) = 0;

  /// Appends a batch (already sorted or not; the store keeps order). The
  /// naive store performs a single whole-value reconciliation per call —
  /// this is what makes batching matter there; the B+-tree store charges
  /// one write of the batch's encoded size.
  virtual void AppendPostings(const std::string& key,
                              const index::PostingList& postings) = 0;

  /// Reads the full posting list for `key` (empty if absent).
  [[nodiscard]] virtual index::PostingList GetPostings(const std::string& key) = 0;

  /// Reads postings for `key` within [lo, hi], up to `limit` (0 = all).
  [[nodiscard]] virtual index::PostingList GetPostingRange(const std::string& key,
                                             const index::Posting& lo,
                                             const index::Posting& hi,
                                             size_t limit) = 0;

  /// Number of postings stored under `key` (metadata, no I/O charged).
  [[nodiscard]] virtual size_t PostingCount(const std::string& key) const = 0;

  /// Deletes one posting. Returns true if present.
  [[nodiscard]] virtual bool DeletePosting(const std::string& key,
                             const index::Posting& posting) = 0;

  /// Deletes every posting of `key` belonging to document `doc` (document
  /// update = delete + re-insert). Returns the number removed.
  [[nodiscard]] virtual size_t DeleteDocPostings(const std::string& key,
                                   const index::DocId& doc) = 0;

  /// Removes every posting stored under `key` (used when a key range is
  /// handed off to a joining peer). Returns the number removed.
  [[nodiscard]] virtual size_t DeleteKey(const std::string& key) = 0;

  /// Whole-value named blob (replaces on rewrite).
  virtual void PutBlob(const std::string& key, std::string blob) = 0;
  [[nodiscard]] virtual const std::string* GetBlob(const std::string& key) = 0;
  [[nodiscard]] virtual bool DeleteBlob(const std::string& key) = 0;

  /// Total postings across all keys.
  [[nodiscard]] virtual size_t TotalPostings() const = 0;

  /// All keys having at least one posting, in unspecified order.
  [[nodiscard]] virtual std::vector<std::string> PostingKeys() const = 0;

  /// All blob keys, in unspecified order.
  [[nodiscard]] virtual std::vector<std::string> BlobKeys() const = 0;

  const IoStats& io() const { return io_; }
  void ResetIo() { io_ = IoStats(); }

 protected:
  PeerStore();

  /// Charges one store operation plus `read`/`write` bytes to this
  /// instance's IoStats and the process-wide metrics registry
  /// (store.operations, store.read_bytes, store.write_bytes).
  void ChargeIo(uint64_t read, uint64_t write);
  /// Charges bytes only — mid-operation accounting (e.g. per-posting
  /// erases inside an already-charged operation).
  void AddIoBytes(uint64_t read, uint64_t write);

  IoStats io_;

 private:
  uint64_t version_epoch_;
  std::unordered_map<std::string, uint64_t> posting_versions_;
};

/// B+-tree-backed store (the BerkeleyDB replacement of Section 3): terms are
/// interned, postings live in a clustered B+-tree keyed by
/// (term id, posting), appends cost O(log n) and charge only the appended
/// bytes.
class BTreePeerStore final : public PeerStore {
 public:
  BTreePeerStore() = default;

  void AppendPosting(const std::string& key,
                     const index::Posting& posting) override;
  void AppendPostings(const std::string& key,
                      const index::PostingList& postings) override;
  index::PostingList GetPostings(const std::string& key) override;
  index::PostingList GetPostingRange(const std::string& key,
                                     const index::Posting& lo,
                                     const index::Posting& hi,
                                     size_t limit) override;
  size_t PostingCount(const std::string& key) const override;
  bool DeletePosting(const std::string& key,
                     const index::Posting& posting) override;
  size_t DeleteDocPostings(const std::string& key,
                           const index::DocId& doc) override;
  size_t DeleteKey(const std::string& key) override;
  void PutBlob(const std::string& key, std::string blob) override;
  const std::string* GetBlob(const std::string& key) override;
  bool DeleteBlob(const std::string& key) override;
  size_t TotalPostings() const override;
  std::vector<std::string> PostingKeys() const override;
  std::vector<std::string> BlobKeys() const override;

  /// Underlying tree height (for tests / stats).
  [[nodiscard]] size_t TreeHeight() const { return tree_.height(); }

 private:
  struct TreeKey {
    uint32_t term_id;
    index::Posting posting;
    friend std::strong_ordering operator<=>(const TreeKey&, const TreeKey&) =
        default;
  };
  struct Empty {};

  /// Interns `key`; creates an id if absent.
  uint32_t InternTerm(const std::string& key);
  /// Looks up an existing id; returns false if the term was never stored.
  [[nodiscard]] bool LookupTerm(const std::string& key, uint32_t& id) const;

  BPlusTree<TreeKey, Empty> tree_;
  std::unordered_map<std::string, uint32_t> term_ids_;
  std::vector<std::string> term_names_;
  std::unordered_map<uint32_t, size_t> counts_;
  std::unordered_map<std::string, std::string> blobs_;
};

/// PAST-style store: each key maps to one opaque value; every append
/// re-reads and re-writes the whole value (the standard DHT `put`
/// reconciliation), so building a list of n postings with per-posting puts
/// costs O(n^2) bytes of I/O. This is the Section 3 baseline.
class NaivePeerStore final : public PeerStore {
 public:
  NaivePeerStore() = default;

  void AppendPosting(const std::string& key,
                     const index::Posting& posting) override;
  void AppendPostings(const std::string& key,
                      const index::PostingList& postings) override;
  index::PostingList GetPostings(const std::string& key) override;
  index::PostingList GetPostingRange(const std::string& key,
                                     const index::Posting& lo,
                                     const index::Posting& hi,
                                     size_t limit) override;
  size_t PostingCount(const std::string& key) const override;
  bool DeletePosting(const std::string& key,
                     const index::Posting& posting) override;
  size_t DeleteDocPostings(const std::string& key,
                           const index::DocId& doc) override;
  size_t DeleteKey(const std::string& key) override;
  void PutBlob(const std::string& key, std::string blob) override;
  const std::string* GetBlob(const std::string& key) override;
  bool DeleteBlob(const std::string& key) override;
  size_t TotalPostings() const override;
  std::vector<std::string> PostingKeys() const override;
  std::vector<std::string> BlobKeys() const override;

 private:
  /// One whole-value read + whole-value write of `key`'s current list plus
  /// `extra` appended bytes.
  void ChargeReconciliation(const index::PostingList& list, size_t extra);

  std::unordered_map<std::string, index::PostingList> lists_;
  std::unordered_map<std::string, std::string> blobs_;
};

}  // namespace kadop::store

#endif  // KADOP_STORE_PEER_STORE_H_
