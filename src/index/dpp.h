#ifndef KADOP_INDEX_DPP_H_
#define KADOP_INDEX_DPP_H_

#include <deque>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/random.h"
#include "dht/peer.h"
#include "index/dpp_messages.h"

namespace kadop::index {

struct DppOptions {
  /// Maximum postings per data block; a block that grows past this is
  /// split and one half migrates to the peer in charge of the new
  /// pseudo-key `ovf:<i>:<term>`. (The paper bounds data blocks at 4 MB;
  /// 16 Ki postings ~ 300 KB matches our scaled-down volumes.)
  size_t max_block_postings = 16384;
  /// Ordered (range) splits per the paper, or the random-distribution
  /// alternative it evaluates and rejects in Section 4.1.
  bool ordered_splits = true;
};

/// The Distributed Posting Partitioning manager of one peer (Section 4).
///
/// Two roles, both on the same object:
///  - *owner role*: for terms whose key this peer is responsible for, it
///    maintains the root block (ordered conditions + pseudo-keys), routes
///    incoming postings to the right data block, and triggers splits;
///  - *holder role*: it stores overflow blocks that other owners migrated
///    here, and serves split requests against them.
///
/// The root block is the in-memory `TermState`; data blocks live in the
/// ordinary peer stores under their pseudo-keys, so query-time block
/// fetches are plain (pipelined) DHT gets running in parallel against
/// distinct peers.
class DppManager {
 public:
  DppManager(dht::DhtPeer* peer, DppOptions options);

  DppManager(const DppManager&) = delete;
  DppManager& operator=(const DppManager&) = delete;

  /// Append interceptor (install via DhtPeer::SetAppendInterceptor, or let
  /// the core facade do it), given the request's decoded postings. Always
  /// takes ownership of the request.
  [[nodiscard]] bool OnAppend(const dht::AppendRequest& request,
                              const PostingList& postings);

  /// Get interceptor: serves reads of terms whose list was partitioned by
  /// pulling every block in the requested range from its holder at once
  /// and streaming them to the requester in condition order, each as soon
  /// as all earlier blocks have gone out. Plain DHT gets therefore stay
  /// complete on a DPP index. A pull that times out ends the stream short
  /// of its last block, so the requester's own timeout/retry path decides
  /// the get's outcome. DPP-aware clients bypass this by reading blocks
  /// directly. Returns false for unpartitioned keys.
  [[nodiscard]] bool OnGet(const dht::GetRequest& request);

  /// Delete interceptor: routes deletes to the overflow-block holders and
  /// keeps root-block counts in sync. Returns false for keys this peer
  /// holds no root block for.
  [[nodiscard]] bool OnDelete(const dht::DeleteRequest& request);

  /// Total postings of a term owned here (sum over its DPP blocks), or
  /// nullopt if this peer does not own the term.
  [[nodiscard]] std::optional<uint64_t> OwnedTermCount(const std::string& term_key) const;

  /// Serializable snapshot of one term's root block (for key-range
  /// handoff when a peer joins).
  struct TermExport {
    std::string term_key;
    std::vector<DppBlockInfo> blocks;
    uint32_t next_block_seq = 1;

    size_t WireBytes() const {
      size_t total = term_key.size() + 8;
      for (const auto& b : blocks) total += b.key.size() + 44;
      return total;
    }
  };

  /// Removes and returns the root block of `term_key`, or nullopt if this
  /// peer does not own one. Must not be called mid-split.
  [[nodiscard]] std::optional<TermExport> ExportTerm(const std::string& term_key);

  /// Installs a root block handed off from the previous owner.
  void ImportTerm(const TermExport& exported);

  /// Handles DPP application messages. Returns false if the payload is not
  /// a DPP message (the caller tries other components).
  [[nodiscard]] bool HandleApp(const dht::AppRequest& request, sim::NodeIndex from);

  /// Query-side helper: fetches the root block of `term_key` from its
  /// owner. The callback receives OK and the block list (empty when the
  /// term has no postings); with a retry policy, an owner that never
  /// answers within the budget yields kDeadlineExceeded and an empty list
  /// instead of hanging. The directory is the system's one term-size
  /// message: DirectoryCount of the list is the term's posting count.
  ///
  /// The first attempt goes one hop to the owner the requester's owner
  /// cache names (DhtPeer::KnownOwner), and a reply's block-0 holder
  /// teaches that cache. A probe that must arrive behind the requester's
  /// earlier routed writes to the key (`behind_writes`: view maintenance's
  /// delete ack) is routed like them.
  static void FetchDirectory(
      dht::DhtPeer* requester, const std::string& term_key,
      std::function<void(Status, std::vector<DppBlockInfo>)> cb,
      dht::RetryPolicy retry = {}, bool behind_writes = false);

  /// Number of terms owned here that have been split at least once.
  [[nodiscard]] size_t PartitionedTermCount() const;

 private:
  struct BlockEntry {
    std::string key;
    Condition cond;
    uint64_t count = 0;
    /// Document types with postings in this block (see DppBlockInfo).
    std::set<std::string> types;
  };
  struct TermState {
    std::vector<BlockEntry> blocks;
    bool split_in_progress = false;
    /// Appends that arrived during a split, with their decoded postings.
    std::deque<std::pair<dht::AppendRequest, PostingList>> queued;
    uint32_t next_block_seq = 1;
  };

  void ProcessAppend(const dht::AppendRequest& request,
                     const PostingList& postings);
  /// Index of the block a posting belongs to.
  [[nodiscard]] size_t FindBlock(TermState& st, const Posting& p);
  void MaybeSplit(const std::string& term_key);
  /// Applies a split's outcome. `ring` is the owner's routing-change
  /// count when the split began: the carried new holder is cached only if
  /// the ring has not changed since.
  void FinishSplit(const std::string& term_key, size_t block_index,
                   std::string new_key, uint64_t ring,
                   const DppSplitDone& done);
  /// Executes a split of a locally stored block and migrates the upper
  /// half; used for both the owner's local block and the holder role.
  void PerformLocalSplit(const std::string& block_key,
                         const std::string& new_block_key, bool random_split,
                         std::function<void(DppSplitDone)> done);

  dht::DhtPeer* peer_;
  DppOptions options_;
  Rng rng_;
  std::unordered_map<std::string, TermState> terms_;
};

/// The directory of a key with no DPP root block at the answering peer
/// `holder`: one FullCondition() block carrying the store's posting count
/// and `holder`, or none when the store holds no postings under the key.
/// DppManager answers unowned keys with it; on a DPP-off network every key
/// is answered so.
[[nodiscard]] std::vector<DppBlockInfo> StoreDirectory(
    const store::PeerStore& store, const std::string& key,
    sim::NodeIndex holder);

/// A term's posting count: the sum of its directory's block counts.
[[nodiscard]] uint64_t DirectoryCount(const std::vector<DppBlockInfo>& blocks);

/// The postings of `term_key`'s directory held outside the owner's own
/// block (every block whose key is not the term key): what a get at the
/// owner pulls from the overflow holders before it answers. Zero for a
/// term that was never partitioned.
[[nodiscard]] uint64_t OverflowCount(const std::vector<DppBlockInfo>& blocks,
                                     const std::string& term_key);

}  // namespace kadop::index

#endif  // KADOP_INDEX_DPP_H_
