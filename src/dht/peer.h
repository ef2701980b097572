#ifndef KADOP_DHT_PEER_H_
#define KADOP_DHT_PEER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <variant>
#include <vector>

#include "common/status.h"
#include "dht/messages.h"
#include "sim/network.h"
#include "store/peer_store.h"

namespace kadop::obs {
class Counter;
}  // namespace kadop::obs

namespace kadop::dht {

class Dht;

/// Which local store backs the peer (Section 3 ablation).
enum class StoreKind {
  kBTree = 0,  // BerkeleyDB-replacement B+-tree store
  kNaive = 1,  // PAST-style whole-value store
};

/// Per-request timeout / retry budget for client-side DHT operations.
/// Disabled by default (`timeout_s == 0`): with a fault-free network a
/// request cannot be lost, so the fail-stop tier-1 workloads run exactly as
/// before. Chaos workloads enable it to survive injected drops and crashes.
struct RetryPolicy {
  /// Per-attempt timeout in virtual seconds; 0 disables the whole policy.
  double timeout_s = 0.0;
  /// Additional attempts after the first (total attempts = max_retries + 1).
  uint32_t max_retries = 3;
  /// Capped exponential backoff between attempts: the n-th retry waits
  /// min(backoff_base_s * 2^(n-1), backoff_cap_s).
  double backoff_base_s = 0.05;
  double backoff_cap_s = 2.0;

  [[nodiscard]] bool enabled() const { return timeout_s > 0; }
  /// Virtual seconds from the first attempt until the last one times out
  /// (0 when disabled).
  [[nodiscard]] double SpanS() const {
    if (!enabled()) return 0;
    double span = timeout_s;
    for (uint32_t a = 1; a <= max_retries; ++a) {
      span += BackoffDelay(a) + timeout_s;
    }
    return span;
  }
  [[nodiscard]] double BackoffDelay(uint32_t attempt) const {
    double d = backoff_base_s;
    for (uint32_t i = 1; i < attempt && d < backoff_cap_s; ++i) d *= 2;
    return d < backoff_cap_s ? d : backoff_cap_s;
  }
};

/// Configuration shared by all peers of a DHT instance.
struct DhtOptions {
  /// Total number of copies of each index entry (1 = no replication).
  uint32_t replication = 1;
  StoreKind store_kind = StoreKind::kBTree;
  /// If true, appends go through the legacy put path: one whole-value
  /// reconciliation per *entry* (the pre-Section-3 behaviour). Only
  /// meaningful with the naive store.
  bool per_entry_reconciliation = false;
  /// Local disk model. The per-operation constant models an amortized
  /// page-cache touch (writes are batched and synced periodically), not a
  /// synchronous platter seek.
  double disk_read_bytes_per_s = 80.0 * 1024 * 1024;
  double disk_write_bytes_per_s = 60.0 * 1024 * 1024;
  double disk_seek_s = 0.00002;
  /// Default block granularity of the pipelined get, in postings.
  uint32_t pipeline_block_postings = 4096;
  /// Seed for peer identifier assignment.
  uint64_t seed = 7;
  /// Default retry policy of Locate, GetBlob, Get, GetBlocks and acked
  /// Append, disabled by default; a request's own policy (GetSpec::retry,
  /// Append's parameter) overrides it when enabled. App calls (RouteApp /
  /// CallApp) never fall back to it: they time out and retry only under their own parameter,
  /// so a caller that passes none (the DPP owner<->holder writes, which are
  /// not idempotent) sends once.
  RetryPolicy retry;
};

/// Result of a (pipelined) get: `complete` is false when the request timed
/// out before all blocks arrived (the paper: "we detect faulty peers with
/// time-outs; in this case, the answer is incomplete").
struct GetResult {
  index::PostingList postings;
  bool complete = true;
  /// OK on completion; kDeadlineExceeded when the retry budget was
  /// exhausted (a single-attempt budget included).
  Status status;
};

/// A node believed to own a key: a read's first attempt goes there in one
/// hop instead of being routed (see DhtPeer::RouteApp). `cached` marks a
/// belief from the sending peer's owner cache (DhtPeer::KnownOwner) rather
/// than from a reply the caller holds; it only feeds `dht.hint.cached`.
struct OwnerHint {
  // Implicit: a bare node is a hint from a reply in hand.
  // NOLINTNEXTLINE(runtime/explicit)
  OwnerHint(sim::NodeIndex owner, bool from_cache = false)
      : node(owner), cached(from_cache) {}
  sim::NodeIndex node;
  bool cached;
};

/// Parameters of a get. `lo`/`hi` restrict the transferred range (used by
/// the DPP's [min, max] block filtering).
struct GetSpec {
  std::string key;
  bool pipelined = false;
  uint32_t block_postings = 0;  // 0 = DhtOptions default
  index::Posting lo = index::kMinPosting;
  index::Posting hi = index::kMaxPosting;
  /// Overrides DhtOptions::retry for this request when enabled. A get
  /// times out only under a policy (`retry.timeout_s` per attempt);
  /// `max_retries = 0` makes it a single-attempt deadline.
  RetryPolicy retry;
  /// The key's owner as a directory reply or the owner cache named it: the
  /// first attempt goes there in one hop instead of being routed (see
  /// DhtPeer::RouteApp). Retries are routed.
  std::optional<OwnerHint> owner_hint;
  /// Set when another peer already asked for this get on this peer's
  /// behalf (DhtPeer::PushGet) under this request id: the first attempt
  /// sends nothing and awaits the blocks under that id. Its timeout and
  /// retries are a plain get's; a retry asks itself, routed.
  std::optional<RequestId> awaited;
};

/// One DHT peer: a ring node with a Pastry-style digit table (see
/// RoutingTable), a local store for its slice of the Term relation, and
/// the KadoP DHT API — locate / put / get / delete, extended per Section 3
/// with `append` and a pipelined get.
///
/// All operations are asynchronous: results are delivered via callbacks
/// when the simulated messages arrive. A peer keeps no tally struct: its
/// events count into the process-wide `dht.*` registry counters, and its
/// own ingress load into `load.holder.<N>.{gets,appends}`.
class DhtPeer final : public sim::Actor {
 public:
  /// The key's owner, or kDeadlineExceeded when the retry budget ran out.
  using LocateCallback = std::function<void(Result<sim::NodeIndex> owner)>;
  using GetCallback = std::function<void(GetResult result)>;
  /// Append durability ack: OK once applied (and replicated), or
  /// kDeadlineExceeded when the retry budget ran out.
  using AppendCallback = std::function<void(Status status)>;
  /// Called once per received block; `last` marks the final block,
  /// `complete=false` signals a timeout (no further calls follow).
  using BlockCallback =
      std::function<void(index::PostingList block, bool last, bool complete)>;
  /// The blob; kNotFound when the key holds none, kDeadlineExceeded when
  /// the retry budget ran out.
  using BlobCallback = std::function<void(Result<std::string> blob)>;
  using AppResponseCallback = std::function<void(sim::PayloadPtr inner)>;
  /// Handler for application-level routed requests (DPP / query / Fundex
  /// layers). Implementations reply via `Reply()`.
  using AppHandler =
      std::function<void(const AppRequest& request, sim::NodeIndex from)>;

  /// `node` is the network index the Dht registers this peer under.
  DhtPeer(Dht* dht, sim::Network* network, sim::NodeIndex node, KeyId id,
          std::unique_ptr<store::PeerStore> store);

  // -- Client-side API -----------------------------------------------------

  /// Resolves the peer in charge of `key` (multi-hop).
  void Locate(const std::string& key, LocateCallback cb);

  /// Appends postings under `key`, encoded once here and decoded once by
  /// the key's owner; `on_ack` (optional) fires when the
  /// responsible peer has durably applied (and replicated) them.
  /// `doc_types` (optional) carries the document types of the postings for
  /// the DPP's type-aware block conditions. When a retry policy is active
  /// (the parameter if enabled, else DhtOptions::retry) *and* an ack was
  /// requested, a lost request/ack is retried with a stable dedup id so
  /// resends apply at most once; exhausting the budget yields
  /// kDeadlineExceeded. Un-acked appends are fire-and-forget regardless.
  void Append(const std::string& key, index::PostingList postings,
              AppendCallback on_ack = nullptr,
              std::vector<std::string> doc_types = {},
              RetryPolicy retry = {});

  /// Blocking get: the whole list arrives as one message. It times out
  /// only under DhtOptions::retry.
  void Get(const std::string& key, GetCallback cb);

  /// General get (range, pipelined, retry budget) with per-block delivery.
  void GetBlocks(const GetSpec& spec, BlockCallback on_block);

  /// Asks for the get `spec` on behalf of `target` (another peer): its
  /// blocks go to `target` under `req_id`, which `target` awaits
  /// (GetSpec::awaited). The request is a plain get's GetRequest whose
  /// origin is the target, sent like a first attempt (a hint goes one
  /// hop). This peer keeps no state for it: `target` times it out and
  /// asks again itself.
  void PushGet(const GetSpec& spec, sim::NodeIndex target, RequestId req_id);

  /// Reserves `n` consecutive request ids and returns the first, for gets
  /// another peer awaits (PushGet). Like every id this peer issues, they
  /// carry its node in the high word.
  [[nodiscard]] RequestId ReserveRequestIds(uint32_t n);

  /// Deletes one posting (or a whole document's postings) under `key`.
  void Delete(const std::string& key, const index::Posting& posting);
  void DeleteDoc(const std::string& key, const index::DocId& doc);

  /// Whole-value blobs (Doc relation and similar small metadata).
  void PutBlob(const std::string& key, std::string blob);
  void GetBlob(const std::string& key, BlobCallback cb);
  void DeleteBlobKey(const std::string& key);

  /// Routes an application request to the peer in charge of `key`; `cb`
  /// (optional) receives the reply payload. With a retry policy enabled the
  /// request is re-routed after per-attempt timeouts (picking up routing
  /// changes, e.g. a new owner after a crash); when the budget is exhausted
  /// `cb` receives nullptr. Callers passing a policy must handle nullptr.
  ///
  /// `owner_hint` (a node a directory reply or the owner cache named as the
  /// key's owner) sends the first attempt straight there, one hop. The
  /// receiver still checks ownership and routes on if the hint is
  /// stale, so a wrong hint costs hops, never a misdelivery; retries drop
  /// the hint. Reads only: a hinted send can overtake an earlier routed one
  /// to the same peer, so writes whose order matters (DPP block
  /// maintenance) stay routed. The reply to an attempt routed through the
  /// ring (no hint) teaches the owner cache its sender (see KnownOwner).
  void RouteApp(const std::string& key, sim::PayloadPtr inner,
                sim::TrafficCategory category, AppResponseCallback cb,
                RetryPolicy retry = {},
                std::optional<OwnerHint> owner_hint = std::nullopt);

  /// Replies to an application request received via the app handler.
  void Reply(sim::NodeIndex origin, RequestId req_id, sim::PayloadPtr inner,
             sim::TrafficCategory category);

  /// Sends a one-way application message directly to a known peer. It is
  /// delivered to the target's app handler with req_id = 0.
  void SendApp(sim::NodeIndex target, sim::PayloadPtr inner,
               sim::TrafficCategory category);

  /// Request/response to a known peer (no routing): the target's app
  /// handler replies via Reply() and `cb` receives the payload. Retry
  /// semantics as for RouteApp, except resends go to the same fixed target.
  void CallApp(sim::NodeIndex target, sim::PayloadPtr inner,
               sim::TrafficCategory category, AppResponseCallback cb,
               RetryPolicy retry = {});

  void SetAppHandler(AppHandler handler) { app_handler_ = std::move(handler); }

  /// Intercepts appends arriving at this peer (the responsible peer for the
  /// key), with the request's postings decoded. If the interceptor returns
  /// true it has taken full ownership of the request — storage, disk-time
  /// modeling and acking. Used by the DPP layer to replace the flat
  /// posting-list insert path.
  using AppendInterceptor = std::function<bool(
      const AppendRequest& request, const index::PostingList& postings)>;
  void SetAppendInterceptor(AppendInterceptor interceptor) {
    append_interceptor_ = std::move(interceptor);
  }

  /// Sends a durability ack for an append request (used by interceptors).
  void SendAppendAck(const AppendRequest& request);

  /// Intercepts gets served by this peer. A DPP layer uses this to answer
  /// reads of partitioned lists by gathering the overflow blocks (plain
  /// gets stay complete whatever the storage layout). The interceptor must
  /// eventually emit blocks via SendGetBlock().
  using GetInterceptor = std::function<bool(const GetRequest& request)>;
  void SetGetInterceptor(GetInterceptor interceptor) {
    get_interceptor_ = std::move(interceptor);
  }

  /// Emits one response block for a get request being served out-of-band
  /// (by a get interceptor), encoding `postings` into it.
  void SendGetBlock(sim::NodeIndex origin, RequestId req_id,
                    uint32_t block_index, bool last,
                    index::PostingList postings);

  /// Intercepts deletes served by this peer (DPP fans the delete out to
  /// the overflow-block holders). Return true when handled.
  using DeleteInterceptor = std::function<bool(const DeleteRequest& request)>;
  void SetDeleteInterceptor(DeleteInterceptor interceptor) {
    delete_interceptor_ = std::move(interceptor);
  }

  // -- Introspection -------------------------------------------------------

  KeyId id() const { return id_; }
  sim::NodeIndex node() const { return node_; }
  store::PeerStore* store() { return store_.get(); }
  sim::Network* network() { return network_; }
  Dht* dht() { return dht_; }

  /// The current posting version of `key` at the store of the peer
  /// responsible for it (see PeerStore::PostingVersion). A god's-eye read:
  /// it sends no message and charges no bytes or virtual time. Its only
  /// readers are views (ViewCatalog::Servable and ResyncEntry); ROADMAP
  /// item 7 replaces it with versions carried on the wire, and analyzer
  /// rule KDP017 keeps new readers out of src/query and src/dht.
  [[nodiscard]] uint64_t AuthoritativeVersion(const std::string& key) const;

  /// The owner cache: which node owns each key this peer has read or
  /// written, learned only from messages it received (a directory reply's
  /// block-0 holder; the sender of the first block of a get, or of the
  /// reply to an app request, routed through the ring and not hinted; the
  /// new block's holder a DppSplitDone carries, learned only when no ring
  /// change fell inside the split, see routing_changes). The cache-aware
  /// read sites hint their first attempt with it, and a DPP owner names
  /// its overflow holders from it; a stale entry costs a forward, never a
  /// misdelivery. `set_routing` empties it, so an entry never outlives the
  /// ring it was learned on. Writes never consult it.
  [[nodiscard]] std::optional<OwnerHint> KnownOwner(
      const std::string& key) const;
  void LearnOwner(const std::string& key, sim::NodeIndex owner);
  [[nodiscard]] size_t KnownOwnerCount() const { return owners_.size(); }

  /// Requests of every kind awaiting a reply here (gets awaiting pushed
  /// blocks included), and the pushed ids this peer tracks: those whose
  /// blocks are held because no get awaits them yet, and those a get has
  /// awaited.
  [[nodiscard]] size_t PendingRequestCount() const { return requests_.size(); }
  [[nodiscard]] size_t DeliveryCount() const { return deliveries_.size(); }

  /// Models a local disk/CPU busy period: runs `fn` once the peer's disk
  /// has read `read_bytes` and written `write_bytes` (FIFO with other disk
  /// activity).
  void ScheduleAfterDisk(double read_bytes, double write_bytes,
                         std::function<void()> fn);

  // -- Wiring (called by Dht) ----------------------------------------------

  /// A node of the digit table and the (predecessor_id, id] range it owns.
  struct RouteEntry {
    KeyId id = 0;
    KeyId predecessor_id = 0;
    sim::NodeIndex node = 0;
  };
  struct RoutingTable {
    /// The digit table (Pastry, b = 4): for each base-16 digit position i
    /// and digit value j in 1..15, the owner of id + j * 16^i. Entries run
    /// in order of distance along the ring; this peer and consecutive
    /// duplicates are dropped.
    std::vector<RouteEntry> entries;
    KeyId predecessor_id = 0;
    KeyId successor_id = 0;
    sim::NodeIndex successor_node = 0;
  };
  /// Installs a rebuilt routing table and empties the owner cache. A get
  /// awaiting a push of a key this peer now owns reads its own store now.
  void set_routing(RoutingTable table);
  const RoutingTable& routing() const { return routing_; }
  /// How many routing tables this peer has installed. A name learned from
  /// a reply to a request sent before a change may belong to the old
  /// ring: compare the counts at send and at reply before caching it.
  [[nodiscard]] uint64_t routing_changes() const { return routing_changes_; }

  /// Which rule of NextHop chose a hop.
  enum class HopRule {
    kSuccessor,  // the key lies in (self, successor]
    kRange,      // a table entry's range holds the key: the owner itself
    kPreceding,  // the farthest table entry before the key
  };
  struct Hop {
    sim::NodeIndex node;
    HopRule rule;
  };
  /// Next hop toward `key`'s owner, for a key this peer does not own. A
  /// stale range costs a forward, never a misdelivery: the receiver
  /// re-checks ownership (HandleMessage) and routes on.
  [[nodiscard]] Hop NextHop(KeyId key) const;

  void HandleMessage(const sim::Message& msg) override;

  /// True if this peer is responsible for `key` (key in (pred, self]).
  /// Public for services that must tell local from remote work — e.g. the
  /// block-join holder, which charges wire bytes only for foreign pulls.
  [[nodiscard]] bool IsResponsible(KeyId key) const;

 private:
  /// Starts or forwards routing of an envelope.
  void RouteEnvelopeMsg(std::shared_ptr<RouteEnvelope> env);
  /// Sends `inner` toward the owner of `key`: one hop to `owner_hint` when
  /// it names another peer and this peer does not own the key, otherwise
  /// routed through the ring (a key this peer owns is delivered locally).
  void Route(const std::string& key, sim::PayloadPtr inner,
             sim::TrafficCategory category,
             std::optional<OwnerHint> owner_hint = std::nullopt);
  /// Delivers a routed payload for which this peer is responsible.
  void DeliverRouted(const RouteEnvelope& env);

  void HandleAppend(const AppendRequest& req);
  /// Passes an applied append down the replication chain, or acks it at
  /// the chain's tail.
  void ForwardOrAck(const AppendRequest& req);
  /// Streams the store's postings for `req` back to its origin, unless
  /// the get interceptor takes it.
  void HandleGet(const GetRequest& req);
  void HandleDelete(const DeleteRequest& req);

  RequestId NextRequestId();
  /// What each attempt of the get `spec` asks for, less its key, id and
  /// origin.
  GetRequest AskFor(const GetSpec& spec) const;

  // -- The request table ---------------------------------------------------
  // Every request this peer awaits a reply for is one Request, keyed by the
  // id of its current attempt. Each attempt is started, timed out, retried
  // and completed by the same code whatever its kind; only the payload an
  // attempt sends and the callback that ends it are the kind's.

  struct LocateCall {
    LocateCallback cb;
  };
  struct BlobCall {
    BlobCallback cb;
  };
  struct GetCall {
    GetRequest ask;
    /// An accumulating get (Get) hands the whole list to `on_done`; a
    /// streaming one (GetBlocks) hands each block to `on_block`.
    bool accumulate = false;
    GetCallback on_done;
    BlockCallback on_block;
    index::PostingList accumulated;
    /// A streaming get is not retried once a block reached its caller.
    bool delivered_any = false;
    /// Expected next block index: out-of-sequence blocks (duplicates, or a
    /// gap left by a dropped block) are discarded so a stream never
    /// double-delivers or silently completes with a hole.
    uint32_t next_block = 0;
  };
  struct AppCall {
    AppResponseCallback cb;
    sim::PayloadPtr inner;
  };
  struct AppendCall {
    AppendCallback cb;
    std::vector<uint8_t> postings;  // encoded once; a resend copies it
    std::vector<std::string> doc_types;
    /// Stable across resends, so the owner applies a resend at most once;
    /// 0 without a retry policy.
    uint64_t dedup_id = 0;
  };
  struct Request {
    /// Where each attempt goes: routed toward `key`'s owner, or straight
    /// to `target` (CallApp).
    std::string key;
    std::optional<sim::NodeIndex> target;
    sim::TrafficCategory category = sim::TrafficCategory::kControl;
    /// First attempt only: one hop to the hinted owner, or (gets) no send
    /// at all and the blocks pushed under `awaited` (GetSpec::awaited).
    /// Retries drop both and are routed.
    std::optional<OwnerHint> owner_hint;
    std::optional<RequestId> awaited;
    /// The effective policy: only an enabled one times attempts out.
    RetryPolicy retry;
    uint32_t attempt = 1;
    sim::EventId timeout_event = sim::kInvalidEventId;
    std::variant<LocateCall, BlobCall, GetCall, AppCall, AppendCall> call;
  };
  using Requests = std::unordered_map<RequestId, Request>;

  /// Enters the get `spec` in the table with its kind's part `call`.
  void StartGet(GetSpec spec, GetCall call);
  /// Starts an attempt under a fresh request id (or the awaited one):
  /// enters it in the table, arms its timeout, then sends it.
  void StartAttempt(Request request);
  /// Sends `request`'s payload for the attempt `id`; id 0 is a
  /// fire-and-forget call, which has no table entry and no timeout.
  void SendAttempt(Request& request, RequestId id);
  sim::EventId ArmTimeout(RequestId req_id, double timeout_s);
  /// Retries after the backoff while the budget lasts, else gives up
  /// through the kind's callback.
  void OnTimeout(RequestId req_id);
  static void GiveUp(Request& request);
  /// Takes an entry out of the table and cancels its timeout.
  Request Finish(Requests::iterator it);
  /// Finishes the entry awaiting `req_id` if it is of kind `Call`.
  template <typename Call>
  std::optional<Request> Complete(RequestId req_id);
  /// The first reply to an attempt routed through the ring names the
  /// key's owner: teaches it to the owner cache.
  void LearnFromReply(const Request& request, sim::NodeIndex from);

  /// A pushed id (GetSpec::awaited): its blocks that arrived before a get
  /// awaited it, or the mark that a get has (so no second get awaits it
  /// and late copies are dropped). Forgotten at `forget_event`.
  struct Delivery {
    std::vector<sim::Message> held;
    bool awaited = false;
    sim::EventId forget_event = sim::kInvalidEventId;
  };

  void HandleGetBlock(const sim::Message& msg, const GetBlock& block);
  /// Marks `req_id` awaited by a get for `remember_s`: no second get
  /// awaits it, and copies pushed under it from now on are dropped.
  Delivery& MarkAwaited(RequestId req_id, double remember_s);
  /// Marks `req_id` awaited, and hands the blocks pushed under it so far
  /// to the get that awaits it.
  void AwaitPushed(RequestId req_id, double remember_s);
  /// Keeps a pushed block that no get awaits yet, until its get awaits it
  /// or kHoldDeliveryS passes; drops it if its get already awaited it.
  void HoldDelivery(const sim::Message& msg, RequestId req_id);

  Dht* dht_;
  sim::Network* network_;
  sim::NodeIndex node_;
  KeyId id_;
  std::unique_ptr<store::PeerStore> store_;
  RoutingTable routing_;
  AppHandler app_handler_;
  AppendInterceptor append_interceptor_;
  GetInterceptor get_interceptor_;
  DeleteInterceptor delete_interceptor_;
  /// This peer's `load.holder.<N>.{gets,appends}` counters.
  obs::Counter* load_gets_;
  obs::Counter* load_appends_;
  /// The owner cache (see KnownOwner).
  std::unordered_map<std::string, sim::NodeIndex> owners_;
  uint64_t routing_changes_ = 0;

  double disk_free_at_ = 0.0;

  uint64_t next_req_ = 1;
  Requests requests_;
  std::unordered_map<RequestId, Delivery> deliveries_;
  /// Dedup ids of retry-capable appends already applied here (server side).
  std::unordered_set<uint64_t> applied_appends_;
};

}  // namespace kadop::dht

#endif  // KADOP_DHT_PEER_H_
