#include "index/dpp.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/logging.h"
#include "index/codec.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace kadop::index {

namespace {

struct DppCounters {
  obs::Counter* splits;
  obs::Counter* migrated_postings;
  obs::Counter* blocks_stored;
  obs::Counter* dir_requests;
  obs::Counter* holders_named;
  obs::Counter* holders_unnamed;

  DppCounters() {
    auto& r = obs::MetricRegistry::Default();
    splits = r.GetCounter("dpp.splits");
    migrated_postings = r.GetCounter("dpp.migrated_postings");
    blocks_stored = r.GetCounter("dpp.blocks_stored");
    dir_requests = r.GetCounter("dpp.dir_requests");
    holders_named = r.GetCounter("dpp.dir.holders_named");
    holders_unnamed = r.GetCounter("dpp.dir.holders_unnamed");
  }
};

DppCounters& C() {
  static DppCounters counters;
  return counters;
}

}  // namespace

using dht::AppendRequest;
using dht::AppRequest;
using sim::NodeIndex;
using sim::TrafficCategory;

DppManager::DppManager(dht::DhtPeer* peer, DppOptions options)
    : peer_(peer), options_(options), rng_(peer->id() ^ 0xd9f1c2a7) {
  KADOP_CHECK(peer_ != nullptr, "DppManager requires a peer");
  KADOP_CHECK(options_.max_block_postings >= 2, "block size too small");
}

bool DppManager::OnAppend(const AppendRequest& request,
                          const PostingList& postings) {
  TermState& st = terms_[request.key];
  if (st.blocks.empty()) {
    // Block 0 is the original list, stored locally under the term key.
    st.blocks.push_back(BlockEntry{request.key, Condition{}, 0, {}});
  }
  if (st.split_in_progress) {
    st.queued.emplace_back(request, postings);
    return true;
  }
  ProcessAppend(request, postings);
  return true;
}

size_t DppManager::FindBlock(TermState& st, const Posting& p) {
  // Ordered blocks: the last block whose lower bound is <= p; postings
  // below every block go to the first. With random splits, conditions
  // overlap — pick uniformly among the blocks containing p.
  std::vector<size_t> containing;
  for (size_t i = 0; i < st.blocks.size(); ++i) {
    if (!st.blocks[i].cond.Empty() && st.blocks[i].cond.Contains(p)) {
      containing.push_back(i);
    }
  }
  if (containing.size() == 1) return containing[0];
  if (containing.size() > 1) {
    return containing[rng_.Uniform(containing.size())];
  }
  // Not inside any condition: floor rule on lower bounds.
  size_t chosen = 0;
  for (size_t i = 0; i < st.blocks.size(); ++i) {
    if (st.blocks[i].cond.Empty() || !(p < st.blocks[i].cond.lo)) chosen = i;
  }
  return chosen;
}

void DppManager::ProcessAppend(const AppendRequest& request,
                               const PostingList& postings) {
  TermState& st = terms_[request.key];
  // The owner's version of the term key covers the whole partitioned list:
  // appends that land only in remote overflow blocks never touch the local
  // store, so bump here for the views' base-term freshness check.
  if (!postings.empty()) {
    peer_->store()->BumpPostingVersion(request.key);
  }

  // Partition the batch across blocks.
  std::unordered_map<size_t, PostingList> buckets;
  for (const Posting& p : postings) {
    const size_t b = FindBlock(st, p);
    st.blocks[b].cond.Extend(p);
    st.blocks[b].count++;
    buckets[b].push_back(p);
  }

  // Track sub-operation completion so the durability ack fires only when
  // every block holder has applied its share.
  auto remaining = std::make_shared<size_t>(buckets.size());
  const std::string term_key = request.key;
  AppendRequest ack_info = request;
  ack_info.postings.clear();
  auto on_part_done = [this, remaining, term_key, ack_info]() {
    if (--*remaining > 0) return;
    peer_->SendAppendAck(ack_info);
    MaybeSplit(term_key);
  };
  if (buckets.empty()) {
    peer_->SendAppendAck(ack_info);
    return;
  }

  // Dispatch in ascending block order: `buckets` is an unordered_map whose
  // iteration order is a stdlib implementation detail, but the order here
  // decides the DppAppendToBlock send order and with it the entire
  // downstream event schedule (KDP012).
  std::vector<size_t> block_order;
  block_order.reserve(buckets.size());
  for (const auto& [block_index, part] : buckets) {
    block_order.push_back(block_index);
  }
  std::sort(block_order.begin(), block_order.end());

  // Fold the batch's document types into every touched block's condition
  // (a superset per block — recall is never at risk).
  for (const size_t block_index : block_order) {
    st.blocks[block_index].types.insert(request.doc_types.begin(),
                                        request.doc_types.end());
  }

  for (const size_t block_index : block_order) {
    const PostingList& part = buckets[block_index];
    BlockEntry& block = st.blocks[block_index];
    if (block.key == term_key) {
      // Local block 0.
      const double bytes = static_cast<double>(codec::EncodedBytes(part));
      peer_->store()->AppendPostings(term_key, part);
      peer_->ScheduleAfterDisk(/*read_bytes=*/0, bytes, on_part_done);
    } else {
      auto msg = std::make_shared<DppAppendToBlock>();
      msg->block_key = block.key;
      msg->postings = codec::EncodePostings(part);
      peer_->RouteApp(block.key, std::move(msg), TrafficCategory::kPublish,
                      [on_part_done](sim::PayloadPtr) { on_part_done(); });
    }
  }
}

std::optional<uint64_t> DppManager::OwnedTermCount(
    const std::string& term_key) const {
  auto it = terms_.find(term_key);
  if (it == terms_.end()) return std::nullopt;
  uint64_t total = 0;
  for (const BlockEntry& b : it->second.blocks) total += b.count;
  return total;
}

bool DppManager::OnGet(const dht::GetRequest& request) {
  auto it = terms_.find(request.key);
  if (it == terms_.end()) return false;
  const TermState& st = it->second;
  if (st.blocks.size() == 1 && st.blocks[0].key == request.key) {
    return false;  // unpartitioned: the default store path is complete
  }
  std::vector<std::string> block_keys;
  for (const BlockEntry& b : st.blocks) {
    Condition range{request.lo, request.hi};
    if (b.cond.Intersects(range)) block_keys.push_back(b.key);
  }
  if (block_keys.empty()) {
    peer_->SendGetBlock(request.origin, request.req_id, 0, /*last=*/true, {});
    return true;
  }
  // Pull every block at once and forward them to the requester under the
  // original request id in condition order: a block that arrives early
  // waits in `arrived` until all earlier ones have gone out. The per-block
  // continuations share the gather; the last of them frees it. The span
  // closes with the last forwarded block, or when a pull fails.
  struct Gather {
    dht::GetRequest req;
    obs::SpanId span = 0;
    std::vector<std::optional<PostingList>> arrived;
    size_t next = 0;  // index of the next block to forward
    bool failed = false;
  };
  auto gather = std::make_shared<Gather>();
  gather->req = request;
  gather->arrived.resize(block_keys.size());
  auto& tracer = obs::Tracer::Default();
  gather->span = tracer.Begin("dht.get.proxy");
  tracer.Annotate(gather->span, "blocks", std::to_string(block_keys.size()));
  obs::ScopedTraceContext scope(tracer.ContextFor(gather->span));
  auto deliver = [this, gather](size_t i, PostingList postings) {
    Gather& g = *gather;
    if (g.failed) return;
    g.arrived[i] = std::move(postings);
    while (g.next < g.arrived.size() && g.arrived[g.next].has_value()) {
      const bool last = g.next + 1 == g.arrived.size();
      peer_->SendGetBlock(g.req.origin, g.req.req_id,
                          static_cast<uint32_t>(g.next), last,
                          std::move(*g.arrived[g.next]));
      g.arrived[g.next].reset();
      if (last) obs::Tracer::Default().End(g.span);
      ++g.next;
    }
  };
  for (size_t i = 0; i < block_keys.size(); ++i) {
    if (block_keys[i] == request.key) {
      // Local block 0: read from the own store (cannot recurse through the
      // interceptor) and forward after the disk read.
      PostingList list = peer_->store()->GetPostingRange(
          request.key, request.lo, request.hi, 0);
      const double bytes = static_cast<double>(codec::EncodedBytes(list));
      peer_->ScheduleAfterDisk(
          bytes, /*write_bytes=*/0,
          [deliver, i, list = std::move(list)]() mutable {
            deliver(i, std::move(list));
          });
      continue;
    }
    dht::GetSpec spec;
    spec.key = block_keys[i];
    spec.lo = request.lo;
    spec.hi = request.hi;
    spec.pipelined = false;
    peer_->GetBlocks(spec, [gather, deliver, i](PostingList postings,
                                                bool last, bool complete) {
      // A pull that ran out of time leaves a hole: forward nothing from
      // here on, so the requester's own timeout/retry path recovers or
      // reports the get incomplete instead of completing it short.
      if (!complete) {
        if (!gather->failed) obs::Tracer::Default().End(gather->span);
        gather->failed = true;
        return;
      }
      if (last) deliver(i, std::move(postings));
    });
  }
  return true;
}

bool DppManager::OnDelete(const dht::DeleteRequest& request) {
  auto it = terms_.find(request.key);
  if (it == terms_.end()) return false;
  TermState& st = it->second;
  // Conservative owner-side bump (mirrors ProcessAppend): deletes routed to
  // remote blocks must invalidate views of the whole term.
  peer_->store()->BumpPostingVersion(request.key);
  for (BlockEntry& block : st.blocks) {
    // A targeted delete only concerns blocks whose condition may contain
    // the posting; whole-document deletes must visit every block (the
    // document's postings may straddle conditions).
    if (!request.whole_doc && !block.cond.Empty() &&
        !block.cond.Contains(request.posting)) {
      continue;
    }
    if (block.key == request.key) {
      const size_t removed =
          request.whole_doc
              ? peer_->store()->DeleteDocPostings(block.key, request.doc)
              : (peer_->store()->DeletePosting(block.key, request.posting)
                     ? 1
                     : 0);
      block.count -= std::min<uint64_t>(block.count, removed);
    } else {
      auto msg = std::make_shared<DppDeleteFromBlock>();
      msg->block_key = block.key;
      msg->whole_doc = request.whole_doc;
      msg->posting = request.posting;
      msg->doc = request.doc;
      const std::string term_key = request.key;
      const std::string block_key = block.key;
      peer_->RouteApp(
          block.key, std::move(msg), TrafficCategory::kControl,
          [this, term_key, block_key](sim::PayloadPtr inner) {
            auto* done = dynamic_cast<DppDeleteDone*>(inner.get());
            if (done == nullptr || done->removed == 0) return;
            auto term_it = terms_.find(term_key);
            if (term_it == terms_.end()) return;
            for (BlockEntry& b : term_it->second.blocks) {
              if (b.key == block_key) {
                b.count -= std::min<uint64_t>(b.count, done->removed);
              }
            }
          });
    }
  }
  return true;
}

std::optional<DppManager::TermExport> DppManager::ExportTerm(
    const std::string& term_key) {
  auto it = terms_.find(term_key);
  if (it == terms_.end()) return std::nullopt;
  KADOP_CHECK(!it->second.split_in_progress, "export during split");
  TermExport out;
  out.term_key = term_key;
  out.next_block_seq = it->second.next_block_seq;
  for (const BlockEntry& b : it->second.blocks) {
    out.blocks.push_back(
        DppBlockInfo{b.key, b.cond, b.count, b.types, std::nullopt});
  }
  terms_.erase(it);
  return out;
}

void DppManager::ImportTerm(const TermExport& exported) {
  TermState& st = terms_[exported.term_key];
  st.blocks.clear();
  st.next_block_seq = exported.next_block_seq;
  for (const DppBlockInfo& b : exported.blocks) {
    st.blocks.push_back(BlockEntry{b.key, b.cond, b.count, b.types});
  }
}

void DppManager::MaybeSplit(const std::string& term_key) {
  auto it = terms_.find(term_key);
  if (it == terms_.end()) return;
  TermState& st = it->second;
  if (st.split_in_progress) return;

  size_t victim = st.blocks.size();
  for (size_t i = 0; i < st.blocks.size(); ++i) {
    if (st.blocks[i].count > options_.max_block_postings) {
      victim = i;
      break;
    }
  }
  if (victim == st.blocks.size()) return;

  st.split_in_progress = true;
  C().splits->Increment();
  obs::Tracer::Default().Event("dpp.split");
  const std::string new_key =
      "ovf:" + std::to_string(st.next_block_seq++) + ":" + term_key;
  const std::string block_key = st.blocks[victim].key;

  const uint64_t ring = peer_->routing_changes();
  auto done = [this, term_key, victim, new_key,
               ring](const DppSplitDone& result) {
    FinishSplit(term_key, victim, new_key, ring, result);
  };

  if (block_key == term_key) {
    PerformLocalSplit(block_key, new_key, !options_.ordered_splits, done);
  } else {
    auto msg = std::make_shared<DppSplitBlock>();
    msg->block_key = block_key;
    msg->new_block_key = new_key;
    msg->random_split = !options_.ordered_splits;
    peer_->RouteApp(block_key, std::move(msg), TrafficCategory::kControl,
                    [done](sim::PayloadPtr inner) {
                      auto* result = dynamic_cast<DppSplitDone*>(inner.get());
                      KADOP_CHECK(result != nullptr,
                                  "bad split response payload");
                      done(*result);
                    });
  }
}

void DppManager::FinishSplit(const std::string& term_key, size_t block_index,
                             std::string new_key, uint64_t ring,
                             const DppSplitDone& done) {
  TermState& st = terms_[term_key];
  KADOP_CHECK(st.split_in_progress, "unexpected split completion");
  if (done.ok) {
    // The carried holder owned the new key on the ring the split ran on;
    // after a ring change it may not, so name nothing until a routed
    // reply teaches the owner again.
    if (done.new_holder.has_value() && peer_->routing_changes() == ring) {
      peer_->LearnOwner(new_key, *done.new_holder);
    }
    BlockEntry& lower = st.blocks[block_index];
    lower.cond = done.lower;
    lower.count = done.lower_count;
    BlockEntry upper;
    upper.key = std::move(new_key);
    upper.cond = done.upper;
    upper.count = done.upper_count;
    // Both halves inherit the victim's type set (a superset is safe).
    upper.types = lower.types;
    st.blocks.insert(st.blocks.begin() + block_index + 1, std::move(upper));
    C().migrated_postings->Increment(done.upper_count);
  }
  st.split_in_progress = false;

  // Drain inserts queued during the split, then re-check occupancy.
  auto queued = std::move(st.queued);
  st.queued.clear();
  for (const auto& [request, postings] : queued) {
    ProcessAppend(request, postings);
  }
  MaybeSplit(term_key);
}

void DppManager::PerformLocalSplit(const std::string& block_key,
                                   const std::string& new_block_key,
                                   bool random_split,
                                   std::function<void(DppSplitDone)> done) {
  store::PeerStore* store = peer_->store();
  PostingList all = store->GetPostings(block_key);
  if (all.size() < 2) {
    DppSplitDone result;
    result.ok = false;
    done(result);
    return;
  }
  PostingList lower;
  PostingList upper;
  if (random_split) {
    for (size_t i = 0; i < all.size(); ++i) {
      (rng_.Bernoulli(0.5) ? upper : lower).push_back(all[i]);
    }
    if (lower.empty()) {
      lower.push_back(upper.back());
      upper.pop_back();
    }
    if (upper.empty()) {
      upper.push_back(lower.back());
      lower.pop_back();
    }
  } else {
    const size_t mid = all.size() / 2;
    lower.assign(all.begin(), all.begin() + mid);
    upper.assign(all.begin() + mid, all.end());
  }
  for (const Posting& p : upper) store->DeletePosting(block_key, p);

  DppSplitDone result;
  result.ok = true;
  result.lower_count = lower.size();
  result.upper_count = upper.size();
  for (const Posting& p : lower) result.lower.Extend(p);
  for (const Posting& p : upper) result.upper.Extend(p);

  // The whole block is read and half of it rewritten: charge the disk,
  // then migrate the upper half to the new holder. The routed store's
  // reply teaches this peer's cache the new holder, which the result
  // carries to the term owner.
  const double io_bytes = static_cast<double>(codec::EncodedBytes(all));
  auto migrate = [this, new_block_key, upper = std::move(upper),
                  result = std::move(result),
                  done = std::move(done)]() mutable {
    auto msg = std::make_shared<DppStoreBlock>();
    msg->block_key = new_block_key;
    msg->postings = codec::EncodePostings(upper);
    peer_->RouteApp(
        new_block_key, std::move(msg), TrafficCategory::kPublish,
        [this, new_block_key, result = std::move(result),
         done = std::move(done)](sim::PayloadPtr) mutable {
          if (const auto known = peer_->KnownOwner(new_block_key)) {
            result.new_holder = known->node;
          }
          done(std::move(result));
        });
  };
  peer_->ScheduleAfterDisk(/*read_bytes=*/0, io_bytes, std::move(migrate));
}

bool DppManager::HandleApp(const AppRequest& request, NodeIndex /*from*/) {
  const sim::Payload* inner = request.inner.get();

  if (const auto* append = dynamic_cast<const DppAppendToBlock*>(inner)) {
    peer_->store()->AppendPostings(append->block_key,
                                   codec::DecodePayload(append->postings));
    C().blocks_stored->Increment();
    const double bytes = static_cast<double>(append->postings.size());
    const NodeIndex origin = request.origin;
    const dht::RequestId req_id = request.req_id;
    const uint64_t count = peer_->store()->PostingCount(append->block_key);
    peer_->ScheduleAfterDisk(
        /*read_bytes=*/0, bytes, [this, origin, req_id, count]() {
          if (req_id == 0) return;
          auto resp = std::make_shared<DppAppendDone>();
          resp->new_count = count;
          peer_->Reply(origin, req_id, std::move(resp),
                       TrafficCategory::kControl);
        });
    return true;
  }

  if (const auto* block = dynamic_cast<const DppStoreBlock*>(inner)) {
    peer_->store()->AppendPostings(block->block_key,
                                   codec::DecodePayload(block->postings));
    C().blocks_stored->Increment();
    const double bytes = static_cast<double>(block->postings.size());
    const NodeIndex origin = request.origin;
    const dht::RequestId req_id = request.req_id;
    const uint64_t count = peer_->store()->PostingCount(block->block_key);
    peer_->ScheduleAfterDisk(
        /*read_bytes=*/0, bytes, [this, origin, req_id, count]() {
          if (req_id == 0) return;
          auto resp = std::make_shared<DppStoreBlockDone>();
          resp->count = count;
          peer_->Reply(origin, req_id, std::move(resp),
                       TrafficCategory::kControl);
        });
    return true;
  }

  if (const auto* split = dynamic_cast<const DppSplitBlock*>(inner)) {
    const NodeIndex origin = request.origin;
    const dht::RequestId req_id = request.req_id;
    PerformLocalSplit(split->block_key, split->new_block_key,
                      split->random_split,
                      [this, origin, req_id](DppSplitDone result) {
                        auto resp = std::make_shared<DppSplitDone>(
                            std::move(result));
                        peer_->Reply(origin, req_id, std::move(resp),
                                     TrafficCategory::kControl);
                      });
    return true;
  }

  if (const auto* del = dynamic_cast<const DppDeleteFromBlock*>(inner)) {
    const size_t removed =
        del->whole_doc
            ? peer_->store()->DeleteDocPostings(del->block_key, del->doc)
            : (peer_->store()->DeletePosting(del->block_key, del->posting)
                   ? 1
                   : 0);
    if (request.req_id != 0) {
      auto resp = std::make_shared<DppDeleteDone>();
      resp->removed = removed;
      peer_->Reply(request.origin, request.req_id, std::move(resp),
                   TrafficCategory::kControl);
    }
    return true;
  }

  if (const auto* dir = dynamic_cast<const DppDirRequest*>(inner)) {
    C().dir_requests->Increment();
    // Zero virtual-time serve; the point event still places the directory
    // owner in the query's span tree.
    obs::Tracer::Default().Event("dpp.dir.serve");
    auto resp = std::make_shared<DppDirResponse>();
    auto it = terms_.find(dir->term_key);
    if (it != terms_.end()) {
      for (const BlockEntry& b : it->second.blocks) {
        if (b.count == 0) continue;
        DppBlockInfo& info = resp->blocks.emplace_back(
            DppBlockInfo{b.key, b.cond, b.count, b.types, std::nullopt});
        // Block 0 lives in this peer's own store: name this peer as its
        // holder. An overflow block's holder is named from the owner
        // cache (its split's carried holder, or a routed reply from it),
        // which every ring change empties.
        if (b.key == dir->term_key) {
          info.holder = peer_->node();
          continue;
        }
        if (const auto known = peer_->KnownOwner(b.key)) {
          info.holder = known->node;
          C().holders_named->Increment();
        } else {
          C().holders_unnamed->Increment();
        }
      }
    } else {
      resp->blocks =
          StoreDirectory(*peer_->store(), dir->term_key, peer_->node());
    }
    peer_->Reply(request.origin, request.req_id, std::move(resp),
                 TrafficCategory::kControl);
    return true;
  }

  return false;
}

void DppManager::FetchDirectory(
    dht::DhtPeer* requester, const std::string& term_key,
    std::function<void(Status, std::vector<DppBlockInfo>)> cb,
    dht::RetryPolicy retry, bool behind_writes) {
  auto msg = std::make_shared<DppDirRequest>();
  msg->term_key = term_key;
  std::optional<dht::OwnerHint> hint;
  if (!behind_writes) hint = requester->KnownOwner(term_key);
  requester->RouteApp(
      term_key, std::move(msg), TrafficCategory::kControl,
      [cb = std::move(cb), term_key, requester](sim::PayloadPtr inner) {
        if (inner == nullptr) {
          // Retry budget exhausted (only possible with a policy).
          cb(Status::DeadlineExceeded(
                 "directory fetch retry budget exhausted for '" + term_key +
                 "'"),
             {});
          return;
        }
        auto* resp = dynamic_cast<DppDirResponse*>(inner.get());
        KADOP_CHECK(resp != nullptr, "bad directory response payload");
        // The responder names itself as block 0's holder: the term owner.
        for (const DppBlockInfo& b : resp->blocks) {
          if (b.key == term_key && b.holder.has_value()) {
            requester->LearnOwner(term_key, *b.holder);
          }
        }
        cb(Status::OK(), std::move(resp->blocks));
      },
      retry, hint);
}

std::vector<DppBlockInfo> StoreDirectory(const store::PeerStore& store,
                                         const std::string& key,
                                         sim::NodeIndex holder) {
  const size_t count = store.PostingCount(key);
  if (count == 0) return {};
  return {DppBlockInfo{key, FullCondition(), count, {}, holder}};
}

uint64_t DirectoryCount(const std::vector<DppBlockInfo>& blocks) {
  uint64_t total = 0;
  for (const DppBlockInfo& b : blocks) total += b.count;
  return total;
}

uint64_t OverflowCount(const std::vector<DppBlockInfo>& blocks,
                       const std::string& term_key) {
  uint64_t total = 0;
  for (const DppBlockInfo& b : blocks) {
    if (b.key != term_key) total += b.count;
  }
  return total;
}

size_t DppManager::PartitionedTermCount() const {
  size_t n = 0;
  for (const auto& [key, st] : terms_) {
    if (st.blocks.size() > 1) ++n;
  }
  return n;
}

}  // namespace kadop::index
