#ifndef KADOP_QUERY_MESSAGES_H_
#define KADOP_QUERY_MESSAGES_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bloom/structural_filter.h"
#include "index/posting.h"
#include "sim/message.h"

namespace kadop::query {

/// Filtering strategies of Section 5.3 plus the baseline and DPP paths.
enum class ReduceMode : uint8_t {
  kAb = 0,     // AB Reducer: ABFs flow root-to-leaves
  kDb = 1,     // DB Reducer: DBFs flow leaves-to-root
  kBloom = 2,  // Bloom Reducer: AB pass, then DB pass
};

/// One pattern node in a reduce plan. `node` is the pattern-node id; the
/// child/parent ids refer to plan entries (a sub-query plan keeps the
/// original pattern ids). `owner` is the term owner as the query's
/// directory round named it or, without a round, as the query peer's
/// owner cache names it (unset when neither does): the query peer's
/// ReduceStart and the owners' filter sends go there in one hop.
struct ReducePlanNode {
  int node = -1;
  std::string term_key;
  int parent = -1;
  std::vector<int> children;
  std::optional<sim::NodeIndex> owner;
};

/// The full filtering plan, shipped to every participating term owner.
struct ReducePlan {
  uint64_t query_id = 0;
  sim::NodeIndex query_peer = 0;
  ReduceMode mode = ReduceMode::kDb;
  std::vector<ReducePlanNode> nodes;
  bloom::StructuralFilterParams ab_params;
  bloom::StructuralFilterParams db_params;

  const ReducePlanNode* Find(int node) const {
    for (const auto& n : nodes) {
      if (n.node == node) return &n;
    }
    return nullptr;
  }

  size_t WireBytes() const {
    size_t total = 32;
    // Per node: ids, parent and child links, and the 4-byte owner (a
    // reserved value when unset).
    for (const auto& n : nodes) total += n.term_key.size() + 20;
    return total;
  }
};

/// Kicks off one node's role in the filtering phase; sent by the query
/// peer to the owner of the node's term.
struct ReduceStart final : sim::Payload {
  ReducePlan plan;
  int node = -1;

  size_t SizeBytes() const override { return plan.WireBytes() + 4; }
  std::string_view TypeName() const override { return "ReduceStart"; }
};

/// An Ancestor Bloom Filter flowing from a parent term owner to a child
/// term owner (AB / Bloom Reducer, top-down phase).
struct AbfMessage final : sim::Payload {
  uint64_t query_id = 0;
  int from_node = -1;
  int to_node = -1;
  std::shared_ptr<bloom::AncestorBloomFilter> filter;

  size_t SizeBytes() const override {
    return 20 + (filter ? filter->SizeBytes() : 0);
  }
  std::string_view TypeName() const override { return "AbfMessage"; }
};

/// A Descendant Bloom Filter flowing from a child to its parent (DB /
/// Bloom Reducer, bottom-up phase).
struct DbfMessage final : sim::Payload {
  uint64_t query_id = 0;
  int from_node = -1;
  int to_node = -1;
  std::shared_ptr<bloom::DescendantBloomFilter> filter;

  size_t SizeBytes() const override {
    return 20 + (filter ? filter->SizeBytes() : 0);
  }
  std::string_view TypeName() const override { return "DbfMessage"; }
};

/// A (possibly reduced) posting list, as its `codec::EncodePostings`
/// stream, shipped to the query peer at the end of a node's filtering
/// role. Carries accounting so the query peer can
/// compute the paper's normalized-data-volume metric exactly:
/// `full_count` is the unfiltered list size, `ab/db_filter_bytes` the
/// filters this owner sent (counted once, at the sender). `complete` is
/// false when the owner's load of the list ran out of its retry budget;
/// it rides in a spare bit of the fixed header's node word.
struct ReducedListMessage final : sim::Payload {
  uint64_t query_id = 0;
  int node = -1;
  bool complete = true;
  std::vector<uint8_t> postings;
  uint64_t full_count = 0;
  uint64_t ab_filter_bytes = 0;
  uint64_t db_filter_bytes = 0;

  size_t SizeBytes() const override { return 36 + postings.size(); }
  std::string_view TypeName() const override { return "ReducedListMessage"; }
};

}  // namespace kadop::query

#endif  // KADOP_QUERY_MESSAGES_H_
