#ifndef KADOP_INDEX_POSTING_H_
#define KADOP_INDEX_POSTING_H_

#include <compare>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "xml/sid.h"

namespace kadop::index {

/// Internal peer identifier (dense integer, also the sim NodeIndex).
using PeerId = uint32_t;
/// Document identifier within a peer.
using DocSeq = uint32_t;

/// Identifier of a document in the collection: (peer, doc).
struct DocId {
  PeerId peer = 0;
  DocSeq doc = 0;

  friend std::strong_ordering operator<=>(const DocId&, const DocId&) =
      default;

  std::string ToString() const {
    // Appends only: `"(" + std::to_string(...)` trips g++ 12's -Wrestrict
    // false positive at -O3.
    std::string out = "(";
    out += std::to_string(peer);
    out += ',';
    out += std::to_string(doc);
    out += ')';
    return out;
  }
};

/// One tuple of the Term relation: term t occurs at element
/// (peer, doc, sid) — as its label, or as a word contained in it.
///
/// Header-only and layering-wise *below* the store and DHT libraries: the
/// local stores are specialized to posting payloads, exactly as the paper
/// re-engineered its DHT around a posting-oriented BerkeleyDB store.
struct Posting {
  PeerId peer = 0;
  DocSeq doc = 0;
  xml::StructuralId sid;

  [[nodiscard]] DocId doc_id() const { return DocId{peer, doc}; }

  /// Lexicographic order by (peer, doc, sid) — the clustered order of the
  /// Term relation and the order all posting lists are kept in.
  friend std::strong_ordering operator<=>(const Posting&, const Posting&) =
      default;

  /// Wire/disk footprint: peer(4) + doc(4) + start(4) + end(4) + level(2).
  static constexpr size_t kWireBytes = 18;

  std::string ToString() const {
    std::string out = "[";  // appends only, as in DocId::ToString
    out += std::to_string(peer);
    out += ',';
    out += std::to_string(doc);
    out += ',';
    out += sid.ToString();
    out += ']';
    return out;
  }
};

/// Smallest and largest representable postings (used as range sentinels).
inline constexpr Posting kMinPosting{0, 0, {0, 0, 0}};
inline constexpr Posting kMaxPosting{UINT32_MAX,
                                     UINT32_MAX,
                                     {UINT32_MAX, UINT32_MAX, UINT16_MAX}};

/// An ordered list of postings for one term.
using PostingList = std::vector<Posting>;

/// Wire size of a posting list.
[[nodiscard]] inline size_t PostingListBytes(const PostingList& list) {
  return list.size() * Posting::kWireBytes;
}

/// One tree-pattern answer: the document plus one element (sid) per
/// pattern node, in pattern-node order. Lives beside `Posting` so the
/// answer codec (codec.h) and the query layer share one type.
struct Answer {
  DocId doc;
  std::vector<xml::StructuralId> elements;

  friend bool operator==(const Answer&, const Answer&) = default;
};

/// True if `list` is sorted in the canonical (peer, doc, sid) order.
[[nodiscard]] inline bool IsSortedPostingList(const PostingList& list) {
  for (size_t i = 1; i < list.size(); ++i) {
    if (list[i] < list[i - 1]) return false;
  }
  return true;
}

}  // namespace kadop::index

#endif  // KADOP_INDEX_POSTING_H_
