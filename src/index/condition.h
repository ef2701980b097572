#ifndef KADOP_INDEX_CONDITION_H_
#define KADOP_INDEX_CONDITION_H_

#include <string>

#include "index/posting.h"

namespace kadop::index {

/// A range condition over postings: the closed interval [lo, hi] in the
/// lexicographic (peer, doc, sid) order. DPP blocks carry one condition
/// each; the query processor intersects conditions to skip blocks that
/// cannot contribute matches (Section 4.2).
struct Condition {
  Posting lo = kMaxPosting;
  Posting hi = kMinPosting;

  /// An empty condition (lo > hi) matches nothing.
  [[nodiscard]] bool Empty() const { return hi < lo; }

  [[nodiscard]] bool Contains(const Posting& p) const { return !(p < lo) && !(hi < p); }

  [[nodiscard]] bool Intersects(const Condition& other) const {
    if (Empty() || other.Empty()) return false;
    return !(hi < other.lo) && !(other.hi < lo);
  }

  /// True if every posting satisfying this condition also satisfies
  /// `other` (C ⊆ C').
  [[nodiscard]] bool SubsetOf(const Condition& other) const {
    if (Empty()) return true;
    if (other.Empty()) return false;
    return !(lo < other.lo) && !(other.hi < hi);
  }

  /// True if every posting here is lexicographically below all of `other`
  /// (C < C').
  [[nodiscard]] bool Before(const Condition& other) const {
    if (Empty() || other.Empty()) return true;
    return hi < other.lo;
  }

  /// Grows the interval to cover `p`.
  void Extend(const Posting& p) {
    if (p < lo) lo = p;
    if (hi < p) hi = p;
  }

  /// Smallest / largest document that may satisfy the condition (used for
  /// the [min, max] document-interval filter of Section 4.2).
  DocId MinDoc() const { return lo.doc_id(); }
  DocId MaxDoc() const { return hi.doc_id(); }

  std::string ToString() const {
    std::string out = "[";  // appends only (g++ 12 -Wrestrict at -O3)
    out += lo.ToString();
    out += "..";
    out += hi.ToString();
    out += ']';
    return out;
  }

  friend bool operator==(const Condition&, const Condition&) = default;
};

/// The whole-range condition.
inline Condition FullCondition() { return Condition{kMinPosting, kMaxPosting}; }

}  // namespace kadop::index

#endif  // KADOP_INDEX_CONDITION_H_
