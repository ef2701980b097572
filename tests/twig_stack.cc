#include "twig_stack.h"

#include <algorithm>

#include "common/logging.h"

namespace kadop::query {

using index::DocId;
using index::Posting;
using index::PostingList;
using xml::StructuralId;

namespace {

/// Document-order key with ancestors-first tie-breaking: outer intervals
/// before inner ones; for equal intervals (an element and its word
/// pseudo-nodes) lower levels first.
struct HeadKey {
  uint32_t start = UINT32_MAX;
  uint32_t neg_end = UINT32_MAX;  // UINT32_MAX - end: larger end sorts first
  uint16_t level = UINT16_MAX;
  bool eof = true;

  static HeadKey Of(const StructuralId& sid) {
    return HeadKey{sid.start, UINT32_MAX - sid.end, sid.level, false};
  }
  static HeadKey Eof() { return HeadKey{}; }

  friend bool operator<(const HeadKey& a, const HeadKey& b) {
    if (a.eof != b.eof) return !a.eof;
    if (a.start != b.start) return a.start < b.start;
    if (a.neg_end != b.neg_end) return a.neg_end < b.neg_end;
    return a.level < b.level;
  }
};

}  // namespace

/// One document's phase-1 run.
struct TwigStackJoin::DocRun {
  const TreePattern& pattern;
  /// Per node: [begin, end) range within its stream plus the cursor.
  struct Cursor {
    const PostingList* stream = nullptr;
    size_t pos = 0;
    size_t end = 0;
    bool Eof() const { return pos >= end; }
    const StructuralId& Head() const { return (*stream)[pos].sid; }
  };
  std::vector<Cursor> cursors;
  std::vector<std::vector<StructuralId>> stacks;
  std::vector<PostingList> candidates;
  DocId doc;
  Stats* stats;

  DocRun(const TreePattern& p, DocId d, Stats* s)
      : pattern(p),
        cursors(p.size()),
        stacks(p.size()),
        candidates(p.size()),
        doc(d),
        stats(s) {}

  HeadKey KeyOf(size_t q) const {
    return cursors[q].Eof() ? HeadKey::Eof()
                            : HeadKey::Of(cursors[q].Head());
  }

  void Advance(size_t q) {
    if (!cursors[q].Eof()) cursors[q].pos++;
  }

  bool AllLeavesEof() const {
    for (size_t q = 0; q < pattern.size(); ++q) {
      if (pattern.node(q).IsLeaf() && !cursors[q].Eof()) return false;
    }
    return true;
  }

  /// getNext(q): the node whose head should be acted on next. May return a
  /// node with an exhausted cursor only when the whole subtree is drained.
  size_t GetNext(size_t q) {
    const PatternNode& pn = pattern.node(q);
    if (pn.IsLeaf()) return q;
    for (int child : pn.children) {
      const size_t n = GetNext(static_cast<size_t>(child));
      if (n != static_cast<size_t>(child) && !cursors[n].Eof()) {
        return n;  // a blocked descendant must be resolved first
      }
    }
    // All children are extendable (or drained); find the extremes of the
    // child heads.
    HeadKey max_key = HeadKey::Of(StructuralId{0, 0, 0});
    int min_child = -1;
    HeadKey min_key = HeadKey::Eof();
    for (int child : pn.children) {
      const HeadKey k = KeyOf(static_cast<size_t>(child));
      if (max_key < k) max_key = k;
      if (!k.eof && k < min_key) {
        min_key = k;
        min_child = child;
      }
    }
    // Skip q heads that end before the largest child head begins: they
    // cannot enclose it nor anything after it. An exhausted child makes
    // max_key = EOF (sorts last), draining q entirely — no further q
    // element can have a full set of child matches.
    while (!cursors[q].Eof() &&
           (max_key.eof || cursors[q].Head().end < max_key.start)) {
      Advance(q);
      stats->skipped++;
    }
    if (min_child < 0) return q;  // whole subtree drained
    if (!cursors[q].Eof() && KeyOf(q) < KeyOf(static_cast<size_t>(min_child))) {
      return q;
    }
    return static_cast<size_t>(min_child);
  }

  /// Pops entries that do not enclose `sid` (level-aware containment).
  void CleanStack(size_t q, const StructuralId& sid) {
    auto& stack = stacks[q];
    while (!stack.empty() && !stack.back().Encloses(sid)) {
      stack.pop_back();
    }
  }

  void RunToCompletion() {
    while (!AllLeavesEof()) {
      const size_t q = GetNext(0);
      if (cursors[q].Eof()) break;  // every remaining subtree is drained
      const StructuralId head = cursors[q].Head();
      const Posting posting = (*cursors[q].stream)[cursors[q].pos];
      const PatternNode& pn = pattern.node(q);
      if (pn.parent >= 0) {
        CleanStack(static_cast<size_t>(pn.parent), head);
      }
      if (pn.parent < 0 || !stacks[static_cast<size_t>(pn.parent)].empty()) {
        CleanStack(q, head);
        stacks[q].push_back(head);
        candidates[q].push_back(posting);
        stats->pushed++;
        Advance(q);
        if (pn.IsLeaf()) stacks[q].pop_back();
      } else {
        Advance(q);
        stats->skipped++;
      }
    }
  }
};

TwigStackJoin::TwigStackJoin(const TreePattern& pattern)
    : pattern_(pattern) {
  KADOP_CHECK(!pattern_.nodes.empty(), "empty pattern");
}

std::vector<Answer> TwigStackJoin::Run(
    const std::vector<PostingList>& streams, size_t max_answers) {
  KADOP_CHECK(streams.size() == pattern_.size(),
              "one stream per pattern node required");
  for (const PostingList& s : streams) {
    KADOP_CHECK(index::IsSortedPostingList(s), "streams must be sorted");
  }

  std::vector<Answer> answers;
  std::vector<size_t> offsets(streams.size(), 0);
  for (;;) {
    // The smallest unprocessed document across all streams.
    bool have_doc = false;
    DocId doc{};
    for (size_t q = 0; q < streams.size(); ++q) {
      if (offsets[q] >= streams[q].size()) continue;
      const DocId d = streams[q][offsets[q]].doc_id();
      if (!have_doc || d < doc) {
        doc = d;
        have_doc = true;
      }
    }
    if (!have_doc) break;

    DocRun run(pattern_, doc, &stats_);
    bool any_empty = false;
    for (size_t q = 0; q < streams.size(); ++q) {
      const size_t begin = offsets[q];
      size_t end = begin;
      while (end < streams[q].size() && streams[q][end].doc_id() == doc) {
        ++end;
      }
      run.cursors[q] = DocRun::Cursor{&streams[q], begin, end};
      offsets[q] = end;
      any_empty |= (begin == end);
    }
    if (any_empty) continue;  // some pattern node has no element: no match

    run.RunToCompletion();
    if (internal::PruneCandidates(pattern_, run.candidates)) {
      internal::EnumerateMatches(pattern_, doc, run.candidates,
                                 max_answers, answers);
      if (answers.size() >= max_answers) break;
    }
  }
  return answers;
}

}  // namespace kadop::query
