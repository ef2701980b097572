#include "query/twig_join.h"

#include <algorithm>

#include "common/logging.h"
#include "index/structural_join.h"
#include "obs/metrics.h"

namespace kadop::query {

using index::DocId;
using index::Posting;
using index::PostingList;

namespace {

struct JoinCounters {
  obs::Counter* postings_consumed;
  obs::Counter* answers;
  obs::Counter* docs_matched;
  obs::Counter* stalls;

  JoinCounters() {
    auto& r = obs::MetricRegistry::Default();
    postings_consumed = r.GetCounter("query.join.postings_consumed");
    answers = r.GetCounter("query.join.answers");
    docs_matched = r.GetCounter("query.join.docs_matched");
    stalls = r.GetCounter("query.join.stalls");
  }
};

JoinCounters& C() {
  static JoinCounters counters;
  return counters;
}

}  // namespace

TwigJoin::TwigJoin(const TreePattern& pattern, size_t max_answers)
    : pattern_(pattern), max_answers_(max_answers) {
  KADOP_CHECK(!pattern_.nodes.empty(), "empty pattern");
  streams_.resize(pattern_.size());
  scratch_.resize(pattern_.size());
}

void TwigJoin::Append(size_t node, PostingList postings) {
  KADOP_CHECK(node < streams_.size(), "bad stream index");
  if (postings.empty()) return;
  KADOP_CHECK(!streams_[node].closed(), "append after close");
  // Validate ordering within the block before it enters the stream (the
  // stream checks the order across blocks).
  for (size_t i = 1; i < postings.size(); ++i) {
    KADOP_CHECK(!(postings[i] < postings[i - 1]),
                "stream postings out of order");
  }
  streams_[node].Push(std::move(postings));
}

void TwigJoin::Close(size_t node) {
  KADOP_CHECK(node < streams_.size(), "bad stream index");
  streams_[node].Close();
}

void TwigJoin::CloseAll() {
  for (PostingListIterator& s : streams_) s.Close();
}

bool TwigJoin::Done() const {
  for (const PostingListIterator& s : streams_) {
    if (!s.Exhausted()) return false;
  }
  return true;
}

size_t TwigJoin::Advance() {
  size_t produced = 0;
  for (;;) {
    // The smallest document id at any stream head.
    bool have_doc = false;
    DocId doc{};
    for (const PostingListIterator& s : streams_) {
      if (!s.HasBuffered()) continue;
      const DocId d = s.HeadDoc();
      if (!have_doc || d < doc) {
        doc = d;
        have_doc = true;
      }
    }
    if (!have_doc) return produced;

    // Document-level leapfrog: every posting below the furthest stream
    // head is absent from that stream (streams are in order), so it can
    // never join — drop those postings in bulk. A stream that has ended
    // with nothing buffered makes *every* remaining document unmatchable.
    DocId target = doc;
    bool unmatchable = false;
    for (const PostingListIterator& s : streams_) {
      if (s.HasBuffered()) {
        const DocId d = s.HeadDoc();
        if (target < d) target = d;
      } else if (s.Exhausted()) {
        unmatchable = true;
      }
    }
    if (unmatchable || doc < target) {
      for (PostingListIterator& s : streams_) {
        const size_t dropped =
            unmatchable ? s.SkipAll() : s.SkipBelowDoc(target);
        if (dropped > 0) {
          consumed_ += dropped;
          C().postings_consumed->Increment(dropped);
        }
      }
      if (unmatchable) return produced;
      continue;
    }

    // Every stream with buffered input heads at `doc`. It is complete iff
    // every stream has either ended or buffered a posting beyond it.
    for (const PostingListIterator& s : streams_) {
      if (s.closed()) continue;
      if (!s.HasBuffered() || !(doc < s.LastBufferedDoc())) {
        C().stalls->Increment();
        return produced;  // must wait for more input
      }
    }

    // Extract this document's candidates from each stream into the reused
    // scratch lists (allocation-free once capacities have warmed up).
    for (PostingList& c : scratch_) c.clear();
    for (size_t i = 0; i < streams_.size(); ++i) {
      const size_t took = streams_[i].TakeDoc(doc, scratch_[i]);
      if (took > 0) {
        consumed_ += took;
        C().postings_consumed->Increment(took);
      }
    }
    const size_t before = answers_.size();
    JoinDocument(doc, scratch_);
    produced += answers_.size() - before;
  }
}

namespace internal {

bool PruneCandidates(const TreePattern& pattern,
                     std::vector<PostingList>& candidates) {
  for (const PostingList& c : candidates) {
    if (c.empty()) return false;
  }
  // Bottom-up semi-join pruning: a parent candidate must have a matching
  // candidate under every child edge.
  for (int q : pattern.BottomUpOrder()) {
    const PatternNode& pn = pattern.node(q);
    if (pn.parent < 0) continue;
    PostingList& parent_cands = candidates[pn.parent];
    parent_cands = pn.axis == Axis::kChild
                       ? index::ParentSemiJoin(parent_cands, candidates[q])
                       : index::AncestorSemiJoin(parent_cands, candidates[q]);
    if (parent_cands.empty()) return false;
  }
  // Top-down: a candidate must have a matching ancestor.
  for (size_t q = 0; q < pattern.size(); ++q) {
    const PatternNode& pn = pattern.node(q);
    if (pn.parent < 0) {
      if (pn.axis == Axis::kChild) {
        std::erase_if(candidates[q],
                      [](const Posting& p) { return p.sid.level != 1; });
      }
      if (candidates[q].empty()) return false;
      continue;
    }
    candidates[q] =
        pn.axis == Axis::kChild
            ? index::ChildSemiJoin(candidates[pn.parent], candidates[q])
            : index::DescendantSemiJoin(candidates[pn.parent],
                                        candidates[q]);
    if (candidates[q].empty()) return false;
  }
  return true;
}

namespace {

void EnumerateRecursive(const TreePattern& pattern, const DocId& doc,
                        const std::vector<PostingList>& candidates,
                        size_t max_answers,
                        std::vector<xml::StructuralId>& assignment,
                        size_t node, std::vector<Answer>& answers) {
  if (answers.size() >= max_answers) return;
  if (node == pattern.size()) {
    answers.push_back(Answer{doc, assignment});
    return;
  }
  const PatternNode& pn = pattern.node(node);
  for (const Posting& cand : candidates[node]) {
    bool ok;
    if (pn.parent >= 0) {
      const xml::StructuralId& parent_sid =
          assignment[static_cast<size_t>(pn.parent)];
      ok = pn.axis == Axis::kChild ? parent_sid.IsParentOf(cand.sid)
                                   : parent_sid.Encloses(cand.sid);
    } else {
      ok = pn.axis != Axis::kChild || cand.sid.level == 1;
    }
    if (ok) {
      assignment[node] = cand.sid;
      EnumerateRecursive(pattern, doc, candidates, max_answers, assignment,
                         node + 1, answers);
    }
  }
}

}  // namespace

size_t EnumerateMatches(const TreePattern& pattern, const DocId& doc,
                        const std::vector<PostingList>& candidates,
                        size_t max_answers, std::vector<Answer>& answers) {
  const size_t before = answers.size();
  std::vector<xml::StructuralId> assignment(pattern.size());
  EnumerateRecursive(pattern, doc, candidates, max_answers, assignment, 0,
                     answers);
  return answers.size() - before;
}

}  // namespace internal

void TwigJoin::JoinDocument(const DocId& doc,
                            std::vector<PostingList>& candidates) {
  if (!internal::PruneCandidates(pattern_, candidates)) return;
  const size_t produced = internal::EnumerateMatches(
      pattern_, doc, candidates, max_answers_, answers_);
  if (answers_.size() >= max_answers_) enumeration_capped_ = true;
  C().answers->Increment(produced);
  if (produced > 0) {
    matched_docs_.push_back(doc);
    C().docs_matched->Increment();
  }
}

}  // namespace kadop::query
