#include "query/local_eval.h"

#include <algorithm>

#include "index/terms.h"

namespace kadop::query {

using index::DocId;
using index::Posting;
using index::PostingList;

namespace {

void CollectCandidates(const xml::Node& node, const TreePattern& pattern,
                       const DocId& doc_id,
                       std::vector<PostingList>& candidates) {
  if (!node.IsElement()) return;
  // Tokenize direct text once if any word node could need it.
  std::vector<std::string> words;
  bool tokenized = false;
  for (size_t q = 0; q < pattern.size(); ++q) {
    const PatternNode& pn = pattern.node(q);
    switch (pn.kind) {
      case NodeKind::kLabel:
        if (node.label() == pn.term) {
          candidates[q].push_back(
              Posting{doc_id.peer, doc_id.doc, node.sid()});
        }
        break;
      case NodeKind::kWildcard:
        candidates[q].push_back(Posting{doc_id.peer, doc_id.doc, node.sid()});
        break;
      case NodeKind::kWord: {
        if (!tokenized) {
          tokenized = true;
          for (const auto& child : node.children()) {
            if (child->IsText()) {
              index::TokenizeWords(child->text(), words);
            }
          }
        }
        if (std::find(words.begin(), words.end(), pn.term) != words.end()) {
          xml::StructuralId sid = node.sid();
          sid.level += 1;
          candidates[q].push_back(Posting{doc_id.peer, doc_id.doc, sid});
        }
        break;
      }
    }
  }
  for (const auto& child : node.children()) {
    CollectCandidates(*child, pattern, doc_id, candidates);
  }
}

}  // namespace

std::vector<Answer> EvaluateOnDocument(const TreePattern& pattern,
                                       const xml::Document& doc,
                                       const DocId& doc_id) {
  if (!doc.root) return {};
  std::vector<PostingList> candidates(pattern.size());
  CollectCandidates(*doc.root, pattern, doc_id, candidates);

  TwigJoin join(pattern);
  for (size_t q = 0; q < pattern.size(); ++q) {
    std::sort(candidates[q].begin(), candidates[q].end());
    join.Append(q, std::move(candidates[q]));
  }
  join.CloseAll();
  join.Advance();
  return join.answers();
}

bool MatchesDocument(const TreePattern& pattern, const xml::Document& doc) {
  return !EvaluateOnDocument(pattern, doc, DocId{0, 0}).empty();
}

}  // namespace kadop::query
