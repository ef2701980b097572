#include "query/view.h"

#include <algorithm>
#include <utility>

#include "query/twig_join.h"

namespace kadop::query {

namespace {

/// True if query node `anc` is a strict ancestor of query node `desc`.
bool IsStrictAncestor(const TreePattern& query, int anc, int desc) {
  for (int q = query.node(static_cast<size_t>(desc)).parent; q >= 0;
       q = query.node(static_cast<size_t>(q)).parent) {
    if (q == anc) return true;
  }
  return false;
}

/// Whether view node `v` may map onto query node `q` given the (already
/// assigned) mapping of v's parent.
bool NodeCompatible(const TreePattern& view, const TreePattern& query, int v,
                    int q, const std::vector<int>& node_map) {
  const PatternNode& vn = view.node(static_cast<size_t>(v));
  const PatternNode& qn = query.node(static_cast<size_t>(q));
  if (vn.kind != qn.kind || vn.term != qn.term) return false;
  if (vn.parent < 0) {
    // The view root's axis is interpreted from the document root: a
    // child-axis root ('/a') asserts top-level-ness, which only a
    // child-axis query root guarantees; a descendant root maps anywhere.
    return vn.axis == Axis::kDescendant ||
           (q == 0 && qn.axis == Axis::kChild);
  }
  const int qp = node_map[static_cast<size_t>(vn.parent)];
  if (vn.axis == Axis::kChild) {
    // Parent-child in the view must be parent-child in the query: the
    // query may not relax a view constraint, or projected query answers
    // could fall outside the extent.
    return qn.parent == qp && qn.axis == Axis::kChild;
  }
  return IsStrictAncestor(query, qp, q);
}

bool MapFrom(const TreePattern& view, const TreePattern& query, size_t v,
             std::vector<int>& node_map, std::vector<bool>& used) {
  if (v == view.size()) return true;
  for (size_t q = 0; q < query.size(); ++q) {
    if (used[q]) continue;
    if (!NodeCompatible(view, query, static_cast<int>(v),
                        static_cast<int>(q), node_map)) {
      continue;
    }
    node_map[v] = static_cast<int>(q);
    used[q] = true;
    if (MapFrom(view, query, v + 1, node_map, used)) return true;
    used[q] = false;
    node_map[v] = -1;
  }
  return false;
}

}  // namespace

std::optional<ViewMatch> MatchViewPattern(const TreePattern& view,
                                          const TreePattern& query) {
  if (view.size() == 0 || view.size() > query.size()) return std::nullopt;
  if (view.HasWildcard() || query.HasWildcard()) return std::nullopt;
  ViewMatch match;
  if (view.ToString() == query.ToString()) {
    match.exact = true;
    match.node_map.resize(view.size());
    for (size_t v = 0; v < view.size(); ++v) {
      match.node_map[v] = static_cast<int>(v);
    }
    return match;
  }
  // Pattern nodes are created parents-first, so assigning in index order
  // always sees the parent's image before the child's.
  match.node_map.assign(view.size(), -1);
  std::vector<bool> used(query.size(), false);
  if (!MapFrom(view, query, 0, match.node_map, used)) return std::nullopt;
  match.exact = false;
  return match;
}

std::vector<index::PostingList> ProjectAnswers(
    const std::vector<Answer>& answers, size_t arity) {
  std::vector<index::PostingList> columns(arity);
  for (const Answer& a : answers) {
    for (size_t v = 0; v < arity; ++v) {
      columns[v].push_back(
          index::Posting{a.doc.peer, a.doc.doc, a.elements[v]});
    }
  }
  for (index::PostingList& column : columns) {
    std::sort(column.begin(), column.end());
    column.erase(std::unique(column.begin(), column.end()), column.end());
  }
  return columns;
}

std::vector<Answer> ViewAnswersForDoc(
    const TreePattern& pattern,
    const std::vector<index::TermPosting>& postings) {
  TwigJoin join(pattern);
  for (size_t node = 0; node < pattern.size(); ++node) {
    const std::string key = pattern.node(node).TermKey();
    index::PostingList list;
    for (const index::TermPosting& tp : postings) {
      if (tp.key == key) list.push_back(tp.posting);
    }
    std::sort(list.begin(), list.end());
    join.Append(node, std::move(list));
  }
  join.CloseAll();
  join.Advance();
  return join.answers();
}

}  // namespace kadop::query
