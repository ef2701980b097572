#ifndef KADOP_TESTS_TWIG_STACK_H_
#define KADOP_TESTS_TWIG_STACK_H_

#include <cstddef>
#include <vector>

#include "index/posting.h"
#include "query/tree_pattern.h"
#include "query/twig_join.h"

namespace kadop::query {

/// The classic holistic TwigStack algorithm (Bruno, Koudas, Srivastava,
/// SIGMOD 2002) — the join KadoP builds on ("KadoP implements a
/// multi-threaded, block-based version of the holistic twig join from
/// [10]"). A test oracle: twig_stack_test cross-validates the production
/// kernel (TwigJoin) against it.
///
/// Phase 1 runs the stack machinery per document: `getNext` picks the next
/// extendable stream head, heads that cannot contribute to any twig match
/// are skipped without ever being stacked, and stacked elements are
/// recorded as candidates. Phase 2 merges candidates into full answer
/// tuples (shared with TwigJoin, so both kernels are directly
/// cross-checkable).
///
/// Child ('/') axes are processed as descendant edges in phase 1 (the
/// standard TwigStack relaxation) and enforced exactly during the merge.
/// Word pseudo-nodes (equal intervals one level deeper) are handled by
/// ordering heads with outer-elements-first tie-breaking and using the
/// level-aware containment test.
class TwigStackJoin {
 public:
  explicit TwigStackJoin(const TreePattern& pattern);

  struct Stats {
    /// Stream elements pushed on a stack (candidates for the merge).
    size_t pushed = 0;
    /// Stream elements skipped by getNext / parent-emptiness checks.
    size_t skipped = 0;
  };

  /// Evaluates the pattern over complete per-node streams (each sorted in
  /// the canonical posting order). Returns all answers, capped at
  /// `max_answers`.
  [[nodiscard]] std::vector<Answer> Run(const std::vector<index::PostingList>& streams,
                          size_t max_answers = 1 << 20);

  const Stats& stats() const { return stats_; }

 private:
  struct DocRun;

  const TreePattern pattern_;
  Stats stats_;
};

}  // namespace kadop::query

#endif  // KADOP_TESTS_TWIG_STACK_H_
