#ifndef WHYQ_WHY_EST_MATCH_H_
#define WHYQ_WHY_EST_MATCH_H_

#include <memory>
#include <vector>

#include "graph/graph.h"
#include "graph/neighborhood.h"
#include "matcher/path_index.h"
#include "query/query.h"

namespace whyq {

/// EstMatch (Section IV-B / V-B): polynomial-time closeness estimation that
/// replaces subgraph-isomorphism verification inside the greedy selection.
///
/// For Why: per-operator affected sets Aff(o) (exact, computed once per
/// picky operator) are combined by union; unexpected nodes not yet covered
/// are additionally screened with the sampled path index — failing a path
/// test is a *sound* proof of exclusion, so the closeness estimate only errs
/// by missing exclusions that need full isomorphism reasoning (that is the
/// epsilon of Theorem 5).
///
/// For Why-not: per-operator new-match sets are unioned (relaxation is
/// monotone, so this is sound); missing nodes not yet covered are screened
/// with path tests, which over-approximate matching — the estimate can err
/// in both directions, hence a heuristic (Section V-B). The guard counts
/// the passers of a window of output-label nodes, kept as a GuardWindow
/// delta of the greedy round's base rewrite.
///
/// Both estimators test nodes through a PathIndex::Probe bound to the
/// rewrite Q ⊕ O — O(|V_N| resp. |V_C| + retested window nodes) path tests,
/// each O(paths * path length) — and touch no other state, so concurrent
/// calls over one shared PathIndex (and one GuardWindow) are safe as long as
/// each binds its own probe (and, through it, its own executor slot's
/// context); the parallel greedy rounds in why/why_algorithms.cc rely on
/// exactly that.
struct CloseEstimate {
  double closeness = 0.0;
  size_t guard = 0;
  bool guard_ok = true;
};

/// Why-side estimate. `excluded_union` is the union of Aff(o) over the
/// candidate set O; `probe` is bound to Q ⊕ O for the path screening.
CloseEstimate EstimateWhy(PathIndex::Probe& probe,
                          const NodeSet& excluded_union,
                          const std::vector<NodeId>& unexpected,
                          const std::vector<NodeId>& desired,
                          size_t guard_m);

/// The why-not guard's path tests under one base rewrite B, so that a
/// rewrite near B is estimated as a delta of it (the incremental-matching
/// argument of Fan, Wang and Wu, TODS 2013, applied to the estimator).
///
/// The window is the first `scan_cap` nodes of the output label's bucket
/// outside `protected_set`. Relaxation never changes the output label, so
/// the window is fixed per request. Each window node keeps the mask of the
/// checks it fails under B (PathIndex::Probe::FailedChecks). Against B a
/// rewrite R changes the checks T = ChangedChecks; every other check gives
/// every node B's verdict. So a node with a failed check outside T still
/// fails under R and is skipped, and any other node passes under R iff it
/// passes T's checks (and the unmasked ones), because its remaining checks
/// passed under B. The count is the full scan's, in O(window) mask tests
/// and O(retested nodes) path tests.
///
/// Built and rebased on one thread with that thread's context; counting
/// only reads the record, so executor slots may count concurrently, each
/// through its own probe.
class GuardWindow {
 public:
  using CheckMask = PathIndex::Probe::CheckMask;

  GuardWindow(const PathIndex& idx, MatchContext& ctx, const Query& base,
              const NodeSet& protected_set, size_t scan_cap);

  /// Moves the base to `next`, re-running only the checks that differ
  /// between the two.
  void Rebase(const Query& next);

  /// min(#window nodes that pass the path test of `probe`'s rewrite,
  /// limit + 1): the count a full scan of the window in any order gives.
  size_t CountPassers(PathIndex::Probe& probe, size_t limit) const;

 private:
  const PathIndex& idx_;
  MatchContext& ctx_;
  std::unique_ptr<Query> base_query_;
  std::unique_ptr<PathIndex::Probe> base_;  // bound to *base_query_
  std::vector<NodeId> window_;
  std::vector<CheckMask> failed_;  // per window node, under the base
};

/// Why-not-side estimate. `included_union` is the union of per-operator new
/// matches within V_C; the guard counts the passers of `window` under
/// `probe`'s rewrite, stopping past guard_m.
CloseEstimate EstimateWhyNot(PathIndex::Probe& probe,
                             const GuardWindow& window,
                             const NodeSet& included_union,
                             const std::vector<NodeId>& missing,
                             size_t guard_m);

}  // namespace whyq

#endif  // WHYQ_WHY_EST_MATCH_H_
