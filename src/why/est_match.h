#ifndef WHYQ_WHY_EST_MATCH_H_
#define WHYQ_WHY_EST_MATCH_H_

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
/// in both directions, hence a heuristic (Section V-B).
///
/// Both estimators test nodes through a PathIndex::Probe bound to the
/// rewrite Q ⊕ O — O(|V_N| resp. |V_C| + guard scan) path tests, each
/// O(paths * path length) — and touch no other state, so concurrent calls
/// over one shared PathIndex are safe as long as each binds its own probe
/// (and, through it, its own executor slot's context); the parallel greedy
/// rounds in why/why_algorithms.cc rely on exactly that.
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

/// Why-not-side estimate. `included_union` is the union of per-operator new
/// matches within V_C; the guard scans output-label candidates outside
/// `protected_set` with path tests, early-stopping past guard_m and
/// visiting at most `guard_scan_cap` candidates.
CloseEstimate EstimateWhyNot(PathIndex::Probe& probe,
                             const NodeSet& included_union,
                             const std::vector<NodeId>& missing,
                             const NodeSet& protected_set, size_t guard_m,
                             size_t guard_scan_cap);

}  // namespace whyq

#endif  // WHYQ_WHY_EST_MATCH_H_
