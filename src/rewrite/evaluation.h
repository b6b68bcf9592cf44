#ifndef WHYQ_REWRITE_EVALUATION_H_
#define WHYQ_REWRITE_EVALUATION_H_

#include <algorithm>
#include <optional>
#include <vector>

#include "graph/graph.h"
#include "graph/neighborhood.h"
#include "matcher/match_engine.h"
#include "query/query.h"
#include "why/question.h"

namespace whyq {

/// Exact evaluation outcome of one candidate rewrite.
struct EvalResult {
  double closeness = 0.0;  // cl(O) per Section III-C
  size_t guard = 0;        // collateral answer changes (exact up to m+1)
  bool guard_ok = true;    // guard <= m
};

/// Exact closeness/guard evaluators for a fixed (Q, G, Q(u_o,G)) and one
/// question: WhyEvaluator for a Why question, whose targets are V_N and
/// whose rewrites refine Q until the targets leave the answer, and
/// WhyNotEvaluator for a Why-not question, whose targets are V_C filtered
/// through C once at construction and whose rewrites relax Q until the
/// targets enter it. Both are the paper's Match procedure run in opposite
/// directions: they test incrementally which targets change status under a
/// rewrite instead of recomputing Q'(u_o, G) from scratch, early-
/// terminating per node on the first embedding. The closeness is the share
/// of targets that changed status. The guard counts the collateral
/// changes, with early termination at m + 1: the desired answers
/// Q(u_o,G) \ V_N a refinement excludes, or the matches outside
/// Q(u_o,G) ∪ V_C a relaxation admits.
///
/// Evaluators are per-request objects (they own a stateful MatchEngine and,
/// under either semantics, a MatchContext that memoizes candidate sets
/// across every rewrite the evaluator verifies or path-tests — see
/// matcher/match_context.h); `cancel` (not owned, may be null) is forwarded
/// into the engine so verification sweeps stop mid-search once a deadline
/// passes. An Evaluate, Guard or GuardOk that ends with the token expired
/// may have been cut short, so it reports a failed guard (guard m + 1, or
/// none from Guard): a cut-short test never passes as an exclusion, an
/// inclusion or a met guard.
///
/// A rewrite is verified in two parts: the guard count, then the target
/// tests. Guard(Q') is the first part alone, and Evaluate(Q', guard) the
/// second alone for a rewrite whose guard Guard already counted (the exact
/// search admits every set it verifies through Guard), so the pair equals
/// Evaluate(Q').
class RewriteEvaluator {
 public:
  virtual ~RewriteEvaluator() = default;

  /// cl(O) and guard of a rewrite; a failed guard when cut short.
  EvalResult Evaluate(const Query& rewritten) const;

  /// Evaluate for a rewrite whose guard count `known_guard` (<= m) Guard
  /// returned: tests the targets only, without recounting.
  EvalResult Evaluate(const Query& rewritten, size_t known_guard) const;

  /// The guard count when it is at most m (the count stops at m + 1), none
  /// otherwise. The admissibility predicate of the exact guard-aware MBS
  /// enumeration.
  std::optional<size_t> Guard(const Query& rewritten) const;
  bool GuardOk(const Query& rewritten) const {
    return Guard(rewritten).has_value();
  }

  /// The entities the closeness counts: V_N, or V_C after C.
  const std::vector<NodeId>& targets() const { return targets_; }
  size_t guard_m() const { return guard_m_; }

  /// The evaluator's candidate memo, under either semantics. Single-thread
  /// state, like the evaluator itself.
  MatchContext& context() const { return *ctx_; }

 protected:
  // `hit` is the answer test that counts a target toward closeness: false
  // (excluded) for Why, true (included) for Why-not.
  RewriteEvaluator(const Graph& g, std::vector<NodeId> answers,
                   size_t guard_m, MatchSemantics semantics,
                   const CancelToken* cancel, bool hit);

  // The collateral changes of `rewritten`, counted up to m + 1.
  virtual size_t CountGuard(const Query& rewritten) const = 0;

  // The nodes whose answer test under `rewritten` reads `hit`.
  std::vector<NodeId> Select(const Query& rewritten,
                             const std::vector<NodeId>& nodes,
                             bool hit) const;

  std::unique_ptr<MatchContext> ctx_;  // declared before engine_ (init order)
  std::unique_ptr<MatchEngine> engine_;
  std::vector<NodeId> answers_;
  std::vector<NodeId> targets_;  // ascending; filled by the subclass
  size_t guard_m_;
  const CancelToken* cancel_;
  bool hit_;
};

class WhyEvaluator : public RewriteEvaluator {
 public:
  WhyEvaluator(const Graph& g, std::vector<NodeId> answers,
               const WhyQuestion& w, size_t guard_m,
               MatchSemantics semantics = MatchSemantics::kIsomorphism,
               const CancelToken* cancel = nullptr);

  /// Aff(·): original answers that are no longer matches under `rewritten`
  /// (exact; used to seed EstMatch for each single picky operator).
  std::vector<NodeId> AffectedAnswers(const Query& rewritten) const {
    return Select(rewritten, answers_, false);
  }

  /// Promises that every later rewrite refines `q` (RfL, AddL, AddE), as
  /// every rewrite of the Why search does. Under simulation semantics each
  /// rewrite is then answered as a counted delta of Q's own relation,
  /// computed here once (see MatchEngine::AssumeRefinementsOf); answers are
  /// unchanged.
  void AssumeRefinementsOf(const Query& q) {
    engine_->AssumeRefinementsOf(q);
  }

  /// Q(u_o,G) \ V_N: the answers the guard protects.
  const std::vector<NodeId>& desired() const { return desired_; }
  bool IsUnexpected(NodeId v) const {
    return std::binary_search(targets_.begin(), targets_.end(), v);
  }

 private:
  size_t CountGuard(const Query& rewritten) const override;

  std::vector<NodeId> desired_;
};

class WhyNotEvaluator : public RewriteEvaluator {
 public:
  WhyNotEvaluator(const Graph& g, std::vector<NodeId> answers,
                  const WhyNotQuestion& w, size_t guard_m,
                  MatchSemantics semantics = MatchSemantics::kIsomorphism,
                  const CancelToken* cancel = nullptr);

  /// Missing entities (post-C) that become matches under `rewritten`.
  std::vector<NodeId> NewMatches(const Query& rewritten) const {
    return Select(rewritten, targets_, true);
  }

  /// Q(u_o,G) ∪ V_C (raw, pre-C): the nodes exempt from the guard.
  const NodeSet& protected_set() const { return protected_set_; }

 private:
  size_t CountGuard(const Query& rewritten) const override;

  NodeSet protected_set_;
};

}  // namespace whyq

#endif  // WHYQ_REWRITE_EVALUATION_H_
