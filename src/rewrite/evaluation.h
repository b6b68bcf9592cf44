#ifndef WHYQ_REWRITE_EVALUATION_H_
#define WHYQ_REWRITE_EVALUATION_H_

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

/// Exact closeness/guard evaluator for Why questions against a fixed
/// (Q, G, Q(u_o,G), V_N). This is the paper's Match procedure: it checks
/// incrementally which original answers survive the rewrite instead of
/// recomputing Q'(u_o, G) from scratch, early-terminating per node on the
/// first embedding and early-terminating the guard count beyond m.
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
/// Both evaluators verify a rewrite in two parts: the guard count, then the
/// closeness tests. Guard(Q') is the first part alone, and
/// Evaluate(Q', guard) the second alone for a rewrite whose guard Guard
/// already counted (the exact search admits every set it verifies through
/// Guard), so the pair equals Evaluate(Q').
class WhyEvaluator {
 public:
  WhyEvaluator(const Graph& g, std::vector<NodeId> answers,
               const WhyQuestion& w, size_t guard_m,
               MatchSemantics semantics = MatchSemantics::kIsomorphism,
               const CancelToken* cancel = nullptr);

  /// cl(O) and guard of a refinement rewrite; a failed guard when cut
  /// short (see class comment).
  EvalResult Evaluate(const Query& rewritten) const;

  /// Evaluate for a rewrite whose guard count `known_guard` (<= m) Guard
  /// returned: tests the unexpected answers only, not the desired ones.
  EvalResult Evaluate(const Query& rewritten, size_t known_guard) const;

  /// The number of desired answers the rewrite excludes when it is at most
  /// m (early-terminating past m), none otherwise. The admissibility
  /// predicate of the exact guard-aware MBS enumeration.
  std::optional<size_t> Guard(const Query& rewritten) const;
  bool GuardOk(const Query& rewritten) const {
    return Guard(rewritten).has_value();
  }

  /// Aff(·): original answers that are no longer matches under `rewritten`
  /// (exact; used to seed EstMatch for each single picky operator).
  std::vector<NodeId> AffectedAnswers(const Query& rewritten) const;

  /// Promises that every later rewrite refines `q` (RfL, AddL, AddE), as
  /// every rewrite of the Why search does. Under simulation semantics each
  /// rewrite is then answered as a counted delta of Q's own relation,
  /// computed here once (see MatchEngine::AssumeRefinementsOf); answers are
  /// unchanged.
  void AssumeRefinementsOf(const Query& q) {
    engine_->AssumeRefinementsOf(q);
  }

  const std::vector<NodeId>& answers() const { return answers_; }
  const std::vector<NodeId>& unexpected() const { return unexpected_; }
  size_t guard_m() const { return guard_m_; }
  const MatchEngine& engine() const { return *engine_; }
  const Graph& graph() const { return g_; }

  /// The evaluator's candidate memo, under either semantics. Single-thread
  /// state, like the evaluator itself.
  MatchContext& context() const { return *ctx_; }

  bool IsUnexpected(NodeId v) const { return unexpected_set_.Contains(v); }

 private:
  // Desired answers the rewrite excludes, counted up to m + 1.
  size_t CountGuard(const Query& rewritten) const;

  const Graph& g_;
  std::unique_ptr<MatchContext> ctx_;  // declared before engine_ (init order)
  std::unique_ptr<MatchEngine> engine_;
  std::vector<NodeId> answers_;
  std::vector<NodeId> unexpected_;       // V_N (deduplicated, ⊆ answers)
  std::vector<NodeId> desired_answers_;  // Q(u_o,G) \ V_N
  NodeSet unexpected_set_;
  size_t guard_m_;
  const CancelToken* cancel_;
};

/// Exact evaluator for Why-not questions against (Q, G, Q(u_o,G), V_C, C).
/// The missing set is filtered through C once at construction; the guard
/// |Q'(u_o,G) \ (Q(u_o,G) ∪ V_C)| is counted with early termination at
/// m + 1 via the matcher's capped answer enumeration. Evaluations cut short
/// by the cancel token report a failed guard, as WhyEvaluator's do.
class WhyNotEvaluator {
 public:
  WhyNotEvaluator(const Graph& g, std::vector<NodeId> answers,
                  const WhyNotQuestion& w, size_t guard_m,
                  MatchSemantics semantics = MatchSemantics::kIsomorphism,
                  const CancelToken* cancel = nullptr);

  EvalResult Evaluate(const Query& rewritten) const;

  /// Evaluate for a rewrite whose guard count `known_guard` (<= m) Guard
  /// returned: tests the missing entities only, without recounting.
  EvalResult Evaluate(const Query& rewritten, size_t known_guard) const;

  /// The number of matches outside Q(u_o,G) ∪ V_C when it is at most m
  /// (the count stops at m + 1), none otherwise.
  std::optional<size_t> Guard(const Query& rewritten) const;
  bool GuardOk(const Query& rewritten) const {
    return Guard(rewritten).has_value();
  }

  /// Missing entities (post-C) that become matches under `rewritten`.
  std::vector<NodeId> NewMatches(const Query& rewritten) const;

  const std::vector<NodeId>& answers() const { return answers_; }

  /// V_C after applying the selection condition C.
  const std::vector<NodeId>& missing() const { return missing_; }

  /// Q(u_o,G) ∪ V_C (raw, pre-C): the nodes exempt from the guard.
  const NodeSet& protected_set() const { return protected_set_; }
  size_t guard_m() const { return guard_m_; }
  const MatchEngine& engine() const { return *engine_; }
  const Graph& graph() const { return g_; }

  /// The evaluator's candidate memo, under either semantics.
  MatchContext& context() const { return *ctx_; }

 private:
  // Matches outside the protected set, counted up to m + 1.
  size_t CountGuard(const Query& rewritten) const;

  const Graph& g_;
  std::unique_ptr<MatchContext> ctx_;  // declared before engine_ (init order)
  std::unique_ptr<MatchEngine> engine_;
  std::vector<NodeId> answers_;
  std::vector<NodeId> missing_;  // filtered V_C
  NodeSet protected_set_;        // answers ∪ V_C (exempt from the guard)
  size_t guard_m_;
  const CancelToken* cancel_;
};

}  // namespace whyq

#endif  // WHYQ_REWRITE_EVALUATION_H_
