#ifndef WHYQ_WHY_WHY_ALGORITHMS_H_
#define WHYQ_WHY_WHY_ALGORITHMS_H_

#include <string>
#include <vector>

#include "common/metrics.h"
#include "graph/graph.h"
#include "matcher/match_context.h"
#include "query/query.h"
#include "rewrite/evaluation.h"
#include "rewrite/operators.h"
#include "why/question.h"

namespace whyq {

// Thread-safety contract (all six algorithm entry points, both headers):
// every call builds its own evaluators/match state, reading only const
// inputs, so concurrent calls over one shared Graph are safe. Within a
// call, cfg.threads > 1 fans the MBS verification (exact) or the
// marginal-gain scans (greedy) out over ThreadPool::Shared(); results are
// byte-identical to cfg.threads == 1 whenever truncation is deterministic
// (cfg.exact_time_limit_ms == 0) — see the exact driver in
// why/why_algorithms.cc and docs/ARCHITECTURE.md "Intra-question
// parallelism".

/// The outcome of answering a Why/Why-not question: the chosen operator set
/// O, the induced rewrite Q' = Q ⊕ O, its editing cost, and its *exact*
/// evaluation (closeness + guard), regardless of whether the algorithm
/// optimized exactly or by estimate.
struct RewriteAnswer {
  bool found = false;  // a non-empty valid operator set was selected
  OperatorSet ops;
  Query rewritten;
  double cost = 0.0;
  EvalResult eval;                    // exact closeness/guard of `rewritten`
  double estimated_closeness = 0.0;   // the optimizer's own view (approx/fast)
  size_t picky_count = 0;             // |O_s|
  size_t sets_enumerated = 0;         // MBS emitted by the DFS (exact only)
  size_t sets_verified = 0;           // MBS verified / greedy steps taken
  size_t guard_checks = 0;            // guard admission checks (exact only)
  bool exhaustive = false;            // exact enumeration was not truncated
  // Candidate-memo (MatchContext) counters summed over every evaluator the
  // question used — the main evaluator plus all parallel executor slots.
  MatchContext::Stats ctx;

  /// One-line explanation: the operators and the achieved closeness.
  std::string Explain(const Graph& g) const;
};

/// Adds the answer's work to `trace`: the MBS and guard-check counts for
/// ExactWhy / ExactWhyNot (`exact`), the greedy rounds (one verified set per round)
/// otherwise, and the candidate-memo counters.
void AddAnswerWork(const RewriteAnswer& a, bool exact, RequestTrace* trace);

/// ExactWhy (Fig. 3): enumerates maximal bounded sets over the refinement
/// picky set, verifies each with the incremental Match, early-terminates at
/// closeness 1, and (optionally, cfg.minimize_cost) post-processes the
/// winner by dropping one operator at a time while closeness and guard
/// hold. No single operator of the result can then be dropped, but a
/// cheaper set of the same closeness may still exist.
/// Worst-case exponential in |O_s| (one Match per maximal bounded set);
/// bounded in practice by cfg.max_mbs / cfg.exact_time_limit_ms, reported
/// via RewriteAnswer::exhaustive. When enumeration was truncated, seeds
/// the result with ApproxWhy's answer if that is closer (or as close but
/// cheaper).
RewriteAnswer ExactWhy(const Graph& g, const Query& q,
                       const std::vector<NodeId>& answers,
                       const WhyQuestion& w, const AnswerConfig& cfg);

/// ApproxWhy (Fig. 4): budgeted-submodular greedy over estimated marginal
/// gains (EstMatch), with the paper's (1/2)(1-1/e) - 6B*eps guarantee.
/// Verifies each picky operator exactly once; all set-level closenesses are
/// estimated via per-operator affected sets + path tests. O(|O_s|) Match
/// calls up front, then O(|O_s|^2) cheap path-index probes across rounds.
RewriteAnswer ApproxWhy(const Graph& g, const Query& q,
                        const std::vector<NodeId>& answers,
                        const WhyQuestion& w, const AnswerConfig& cfg);

/// IsoWhy: ApproxWhy's greedy with exact Match in place of EstMatch
/// (epsilon = 0, at O(|O_s|^2) isomorphism tests — the paper's baseline).
RewriteAnswer IsoWhy(const Graph& g, const Query& q,
                     const std::vector<NodeId>& answers, const WhyQuestion& w,
                     const AnswerConfig& cfg);

}  // namespace whyq

#endif  // WHYQ_WHY_WHY_ALGORITHMS_H_
