#ifndef WHYQ_WHY_EXTENSIONS_H_
#define WHYQ_WHY_EXTENSIONS_H_

#include <vector>

#include "graph/graph.h"
#include "query/query.h"
#include "rewrite/operators.h"
#include "why/question.h"
#include "why/why_algorithms.h"

namespace whyq {

/// Why-empty (Section V "Extensions"): a Why-not question with no V_C — the
/// user only wants *some* answer. Returns a relaxation rewrite within
/// budget whose answer under cfg.semantics is non-empty, preferring cheap
/// operator sets.
struct WhyEmptyResult {
  bool found = false;
  OperatorSet ops;
  Query rewritten;
  double cost = 0.0;
  std::vector<NodeId> sample_answers;  // up to 10 witnesses
};

WhyEmptyResult AnswerWhyEmpty(const Graph& g, const Query& q,
                              const AnswerConfig& cfg);

/// Why-so-many (Section V "Extensions"): a Why question with no V_N — the
/// user wants the answer shrunk to at most `target_k` entities. Greedy
/// refinement over the picky set with path-index screening; the final
/// rewrite is re-evaluated exactly under cfg.semantics, the semantics
/// `answers` must have been matched under.
struct WhySoManyResult {
  bool found = false;  // reached <= target_k within budget
  OperatorSet ops;
  Query rewritten;
  double cost = 0.0;
  size_t before = 0;  // |Q(u_o, G)|
  size_t after = 0;   // |Q'(u_o, G)|
};

WhySoManyResult AnswerWhySoMany(const Graph& g, const Query& q,
                                const std::vector<NodeId>& answers,
                                size_t target_k, const AnswerConfig& cfg);

/// Multi-output extension: a Why question over all of q.outputs(), with one
/// unexpected set per output node (aligned with q.outputs()). Closeness is
/// pooled: excluded unexpected entities over all outputs / total
/// unexpected; the guard pools collateral exclusions the same way.
/// Exact (MBS-based) algorithm; operator costs use the nearest output.
RewriteAnswer ExactWhyMultiOutput(
    const Graph& g, const Query& q,
    const std::vector<std::vector<NodeId>>& answers_per_output,
    const std::vector<std::vector<NodeId>>& unexpected_per_output,
    const AnswerConfig& cfg);

/// Greedy multi-output Why (the extension keeps ApproxWhy's budgeted
/// submodular structure: the pooled closeness is a coverage function over
/// per-operator affected sets). Per-operator effects are verified exactly
/// once per output; set-level gains use their union.
RewriteAnswer ApproxWhyMultiOutput(
    const Graph& g, const Query& q,
    const std::vector<std::vector<NodeId>>& answers_per_output,
    const std::vector<std::vector<NodeId>>& unexpected_per_output,
    const AnswerConfig& cfg);

}  // namespace whyq

#endif  // WHYQ_WHY_EXTENSIONS_H_
