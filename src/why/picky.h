#ifndef WHYQ_WHY_PICKY_H_
#define WHYQ_WHY_PICKY_H_

#include <optional>
#include <vector>

#include "graph/graph.h"
#include "query/query.h"
#include "rewrite/operators.h"
#include "why/question.h"

namespace whyq {

class CostModel;

/// Picky-operator generation — phase one of the paper's GenMBS (Sections IV
/// and V). A refinement operator is *picky* when applying it alone may
/// exclude some unexpected node of V_N from the answer; a relaxation
/// operator is picky when it may admit some missing node of V_C.
///
/// Both generators work on the d(u',u_o)-hop, label-filtered neighborhoods
/// N(V, u') of the question's entities, so their cost depends on Q, the
/// question and local graph density only — never on |G| (beyond one
/// node-stamp array per call). Each neighborhood is one BFS whose nodes are
/// kept per label in BFS order, so N(V, u') is a prefix of its label's run;
/// the BFS stops at the output's eccentricity, the largest d(u',u_o).
/// Active domains dom(A, N(V, u')) are one pass over the nodes' value ranks
/// in the label's AttrColumn (graph.h): a bit per rank present, then only
/// the ranks the cap keeps are materialized as Values. Each list costs its
/// length plus ranks / 64 words; no Value is sorted.
///
/// Deviations from the paper, documented in DESIGN.md:
///  * Composite AddE operators carry their resolved literals inline (one
///    literal per generated variant, plus the bare structural variant)
///    instead of emitting dependent AddL operators on the not-yet-existing
///    node; the cost model prices them identically (Example 4).
///  * Active domains are subsampled to `max_domain_values` spread-out values
///    when large; caps keep picky sets within `cfg.max_picky_ops`.

/// Generation caps beyond AnswerConfig.
struct PickyLimits {
  size_t max_domain_values = 12;   // per-attribute resolved constants
  size_t max_new_node_labels = 8;  // distinct (edge label, node label) AddE
};

/// Refinement picky set for a Why question (AddE, AddL, RfL).
std::vector<EditOp> GenPickyWhy(const Graph& g, const Query& q,
                                const std::vector<NodeId>& answers,
                                const std::vector<NodeId>& unexpected,
                                const AnswerConfig& cfg,
                                const PickyLimits& limits = PickyLimits());

/// Relaxation picky set for a Why-not question (RxL, RmL, RmE).
std::vector<EditOp> GenPickyWhyNot(const Graph& g, const Query& q,
                                   const std::vector<NodeId>& missing,
                                   const AnswerConfig& cfg,
                                   const PickyLimits& limits = PickyLimits());

/// The budget screen every search applies to its picky set: the operators
/// that fit the budget alone (no bounded set can hold one that does not),
/// kept in generation order, which fixes the candidate indexing, with
/// their costs aligned in `costs`.
void BudgetScreen(std::vector<EditOp> picky, const CostModel& cost,
                  double budget, std::vector<EditOp>* usable,
                  std::vector<double>* costs);

/// The path index a search over `q` probes: cfg.path_index when the caller
/// lends one, else one sampled from `q` into `own`.
const PathIndex& SearchPathIndex(const Query& q, const AnswerConfig& cfg,
                                 std::optional<PathIndex>* own);

}  // namespace whyq

#endif  // WHYQ_WHY_PICKY_H_
