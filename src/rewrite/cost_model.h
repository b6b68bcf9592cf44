#ifndef WHYQ_REWRITE_COST_MODEL_H_
#define WHYQ_REWRITE_COST_MODEL_H_

#include <vector>

#include "graph/graph.h"
#include "query/query.h"
#include "rewrite/operators.h"

namespace whyq {

/// The editing-cost model c(O) of Section III-C, evaluated against the
/// *original* query Q (operator costs do not change as a set grows).
///
///   oc(u) = d_Q / (d(u, u_o) + 1)             (output centrality)
///   node operator on u:        c(o) = w(o) * oc(u)
///   edge operator on (u, u'):  c(o) = min(oc(u), oc(u'))
///
/// A composite AddE that introduces a fresh node places it at distance
/// d(u, u_o) + 1; its cost is the edge cost min(oc(u), oc(new)) plus one
/// AddL cost oc(new) per literal it carries — the paper prices bundled
/// literals as separate AddL operators (Example 4: c(O_1) = 2+1+1 = 4).
///
/// With `weighted` enabled (the paper's "Remarks" extension), RxL/RfL get
/// w(o) = 1 + |c' - c| / range(D(A)) using the graph-wide numeric range of
/// the attribute; all other operators keep w(o) = 1. Non-numeric or
/// degenerate (zero-width) domains also use w(o) = 1.
class CostModel {
 public:
  CostModel(const Query& q, const Graph& g, bool weighted = true);

  double Cost(const EditOp& op) const;
  double Cost(const OperatorSet& ops) const;

  /// oc(u) for an original query node: 0 off the output's component, and
  /// 0 for the single-node query (d_Q = 0), as the paper's formula gives.
  double Centrality(QNodeId u) const;

  /// Smallest possible single-operator cost given this query's shape — any
  /// operator costs at least d_Q/(d_Q+2) (used to bound MBS sizes).
  double MinOperatorCost() const;

  size_t diameter() const { return diameter_; }
  bool weighted() const { return weighted_; }

 private:
  double WeightOf(const EditOp& op) const;

  const Graph& g_;
  std::vector<double> centrality_;  // per original query node
  std::vector<size_t> dist_;        // d(u, u_o)
  size_t diameter_ = 0;
  bool weighted_ = true;
};

}  // namespace whyq

#endif  // WHYQ_REWRITE_COST_MODEL_H_
