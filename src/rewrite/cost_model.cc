#include "rewrite/cost_model.h"

#include <algorithm>

#include "common/check.h"

namespace whyq {

CostModel::CostModel(const Query& q, const Graph& g, bool weighted)
    : g_(g), weighted_(weighted) {
  diameter_ = q.Diameter();
  dist_ = q.DistancesToOutput();
  centrality_.resize(q.node_count());
  for (QNodeId u = 0; u < q.node_count(); ++u) {
    // oc(u) = d_Q / (d(u, u_o) + 1); 0 off the output's component.
    if (dist_[u] == Query::kUnreachable) continue;
    centrality_[u] = static_cast<double>(diameter_) /
                     static_cast<double>(dist_[u] + 1);
  }
}

double CostModel::Centrality(QNodeId u) const {
  WHYQ_CHECK(u < centrality_.size());
  return centrality_[u];
}

double CostModel::MinOperatorCost() const {
  return static_cast<double>(diameter_) /
         static_cast<double>(diameter_ + 2);
}

double CostModel::WeightOf(const EditOp& op) const {
  if (!weighted_) return 1.0;
  if (op.kind != OpKind::kRxL && op.kind != OpKind::kRfL) return 1.0;
  const AttrRange* r = g_.RangeOf(op.before.attr);
  if (r == nullptr || !r->numeric) return 1.0;
  double range = r->max - r->min;
  if (range <= 0.0) return 1.0;
  std::optional<double> diff =
      AbsoluteDifference(op.before.constant, op.after.constant);
  if (!diff.has_value()) return 1.0;
  return 1.0 + *diff / range;
}

double CostModel::Cost(const EditOp& op) const {
  switch (op.kind) {
    case OpKind::kRxL:
    case OpKind::kRfL:
    case OpKind::kRmL:
    case OpKind::kAddL:
      return WeightOf(op) * Centrality(op.u);
    case OpKind::kRmE:
      return std::min(Centrality(op.u), Centrality(op.v));
    case OpKind::kAddE: {
      if (op.new_node.has_value()) {
        size_t d_new = dist_[op.u] == Query::kUnreachable
                           ? Query::kUnreachable
                           : dist_[op.u] + 1;
        double oc_new =
            d_new == Query::kUnreachable
                ? 0.0
                : static_cast<double>(diameter_) /
                      static_cast<double>(d_new + 1);
        // A composite AddE bundles the edge plus AddL operators on the new
        // node; the paper prices those AddL separately at the new node's
        // centrality (Example 4: c(O_1) = 2 + 1 + 1 = 4).
        return std::min(Centrality(op.u), oc_new) +
               oc_new * static_cast<double>(op.new_node->literals.size());
      }
      return std::min(Centrality(op.u), Centrality(op.v));
    }
  }
  return 0.0;
}

double CostModel::Cost(const OperatorSet& ops) const {
  double total = 0.0;
  for (const EditOp& op : ops) total += Cost(op);
  return total;
}

}  // namespace whyq
