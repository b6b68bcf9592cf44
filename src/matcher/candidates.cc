#include "matcher/candidates.h"

namespace whyq {

namespace {

// True iff v carries the literal's attribute and the comparison holds.
bool SatisfiesLiteral(const Graph& g, NodeId v, const Literal& l) {
  const Value* val = g.GetAttr(v, l.attr);
  if (val == nullptr) return false;
  return val->Satisfies(l.op, l.constant);
}

}  // namespace

bool IsCandidate(const Graph& g, NodeId v, const QueryNode& qn) {
  if (g.label(v) != qn.label) return false;
  for (const Literal& l : qn.literals) {
    if (!SatisfiesLiteral(g, v, l)) return false;
  }
  return true;
}

std::vector<NodeId> Candidates(const Graph& g, const Query& q, QNodeId u) {
  std::vector<NodeId> out;
  const QueryNode& qn = q.node(u);
  for (NodeId v : g.NodesWithLabel(qn.label)) {
    if (IsCandidate(g, v, qn)) out.push_back(v);
  }
  return out;
}

}  // namespace whyq
