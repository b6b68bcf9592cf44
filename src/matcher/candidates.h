#ifndef WHYQ_MATCHER_CANDIDATES_H_
#define WHYQ_MATCHER_CANDIDATES_H_

#include <vector>

#include "graph/graph.h"
#include "query/query.h"

namespace whyq {

/// True iff data node v is a *candidate* of query node `qn` (Section II):
/// same label, and for every literal u.A op c, v carries A and v.A op c.
bool IsCandidate(const Graph& g, NodeId v, const QueryNode& qn);

/// All candidates of query node u in g (via the label index).
std::vector<NodeId> Candidates(const Graph& g, const Query& q, QNodeId u);

}  // namespace whyq

#endif  // WHYQ_MATCHER_CANDIDATES_H_
