#include "graph/neighborhood.h"

namespace whyq {

NodeSet::NodeSet(const std::vector<NodeId>& nodes, size_t universe) {
  member_.assign(universe, 0);
  nodes_.reserve(nodes.size());
  for (NodeId v : nodes) Insert(v);
}

void NodeSet::Insert(NodeId v) {
  if (v >= member_.size()) member_.resize(v + 1, 0);
  if (member_[v]) return;
  member_[v] = 1;
  nodes_.push_back(v);
}

}  // namespace whyq
