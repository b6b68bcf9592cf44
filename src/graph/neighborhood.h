#ifndef WHYQ_GRAPH_NEIGHBORHOOD_H_
#define WHYQ_GRAPH_NEIGHBORHOOD_H_

#include <vector>

#include "graph/graph.h"

namespace whyq {

/// A set of graph nodes with O(1) membership. Iteration order is insertion
/// order.
class NodeSet {
 public:
  NodeSet() = default;

  /// Builds from an explicit list (duplicates ignored).
  NodeSet(const std::vector<NodeId>& nodes, size_t universe);

  bool Contains(NodeId v) const {
    return v < member_.size() && member_[v] != 0;
  }

  void Insert(NodeId v);

  const std::vector<NodeId>& nodes() const { return nodes_; }
  size_t size() const { return nodes_.size(); }
  bool empty() const { return nodes_.empty(); }

 private:
  std::vector<uint8_t> member_;
  std::vector<NodeId> nodes_;
};

}  // namespace whyq

#endif  // WHYQ_GRAPH_NEIGHBORHOOD_H_
