#ifndef WHYQ_GRAPH_GRAPH_STATS_H_
#define WHYQ_GRAPH_GRAPH_STATS_H_

#include <string>
#include <vector>

#include "graph/graph.h"

namespace whyq {

/// Summary statistics of a graph, mirroring how the paper characterizes its
/// datasets (nodes, edges, label alphabet, average attributes per node).
struct GraphStats {
  size_t nodes = 0;
  size_t edges = 0;
  size_t node_labels = 0;
  size_t edge_labels = 0;
  size_t attributes = 0;
  double avg_attrs_per_node = 0.0;
  double avg_out_degree = 0.0;
  size_t max_out_degree = 0;

  std::string ToString() const;
};

GraphStats ComputeStats(const Graph& g);

/// Active domains dom(A, V): the distinct values of v.A over v in a node
/// list V of one label (nodes lacking A contribute nothing), read from the
/// label's AttrColumn of A. One pass over the list sets a bit per value
/// rank present (Graph::BucketPosition gives each node's row); no Value is
/// copied or sorted, and callers materialize only the ranks they keep
/// (AttrColumn::ValueAt). O(|V| + ranks / 64). Reuses its bitset across
/// calls, so one instance serves a whole generation; not thread-safe.
class ActiveDomains {
 public:
  /// The ranks of dom(A, V) ascending, which is Value's container order.
  /// `col` is the column of A over the label of `nodes` (null when no node
  /// of the label carries A). With 0 < cap < n ranks present, only the
  /// `cap` spread-out ranks at positions i * (n - 1) / (cap - 1), i < cap,
  /// are kept (cap 1: the lowest).
  std::vector<uint32_t> Ranks(const Graph& g, const AttrColumn* col,
                              NodeSpan nodes, size_t cap);

 private:
  std::vector<uint64_t> bits_;  // all zero between calls
};

}  // namespace whyq

#endif  // WHYQ_GRAPH_GRAPH_STATS_H_
