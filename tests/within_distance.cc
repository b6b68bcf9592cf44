#include "within_distance.h"

#include "common/check.h"

namespace whyq {

NodeSet WithinDistanceWithDepth(const Graph& g,
                                const std::vector<NodeId>& seeds, size_t d,
                                std::vector<size_t>* dist_out) {
  NodeSet set(std::vector<NodeId>{}, g.node_count());
  std::vector<size_t> dist;
  for (NodeId s : seeds) {
    WHYQ_CHECK(s < g.node_count());
    if (!set.Contains(s)) {
      set.Insert(s);
      dist.push_back(0);
    }
  }
  // BFS over the frontier; `dist` is aligned with set.nodes().
  for (size_t head = 0; head < set.nodes().size(); ++head) {
    NodeId v = set.nodes()[head];
    size_t dv = dist[head];
    if (dv == d) continue;
    auto visit = [&](NodeId w) {
      if (!set.Contains(w)) {
        set.Insert(w);
        dist.push_back(dv + 1);
      }
    };
    for (const HalfEdge& e : g.out_edges(v)) visit(e.other);
    for (const HalfEdge& e : g.in_edges(v)) visit(e.other);
  }
  if (dist_out != nullptr) *dist_out = std::move(dist);
  return set;
}

NodeSet WithinDistance(const Graph& g, const std::vector<NodeId>& seeds,
                       size_t d) {
  return WithinDistanceWithDepth(g, seeds, d, nullptr);
}

}  // namespace whyq
