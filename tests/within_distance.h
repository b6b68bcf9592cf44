#ifndef WHYQ_TESTS_WITHIN_DISTANCE_H_
#define WHYQ_TESTS_WITHIN_DISTANCE_H_

#include <vector>

#include "graph/graph.h"
#include "graph/neighborhood.h"

namespace whyq {

/// Test support: the paper's d-hop neighborhood as a plain BFS.

/// Computes N_d(seeds): all nodes within undirected distance `d` of any seed
/// (the seeds themselves are included at distance 0).
NodeSet WithinDistance(const Graph& g, const std::vector<NodeId>& seeds,
                       size_t d);

/// As WithinDistance, but also reports each reached node's BFS distance
/// (distance from its nearest seed) in `dist_out`, aligned with the returned
/// set's iteration order.
NodeSet WithinDistanceWithDepth(const Graph& g,
                                const std::vector<NodeId>& seeds, size_t d,
                                std::vector<size_t>* dist_out);

}  // namespace whyq

#endif  // WHYQ_TESTS_WITHIN_DISTANCE_H_
