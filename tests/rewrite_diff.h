#ifndef WHYQ_TESTS_REWRITE_DIFF_H_
#define WHYQ_TESTS_REWRITE_DIFF_H_

#include <string>

#include "graph/graph.h"
#include "query/query.h"

namespace whyq {

/// Test support: two renderings of the difference between a query and its
/// rewrite, for when the operator set is not at hand.

/// Structural diff (literal-level): reports literals and edges that are
/// only in one of the two.
std::string DiffQueries(const Graph& g, const Query& before,
                        const Query& after);

/// Graphviz (DOT) rendering of the diff: elements shared by `before` and
/// `after` are black, elements only in `after` (added constraints) are
/// green, elements only in `before` (dropped constraints) are red and
/// dashed. Node ids are aligned by index (rewrites only append nodes).
std::string RewriteToDot(const Query& before, const Query& after,
                         const Graph& g,
                         const std::string& graph_name = "Rewrite");

}  // namespace whyq

#endif  // WHYQ_TESTS_REWRITE_DIFF_H_
