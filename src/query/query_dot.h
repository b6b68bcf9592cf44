#ifndef WHYQ_QUERY_QUERY_DOT_H_
#define WHYQ_QUERY_QUERY_DOT_H_

#include <string>

#include "graph/graph.h"
#include "query/query.h"

namespace whyq {

/// Graphviz (DOT) rendering of queries and rewrites — the visual-querying
/// side of exploratory search the paper motivates (Fig. 2: "the difference
/// between the query rewrite Q' and its original counterpart Q blends
/// visual querying and approximate search").

/// Renders one query. The output node is drawn with a double border;
/// literals appear inside the node label.
std::string QueryToDot(const Query& q, const Graph& g,
                       const std::string& graph_name = "Q");

}  // namespace whyq

#endif  // WHYQ_QUERY_QUERY_DOT_H_
