#ifndef WHYQ_QUERY_QUERY_PARSER_H_
#define WHYQ_QUERY_QUERY_PARSER_H_

#include <optional>
#include <string>

#include "graph/graph.h"
#include "query/query.h"

namespace whyq {

/// Textual query DSL (one declaration per line, tokens whitespace-split):
///
///   node <name> <Label> [<Attr> <op> <typed-value>]...
///   edge <name> <name> <EdgeLabel>
///   output <name>
///   # comment
///
/// A query has exactly one output node: a second `output` line, or a second
/// name on the one line, is a parse error.
/// `op` is one of < <= = >= >; typed values use graph_io's `i:`/`d:`/`s:`
/// forms. Labels / attribute names are resolved in `g`'s symbol space; names
/// absent from the graph are accepted (they match nothing), which mirrors a
/// user probing an unfamiliar graph.
std::optional<Query> ParseQuery(const std::string& text, const Graph& g,
                                std::string* error);

/// Serializes a query back into the DSL (round-trips through ParseQuery).
std::string WriteQuery(const Query& q, const Graph& g);

/// Parses a comparison-operator token.
std::optional<CompareOp> ParseCompareOp(const std::string& token);

}  // namespace whyq

#endif  // WHYQ_QUERY_QUERY_PARSER_H_
