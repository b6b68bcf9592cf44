#ifndef WHYQ_QUERY_QUERY_H_
#define WHYQ_QUERY_QUERY_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/dictionary.h"
#include "common/value.h"
#include "graph/graph.h"

namespace whyq {

/// Query-node identifier within one Query.
using QNodeId = uint32_t;

inline constexpr QNodeId kInvalidQNode = UINT32_MAX;

/// A predicate literal `u.A op c` attached to a query node (Section II).
struct Literal {
  SymbolId attr = kInvalidSymbol;
  CompareOp op = CompareOp::kEq;
  Value constant;

  bool operator==(const Literal& rhs) const {
    return attr == rhs.attr && op == rhs.op && constant == rhs.constant;
  }

  std::string ToString(const Graph& g) const;
};

/// A query node: label plus the conjunction F_Q(u) of literals.
struct QueryNode {
  SymbolId label = kInvalidSymbol;
  std::vector<Literal> literals;
};

/// A directed, labeled query edge.
struct QueryEdge {
  QNodeId src = kInvalidQNode;
  QNodeId dst = kInvalidQNode;
  SymbolId label = kInvalidSymbol;

  bool operator==(const QueryEdge& rhs) const {
    return src == rhs.src && dst == rhs.dst && label == rhs.label;
  }
};

/// A subgraph query Q = (V_Q, E_Q, L_Q, F_Q, u_o): a labeled pattern graph
/// whose designated output node u_o identifies the entities to return.
///
/// Symbols (labels, attribute names) are ids in the target Graph's
/// dictionaries; a query is built against a specific graph's symbol space
/// (labels absent from the graph simply match nothing).
///
/// Mutation is limited to construction-style appends plus the operations
/// needed by rewrite application (literal edits, edge/literal removal); the
/// rewriting layer in rewrite/ is the intended mutator.
///
/// Thread-safety: immutable after construction, shared across workers. All
/// const accessors (including Size/IsConnected/DistancesToOutput) compute on
/// demand with no mutable caches, so a built Query may be read concurrently.
/// Rewrite application never mutates a shared instance — ApplyOperators
/// copies, which is what makes sharing cached queries across workers safe.
class Query {
 public:
  Query() = default;

  QNodeId AddNode(SymbolId label);
  void AddLiteral(QNodeId u, Literal l);
  void AddEdge(QNodeId src, QNodeId dst, SymbolId label);
  void SetOutput(QNodeId u);

  size_t node_count() const { return nodes_.size(); }
  size_t edge_count() const { return edges_.size(); }

  const QueryNode& node(QNodeId u) const { return nodes_[u]; }
  QueryNode& mutable_node(QNodeId u) { return nodes_[u]; }
  const std::vector<QueryEdge>& edges() const { return edges_; }

  QNodeId output() const { return output_; }

  /// Additional output nodes for the multi-output extension (Section V);
  /// `output()` is always the first entry.
  const std::vector<QNodeId>& outputs() const { return outputs_; }
  void AddOutput(QNodeId u);

  /// Removes the edge (src, dst) with the given label; returns false when
  /// absent. Nodes are never removed (a disconnected rewrite keeps them; the
  /// matcher evaluates the component of the output node only).
  bool RemoveEdge(QNodeId src, QNodeId dst, SymbolId label);

  /// Removes an exact literal from u; returns false when absent.
  bool RemoveLiteral(QNodeId u, const Literal& l);

  /// Replaces an exact literal on u with `replacement`; false when absent.
  bool ReplaceLiteral(QNodeId u, const Literal& before,
                      const Literal& replacement);

  /// |Q| = number of literals + number of edges (paper's query size).
  size_t Size() const;

  /// True iff every node reaches the output node (undirected).
  bool IsConnected() const;

  /// Structural sanity: edges reference valid nodes, output designated.
  bool Validate(std::string* error) const;

  // --- Metrics for the cost model (Section III-C) ---

  /// Sentinel distance for nodes disconnected from the output.
  static constexpr size_t kUnreachable = std::numeric_limits<size_t>::max();

  /// d(u, u_o) of every node, indexed by QNodeId (kUnreachable off the
  /// output's component), from one BFS.
  std::vector<size_t> DistancesToOutput() const;

  /// Undirected diameter d_Q over the component of the output node.
  size_t Diameter() const;

  /// Undirected neighbors of u (query nodes sharing an edge with u).
  std::vector<QNodeId> UndirectedNeighbors(QNodeId u) const;

  /// The set of query nodes in the output node's undirected component.
  std::vector<QNodeId> OutputComponent() const;

  /// Human-readable multi-line rendering (names resolved against g).
  std::string ToString(const Graph& g) const;

 private:
  std::vector<size_t> BfsFrom(QNodeId start) const;

  std::vector<QueryNode> nodes_;
  std::vector<QueryEdge> edges_;
  QNodeId output_ = kInvalidQNode;
  std::vector<QNodeId> outputs_;
};

}  // namespace whyq

#endif  // WHYQ_QUERY_QUERY_H_
