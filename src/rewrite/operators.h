#ifndef WHYQ_REWRITE_OPERATORS_H_
#define WHYQ_REWRITE_OPERATORS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "query/query.h"

namespace whyq {

// Everything in this header is a value type or a pure function of const
// inputs (ApplyOperators copies q; nothing mutates shared state), so all
// of it is safe to use concurrently — the parallel batch verification in
// the exact search (why/why_algorithms.cc) applies operators from many pool
// slots at once.
// Complexity: OpsConflict is O(1); BuildConflicts O(|ops|^2);
// ApplyOperators O(|Q| + |O|).

/// The six primitive query-editing operator classes (Section III-B).
enum class OpKind : uint8_t {
  kRxL,   // relax a literal's constant/op
  kRmL,   // remove a literal
  kRmE,   // remove an edge
  kRfL,   // refine a literal's constant/op
  kAddL,  // add a literal
  kAddE,  // add an edge (optionally introducing a new literal-carrying node)
};

const char* OpKindName(OpKind k);

/// Relaxation operators grow answers; refinement operators shrink them
/// (Lemma 1). Why-not uses relaxations, Why uses refinements.
bool IsRelaxation(OpKind k);
bool IsRefinement(OpKind k);

/// Specification of the node a composite AddE introduces: label plus the
/// (already resolved) literals it carries.
struct NewNodeSpec {
  SymbolId label = kInvalidSymbol;
  std::vector<Literal> literals;

  bool operator==(const NewNodeSpec& rhs) const {
    return label == rhs.label && literals == rhs.literals;
  }
};

/// One edit operator o. Field usage by kind:
///  - kRxL / kRfL: u, before -> after
///  - kRmL:        u, before
///  - kAddL:       u, after
///  - kRmE:        u -> v with edge_label
///  - kAddE:       u -> v with edge_label (existing endpoints), or
///                 new_node engaged: edge between u and a fresh node,
///                 direction per edge_forward (true: u -> new node).
struct EditOp {
  OpKind kind = OpKind::kAddL;
  QNodeId u = kInvalidQNode;
  QNodeId v = kInvalidQNode;
  SymbolId edge_label = kInvalidSymbol;
  bool edge_forward = true;
  Literal before;
  Literal after;
  std::optional<NewNodeSpec> new_node;

  bool operator==(const EditOp& rhs) const;

  std::string ToString(const Graph& g) const;
};

/// An operator set O inducing the rewrite Q' = Q ⊕ O.
using OperatorSet = std::vector<EditOp>;

/// Two operators conflict when they edit the same artifact of Q and cannot
/// both apply: literal edits (RxL/RfL/RmL) of the same literal on the same
/// node, or duplicate removals of the same edge. Operator sets considered
/// by the algorithms are always conflict-free.
bool OpsConflict(const EditOp& a, const EditOp& b);

/// Per-operator conflict adjacency over a picky set (indices into `ops`).
std::vector<std::vector<size_t>> BuildConflicts(
    const std::vector<EditOp>& ops);

/// Applies O to q, producing the rewrite. Query-node ids of q are preserved
/// (new AddE nodes are appended), which downstream estimation (PathIndex)
/// relies on. Operators that no longer apply (e.g., removing an already
/// removed literal) abort via WHYQ_CHECK — generators only produce
/// applicable sets, so this is an internal-invariant failure.
Query ApplyOperators(const Query& q, const OperatorSet& ops);

/// Renders an operator set for explanations ("what changed and why").
std::string DescribeOperators(const OperatorSet& ops, const Graph& g);

}  // namespace whyq

#endif  // WHYQ_REWRITE_OPERATORS_H_
