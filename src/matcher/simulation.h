#ifndef WHYQ_MATCHER_SIMULATION_H_
#define WHYQ_MATCHER_SIMULATION_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "query/query.h"

namespace whyq {

class MatchContext;

/// Dual graph simulation — the polynomial-time approximate pattern-matching
/// semantics ([4] Fan et al., PVLDB 2010) the paper names as an extension
/// target ("Subgraph queries defined by approximate pattern matching").
///
/// A dual-simulation relation S assigns each query node u a set S(u) of
/// data nodes such that every v in S(u) is a candidate of u (label +
/// literals) and, for every query edge (u, u'), v has an out-neighbor via
/// that edge label in S(u') — and symmetrically for incoming edges. The
/// *maximum* such relation is unique and computable by fixpoint pruning.
///
/// Relative to subgraph isomorphism: injectivity is dropped and cyclic
/// patterns may match their unrollings, so Sim(u_o) ⊇ Iso answers; all of
/// the library's Why-machinery (Lemma 1 monotonicity, the guard, the path
/// index as a necessary condition) carries over.
///
/// Only the output node's connected component constrains the result,
/// mirroring the isomorphism matcher's handling of disconnected rewrites.
///
/// The simulation runs over the graph of `ctx`, the caller's candidate
/// memo: each S(u) starts from the memoized candidate set of u's
/// constraint (a hit when an earlier rewrite of the same request shared
/// it). The context is single-thread state.

/// The maximum dual-simulation relation: one (sorted) node set per query
/// node; nodes outside the output component get empty sets. This is the
/// cold fixpoint: each S(u) starts from cand(u) and is swept to stability.
std::vector<std::vector<NodeId>> DualSimulation(MatchContext& ctx,
                                                const Query& q);

/// The maximum dual simulation of every refinement of one base query Q,
/// answered as a delta of Q's own relation (the incremental-simulation
/// argument of Fan, Wang and Wu, TODS 2013, with the support counters of
/// Henzinger, Henzinger and Kopke).
///
/// A refinement keeps Q's output and node ids, gives each kept node a
/// constraint whose candidates are a subset of Q's (RfL, AddL), and adds
/// edges, possibly to new nodes (AddE). Restricted to Q's output component
/// its relation is a dual simulation of Q, so S_{Q'}(u) ⊆ S_Q(u) there.
///
/// The constructor runs the cold fixpoint of Q once and counts, for each
/// edge of Q's output component, each end and each member v of that end's
/// set, v's neighbours over the edge label inside the other end's set.
/// A refinement then starts from S_Q on Q's component nodes and from the
/// candidate lists on the others (new nodes, and nodes an AddE joins to
/// the component). It drops the members that fail a changed constraint,
/// and the members with no witness over an edge Q's component lacks, whose
/// counts are taken fresh. Each drop decrements the counts of its labelled
/// neighbours, and a count that reaches 0 drops that neighbour. Counts and
/// member bits are restored after every call, so one instance answers any
/// number of refinements.
///
/// Single-thread state over the borrowed context, like the context itself.
class RefinementSimulation {
 public:
  RefinementSimulation(MatchContext& ctx, const Query& base);

  RefinementSimulation(const RefinementSimulation&) = delete;
  RefinementSimulation& operator=(const RefinementSimulation&) = delete;

  /// DualSimulation(ctx, q) for a refinement `q` of the base, or nullopt
  /// when q does not keep the base's output, its node ids and its edges as
  /// a prefix of its own, the order ApplyOperators leaves them in (q then
  /// needs the cold fixpoint). That the kept constraints only narrow is
  /// the caller's promise; it is not checked.
  std::optional<std::vector<std::vector<NodeId>>> Relation(const Query& q);

  /// Sim(u_o) of Relation(q) alone.
  std::optional<std::vector<NodeId>> Answers(const Query& q);

 private:
  // One component node of the refinement during a call: the ascending set
  // it starts from (S_Q(u), or cand(u) off Q's component; either outlives
  // the call) and its member bitmap over V.
  struct Slot {
    const NodeId* nodes = nullptr;
    size_t count = 0;
    uint64_t* member = nullptr;
    bool base = false;  // member is Q's bitmap: drops are undone

    NodeSpan list() const { return NodeSpan{nodes, count}; }
  };
  // One component edge of the refinement with its witness counts: fwd per
  // position of the source's list, bwd per position of the target's.
  struct Counted {
    QueryEdge edge;
    uint32_t* fwd = nullptr;
    uint32_t* bwd = nullptr;
    bool inherited = false;  // Q's counts: decrements are undone
  };
  // A component edge at one of its ends: `out` when the end is the source.
  struct Incident {
    uint32_t edge;
    bool out;
  };

  // Runs the delta of `q` and leaves its relation in slots_ until Restore;
  // false, having changed nothing, when q is not shaped as a refinement.
  bool Propagate(const Query& q);
  // The members of u's set left by the last Propagate, ascending.
  std::vector<NodeId> Members(QNodeId u) const;
  // Drops v from the set of u unless already dropped.
  void Drop(QNodeId u, NodeId v);
  // Undoes every drop and decrement of the last Propagate.
  void Restore();

  MatchContext& ctx_;
  Query base_;
  size_t words_ = 0;                           // ceil(|V| / 64)
  std::vector<uint8_t> in_component_;          // Q's output component
  std::vector<std::vector<NodeId>> sim_;       // S_Q(u), ascending
  std::vector<std::vector<uint64_t>> member_;  // S_Q(u) as bitmaps
  // fwd, bwd per edge of Q (empty off its output component).
  std::vector<std::vector<uint32_t>> counts_;

  // Per-call scratch, kept for its capacity.
  std::vector<uint8_t> in_q_;                  // q's output component
  std::vector<Slot> slots_;
  std::vector<Counted> counted_;
  std::vector<std::vector<Incident>> incident_;
  std::vector<std::vector<uint64_t>> fresh_bits_;
  std::vector<std::vector<uint32_t>> fresh_counts_;
  std::vector<std::pair<QNodeId, NodeId>> queue_;
  std::vector<std::pair<QNodeId, NodeId>> dropped_;  // from Q's sets
  std::vector<uint32_t*> decremented_;               // Q's counts
};

/// Sim(u_o): the output node's set under the maximum dual simulation.
std::vector<NodeId> SimulationAnswers(MatchContext& ctx, const Query& q);

/// One-off Sim(u_o) over a fresh context on `g`.
std::vector<NodeId> SimulationAnswers(const Graph& g, const Query& q);

}  // namespace whyq

#endif  // WHYQ_MATCHER_SIMULATION_H_
