#ifndef WHYQ_MATCHER_SIMULATION_H_
#define WHYQ_MATCHER_SIMULATION_H_

#include <optional>
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

/// An upper bound on the maximum dual simulation, indexed by query node:
/// a sorted node set that contains S(u), or nullopt where u is unbounded.
/// Nodes past its end are unbounded, so an empty bound bounds nothing.
using SimulationBound = std::vector<std::optional<std::vector<NodeId>>>;

/// The maximum dual-simulation relation: one (sorted) node set per query
/// node; nodes outside the output component get empty sets. With a bound,
/// each S(u) starts from cand(u) ∩ bound(u) instead of cand(u); the result
/// is the same whenever the bound holds.
std::vector<std::vector<NodeId>> DualSimulation(
    MatchContext& ctx, const Query& q, const SimulationBound& bound = {});

/// The bound the maximum dual simulation of `base` places on every
/// refinement of it: a query that keeps base's node ids, whose nodes'
/// candidate sets are subsets of base's, and whose edges are a superset
/// (RfL, AddL and AddE, with or without a new node). Restricted to base's
/// output component, the relation of such a refinement is a dual simulation
/// of base, so it lies inside base's maximum one (the incremental-matching
/// argument of Fan, Wang and Wu, TODS 2013). Nodes outside that component,
/// and nodes the refinement adds, are unbounded. A relaxation (RxL, RmL,
/// RmE) grows the relation, so the bound does not hold for it.
SimulationBound RefinementBound(MatchContext& ctx, const Query& base);

/// Sim(u_o): the output node's set under the maximum dual simulation.
std::vector<NodeId> SimulationAnswers(MatchContext& ctx, const Query& q,
                                      const SimulationBound& bound = {});

/// One-off Sim(u_o) over a fresh context on `g`.
std::vector<NodeId> SimulationAnswers(const Graph& g, const Query& q);

}  // namespace whyq

#endif  // WHYQ_MATCHER_SIMULATION_H_
