#include "matcher/simulation.h"

#include <algorithm>
#include <cstdint>

#include "matcher/match_context.h"

namespace whyq {

namespace {

// Membership bitmap over g's node space (word w covers ids [64w, 64w+63]).
using Bitmap = std::vector<uint64_t>;

bool Test(const Bitmap& b, NodeId v) {
  return (b[v >> 6] >> (v & 63)) & uint64_t{1};
}

}  // namespace

std::vector<std::vector<NodeId>> DualSimulation(
    MatchContext& ctx, const Query& q, const SimulationBound& bound) {
  const Graph& g = ctx.graph();
  std::vector<std::vector<NodeId>> lists(q.node_count());
  std::vector<QNodeId> component = q.OutputComponent();
  if (component.empty()) return lists;
  std::vector<uint8_t> in_component(q.node_count(), 0);
  for (QNodeId u : component) in_component[u] = 1;

  // Initialize with the memoized candidate sets (ascending member list +
  // bitmap), cut down to the bound where there is one.
  const size_t words = (g.node_count() + 63) / 64;
  std::vector<Bitmap> member(q.node_count());
  for (QNodeId u : component) {
    const MatchContext::CandidateSet& c = ctx.Lookup(q.node(u));
    if (u < bound.size() && bound[u].has_value()) {
      member[u].assign(words, 0);
      for (NodeId v : *bound[u]) {
        if (!c.Test(v)) continue;
        lists[u].push_back(v);
        member[u][v >> 6] |= uint64_t{1} << (v & 63);
      }
    } else {
      lists[u].assign(c.begin(), c.end());
      member[u].assign(c.bits, c.bits + words);
    }
  }

  // Fixpoint pruning: drop v from S(u) when some incident query edge has
  // no witness neighbor among v's neighbors via that edge label. Each sweep
  // walks the compact member lists only, keeping them ascending; queries
  // are tiny, so sweeping to stability is cheap in practice.
  bool changed = true;
  while (changed) {
    changed = false;
    for (const QueryEdge& e : q.edges()) {
      if (!in_component[e.src] || !in_component[e.dst]) continue;
      // Forward: every v in S(src) needs an out-neighbor in S(dst).
      auto prune = [&](QNodeId u, bool forward, QNodeId other_u) {
        std::vector<NodeId>& list = lists[u];
        size_t keep = 0;
        for (NodeId v : list) {
          NodeSpan nbrs = forward ? g.LabeledOutNeighbors(v, e.label)
                                  : g.LabeledInNeighbors(v, e.label);
          if (std::any_of(nbrs.begin(), nbrs.end(), [&](NodeId w) {
                return Test(member[other_u], w);
              })) {
            list[keep++] = v;
          } else {
            member[u][v >> 6] &= ~(uint64_t{1} << (v & 63));
            changed = true;
          }
        }
        list.resize(keep);
      };
      prune(e.src, /*forward=*/true, e.dst);
      prune(e.dst, /*forward=*/false, e.src);
    }
  }
  return lists;
}

SimulationBound RefinementBound(MatchContext& ctx, const Query& base) {
  std::vector<std::vector<NodeId>> relation = DualSimulation(ctx, base);
  SimulationBound bound(base.node_count());
  for (QNodeId u : base.OutputComponent()) bound[u] = std::move(relation[u]);
  return bound;
}

std::vector<NodeId> SimulationAnswers(MatchContext& ctx, const Query& q,
                                      const SimulationBound& bound) {
  return DualSimulation(ctx, q, bound)[q.output()];
}

std::vector<NodeId> SimulationAnswers(const Graph& g, const Query& q) {
  MatchContext ctx(g);
  return SimulationAnswers(ctx, q);
}

}  // namespace whyq
