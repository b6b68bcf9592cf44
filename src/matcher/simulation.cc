#include "matcher/simulation.h"

#include <algorithm>
#include <cstdint>

#include "matcher/match_context.h"

namespace whyq {

namespace {

// Membership bitmap over g's node space (word w covers ids [64w, 64w+63]).
using Bitmap = std::vector<uint64_t>;

bool Test(const uint64_t* b, NodeId v) {
  return (b[v >> 6] >> (v & 63)) & uint64_t{1};
}

void Set(uint64_t* b, NodeId v) { b[v >> 6] |= uint64_t{1} << (v & 63); }

void Clear(uint64_t* b, NodeId v) { b[v >> 6] &= ~(uint64_t{1} << (v & 63)); }

NodeSpan Neighbors(const Graph& g, NodeId v, SymbolId label, bool out) {
  return out ? g.LabeledOutNeighbors(v, label) : g.LabeledInNeighbors(v, label);
}

// counts[i] = the `label` neighbours of list[i] (out-neighbours when `out`)
// inside `other`.
void CountWitnesses(const Graph& g, NodeSpan list, SymbolId label, bool out,
                    const uint64_t* other, uint32_t* counts) {
  for (size_t i = 0; i < list.size(); ++i) {
    uint32_t c = 0;
    for (NodeId w : Neighbors(g, list[i], label, out)) c += Test(other, w);
    counts[i] = c;
  }
}

// Position of member v in the ascending list.
size_t PositionOf(NodeSpan list, NodeId v) {
  return static_cast<size_t>(std::lower_bound(list.begin(), list.end(), v) -
                             list.begin());
}

}  // namespace

std::vector<std::vector<NodeId>> DualSimulation(MatchContext& ctx,
                                                const Query& q) {
  const Graph& g = ctx.graph();
  std::vector<std::vector<NodeId>> lists(q.node_count());
  std::vector<QNodeId> component = q.OutputComponent();
  if (component.empty()) return lists;
  std::vector<uint8_t> in_component(q.node_count(), 0);
  for (QNodeId u : component) in_component[u] = 1;

  // Initialize with the memoized candidate sets (ascending member list +
  // bitmap).
  const size_t words = (g.node_count() + 63) / 64;
  std::vector<Bitmap> member(q.node_count());
  for (QNodeId u : component) {
    const MatchContext::CandidateSet& c = ctx.Lookup(q.node(u));
    lists[u].assign(c.begin(), c.end());
    member[u].assign(c.bits, c.bits + words);
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
          NodeSpan nbrs = Neighbors(g, v, e.label, forward);
          if (std::any_of(nbrs.begin(), nbrs.end(), [&](NodeId w) {
                return Test(member[other_u].data(), w);
              })) {
            list[keep++] = v;
          } else {
            Clear(member[u].data(), v);
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

RefinementSimulation::RefinementSimulation(MatchContext& ctx,
                                           const Query& base)
    : ctx_(ctx),
      base_(base),
      words_((ctx.graph().node_count() + 63) / 64),
      in_component_(base.node_count(), 0),
      sim_(DualSimulation(ctx, base)),
      member_(base.node_count()) {
  const Graph& g = ctx_.graph();
  for (QNodeId u : base_.OutputComponent()) {
    in_component_[u] = 1;
    member_[u].assign(words_, 0);
    for (NodeId v : sim_[u]) Set(member_[u].data(), v);
  }
  counts_.resize(2 * base_.edge_count());
  for (size_t i = 0; i < base_.edge_count(); ++i) {
    const QueryEdge& e = base_.edges()[i];
    if (!in_component_[e.src]) continue;
    counts_[2 * i].resize(sim_[e.src].size());
    CountWitnesses(g, {sim_[e.src].data(), sim_[e.src].size()}, e.label,
                   /*out=*/true, member_[e.dst].data(), counts_[2 * i].data());
    counts_[2 * i + 1].resize(sim_[e.dst].size());
    CountWitnesses(g, {sim_[e.dst].data(), sim_[e.dst].size()}, e.label,
                   /*out=*/false, member_[e.src].data(),
                   counts_[2 * i + 1].data());
  }
}

void RefinementSimulation::Drop(QNodeId u, NodeId v) {
  Slot& s = slots_[u];
  if (!Test(s.member, v)) return;
  Clear(s.member, v);
  if (s.base) dropped_.emplace_back(u, v);
  queue_.emplace_back(u, v);
}

bool RefinementSimulation::Propagate(const Query& q) {
  const Graph& g = ctx_.graph();
  const size_t n = q.node_count();
  const std::vector<QueryEdge>& edges = q.edges();
  if (q.output() != base_.output() || n < base_.node_count() ||
      edges.size() < base_.edge_count() ||
      !std::equal(base_.edges().begin(), base_.edges().end(),
                  edges.begin())) {
    return false;
  }

  // q's output component: Q's, grown by closing over q's edges (queries
  // are tiny).
  in_q_.assign(in_component_.begin(), in_component_.end());
  in_q_.resize(n, 0);
  for (bool grew = true; grew;) {
    grew = false;
    for (const QueryEdge& e : edges) {
      if (in_q_[e.src] != in_q_[e.dst]) {
        in_q_[e.src] = in_q_[e.dst] = 1;
        grew = true;
      }
    }
  }

  // The component edges of q. Those of Q's component inherit its counts.
  counted_.clear();
  for (size_t i = 0; i < edges.size(); ++i) {
    const QueryEdge& e = edges[i];
    if (!in_q_[e.src]) continue;
    Counted& c = counted_.emplace_back();
    c.edge = e;
    if (i < base_.edge_count() && in_component_[e.src]) {
      c.fwd = counts_[2 * i].data();
      c.bwd = counts_[2 * i + 1].data();
      c.inherited = true;
    }
  }

  // Starting sets: S_Q on Q's component, the candidates elsewhere.
  slots_.assign(n, Slot{});
  fresh_bits_.resize(n);
  for (QNodeId u = 0; u < n; ++u) {
    if (!in_q_[u]) continue;
    Slot& s = slots_[u];
    if (u < base_.node_count() && in_component_[u]) {
      s.nodes = sim_[u].data();
      s.count = sim_[u].size();
      s.member = member_[u].data();
      s.base = true;
    } else {
      const MatchContext::CandidateSet& c = ctx_.Lookup(q.node(u));
      fresh_bits_[u].assign(c.bits, c.bits + words_);
      s.nodes = c.nodes;
      s.count = c.count;
      s.member = fresh_bits_[u].data();
    }
  }

  // Fresh counts for the edges Q's component lacks, against the starting
  // sets, before anything is dropped.
  if (fresh_counts_.size() < 2 * counted_.size()) {
    fresh_counts_.resize(2 * counted_.size());
  }
  for (size_t i = 0; i < counted_.size(); ++i) {
    Counted& c = counted_[i];
    if (c.inherited) continue;
    const Slot& src = slots_[c.edge.src];
    const Slot& dst = slots_[c.edge.dst];
    fresh_counts_[2 * i].resize(src.count);
    fresh_counts_[2 * i + 1].resize(dst.count);
    c.fwd = fresh_counts_[2 * i].data();
    c.bwd = fresh_counts_[2 * i + 1].data();
    CountWitnesses(g, src.list(), c.edge.label, /*out=*/true, dst.member,
                   c.fwd);
    CountWitnesses(g, dst.list(), c.edge.label, /*out=*/false, src.member,
                   c.bwd);
  }

  incident_.resize(n);
  for (QNodeId u = 0; u < n; ++u) incident_[u].clear();
  for (size_t i = 0; i < counted_.size(); ++i) {
    const QueryEdge& e = counted_[i].edge;
    incident_[e.src].push_back({static_cast<uint32_t>(i), true});
    incident_[e.dst].push_back({static_cast<uint32_t>(i), false});
  }

  // The first drops: members of Q's sets that fail a changed constraint,
  // and members with no witness over a fresh edge.
  for (QNodeId u = 0; u < n; ++u) {
    const Slot& s = slots_[u];
    if (!s.base) continue;
    const QueryNode& qn = q.node(u);
    const QueryNode& bn = base_.node(u);
    if (qn.label == bn.label && qn.literals == bn.literals) continue;
    const MatchContext::CandidateSet& c = ctx_.Lookup(qn);
    for (NodeId v : s.list()) {
      if (!c.Test(v)) Drop(u, v);
    }
  }
  for (const Counted& c : counted_) {
    if (c.inherited) continue;
    const Slot& src = slots_[c.edge.src];
    const Slot& dst = slots_[c.edge.dst];
    for (size_t i = 0; i < src.count; ++i) {
      if (c.fwd[i] == 0) Drop(c.edge.src, src.nodes[i]);
    }
    for (size_t i = 0; i < dst.count; ++i) {
      if (c.bwd[i] == 0) Drop(c.edge.dst, dst.nodes[i]);
    }
  }

  // Each drop takes one witness from its labelled neighbours in the other
  // end's set; a neighbour left with none is dropped in turn.
  for (size_t head = 0; head < queue_.size(); ++head) {
    const auto [u, v] = queue_[head];
    for (const Incident& in : incident_[u]) {
      const Counted& c = counted_[in.edge];
      const QNodeId other = in.out ? c.edge.dst : c.edge.src;
      uint32_t* counts = in.out ? c.bwd : c.fwd;
      const Slot& s = slots_[other];
      for (NodeId w : Neighbors(g, v, c.edge.label, in.out)) {
        if (!Test(s.member, w)) continue;
        uint32_t& count = counts[PositionOf(s.list(), w)];
        if (c.inherited) decremented_.push_back(&count);
        if (--count == 0) Drop(other, w);
      }
    }
  }
  return true;
}

void RefinementSimulation::Restore() {
  for (uint32_t* count : decremented_) ++*count;
  for (const auto& [u, v] : dropped_) Set(member_[u].data(), v);
  decremented_.clear();
  dropped_.clear();
  queue_.clear();
}

std::vector<NodeId> RefinementSimulation::Members(QNodeId u) const {
  const Slot& s = slots_[u];
  std::vector<NodeId> out;
  for (NodeId v : s.list()) {
    if (Test(s.member, v)) out.push_back(v);
  }
  return out;
}

std::optional<std::vector<std::vector<NodeId>>> RefinementSimulation::Relation(
    const Query& q) {
  if (!Propagate(q)) return std::nullopt;
  std::vector<std::vector<NodeId>> out(q.node_count());
  for (QNodeId u = 0; u < q.node_count(); ++u) out[u] = Members(u);
  Restore();
  return out;
}

std::optional<std::vector<NodeId>> RefinementSimulation::Answers(
    const Query& q) {
  if (!Propagate(q)) return std::nullopt;
  std::vector<NodeId> out = Members(q.output());
  Restore();
  return out;
}

std::vector<NodeId> SimulationAnswers(MatchContext& ctx, const Query& q) {
  return DualSimulation(ctx, q)[q.output()];
}

std::vector<NodeId> SimulationAnswers(const Graph& g, const Query& q) {
  MatchContext ctx(g);
  return SimulationAnswers(ctx, q);
}

}  // namespace whyq
