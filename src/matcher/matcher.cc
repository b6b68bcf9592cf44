#include "matcher/matcher.h"

#include <algorithm>

#include "common/check.h"

namespace whyq {

namespace {

// Branch-free SWAR popcount. __builtin_popcountll lowers to a libgcc
// *call* (__popcountdi2) unless the build targets -mpopcnt, and the call
// overhead dominates the word loop below on the profiles; this inlines
// everywhere.
inline uint64_t PopCount64(uint64_t w) {
  w -= (w >> 1) & 0x5555555555555555ull;
  w = (w & 0x3333333333333333ull) + ((w >> 2) & 0x3333333333333333ull);
  w = (w + (w >> 4)) & 0x0F0F0F0F0F0F0F0Full;
  return (w * 0x0101010101010101ull) >> 56;
}

}  // namespace

Matcher::Matcher(const Graph& g)
    : owned_ctx_(std::make_unique<MatchContext>(g)),
      ctx_(*owned_ctx_),
      g_(g) {}

Matcher::Matcher(MatchContext& ctx) : ctx_(ctx), g_(ctx.graph()) {}

std::vector<Matcher::PlanStep> Matcher::BuildPlan(const Query& q,
                                                  QNodeId root) const {
  // BFS over the undirected structure from the root. Each non-root step is
  // anchored at the tree edge used to discover it; all other edges between
  // the step's node and earlier nodes become backward checks.
  std::vector<PlanStep> plan;
  std::vector<size_t> pos_of(q.node_count(), SIZE_MAX);

  PlanStep root_step;
  root_step.u = root;
  plan.push_back(root_step);
  pos_of[root] = 0;

  for (size_t head = 0; head < plan.size(); ++head) {
    QNodeId u = plan[head].u;
    for (const QueryEdge& e : q.edges()) {
      QNodeId other = kInvalidQNode;
      bool forward = true;  // anchor(u) -> other
      if (e.src == u && pos_of[e.dst] == SIZE_MAX) {
        other = e.dst;
        forward = true;
      } else if (e.dst == u && pos_of[e.src] == SIZE_MAX) {
        other = e.src;
        forward = false;
      } else {
        continue;
      }
      PlanStep step;
      step.u = other;
      step.anchor_pos = head;
      step.anchor_label = e.label;
      step.anchor_forward = forward;
      pos_of[other] = plan.size();
      plan.push_back(std::move(step));
    }
  }

  // Self loops on the root are verified as root checks (the attach loop
  // below only visits steps 1..n-1).
  for (const QueryEdge& e : q.edges()) {
    if (e.src == root && e.dst == root) {
      plan[0].checks.push_back(PlanStep::Check{0, e.label, true});
    }
  }

  // Attach backward checks: every query edge other than the anchor edges,
  // both endpoints already placed. The anchor edge of step i is recorded by
  // (anchor_pos, label, direction); avoid re-checking exactly one instance
  // of it.
  for (size_t i = 1; i < plan.size(); ++i) {
    PlanStep& step = plan[i];
    bool anchor_consumed = false;
    for (const QueryEdge& e : q.edges()) {
      size_t ps = pos_of[e.src];
      size_t pd = pos_of[e.dst];
      if (ps == SIZE_MAX || pd == SIZE_MAX) continue;  // outside component
      if (ps != i && pd != i) continue;                // not incident to u_i
      if (ps == i && pd == i) {
        // Self loop on u_i: check u_i -> u_i.
        step.checks.push_back(PlanStep::Check{i, e.label, true});
        continue;
      }
      size_t other = (ps == i) ? pd : ps;
      if (other > i) continue;  // handled when the later node is placed
      bool forward = (ps == i);  // u_i -> other?
      // Skip one instance of the anchor edge.
      if (!anchor_consumed && other == step.anchor_pos &&
          e.label == step.anchor_label) {
        bool is_anchor_shape =
            step.anchor_forward ? (pd == i && ps == step.anchor_pos)
                                : (ps == i && pd == step.anchor_pos);
        if (is_anchor_shape) {
          anchor_consumed = true;
          continue;
        }
      }
      step.checks.push_back(PlanStep::Check{other, e.label, forward});
    }
  }
  // Resolve each step's memoized candidate set once per plan; the
  // recursive search then probes its bitmap. Lookup addresses are stable.
  for (PlanStep& step : plan) {
    step.cand = &ctx_.Lookup(q.node(step.u));
  }
  return plan;
}

NodeSpan Matcher::RootCandidates(const Query& q,
                                 const std::vector<PlanStep>& plan) const {
  NodeSpan bucket = g_.NodesWithLabel(q.node(plan[0].u).label);
  // The memoized candidate list: the label bucket in ascending order minus
  // the nodes failing a literal (accounted as pruned).
  const MatchContext::CandidateSet& cand = *plan[0].cand;
  // The BFS places the root's children first. A root needs an anchor-label
  // neighbour in each child's set, so it must lie in each child's support.
  size_t children = 1;
  while (children < plan.size() && plan[children].anchor_pos == 0) {
    ++children;
  }
  if (children == 1 || cand.size() == 0) {
    ctx_.CountPruned(bucket.size() - cand.size());
    return cand.list();
  }
  const size_t lo = cand.nodes[0] >> 6;
  root_words_.assign(cand.bits + lo,
                     cand.bits + (cand.nodes[cand.size() - 1] >> 6) + 1);
  for (size_t i = 1; i < children; ++i) {
    const uint64_t* support = ctx_.Support(
        *plan[i].cand, plan[i].anchor_label, plan[i].anchor_forward);
    for (size_t w = 0; w < root_words_.size(); ++w) {
      root_words_[w] &= support[lo + w];
    }
  }
  roots_.clear();
  for (size_t w = 0; w < root_words_.size(); ++w) {
    for (uint64_t word = root_words_[w]; word != 0; word &= word - 1) {
      roots_.push_back(
          static_cast<NodeId>((lo + w) * 64 + __builtin_ctzll(word)));
    }
  }
  ctx_.CountPruned(bucket.size() - roots_.size());
  return NodeSpan{roots_.data(), roots_.size()};
}

bool Matcher::Extend(const std::vector<PlanStep>& plan, size_t pos,
                     std::vector<NodeId>& assignment) const {
  if (pos == plan.size()) return true;
  const PlanStep& step = plan[pos];

  // v has passed the candidate bitmap; checks injectivity and the backward
  // edges, then recurses.
  auto try_node = [&](NodeId v) -> bool {
    ++stats_.embeddings_tried;
    if (CancelledNow()) return false;  // unwind; caller reports truncation
    // Injectivity.
    for (size_t i = 0; i < pos; ++i) {
      if (assignment[i] == v) return false;
    }
    // Backward edges.
    for (const PlanStep::Check& c : step.checks) {
      NodeId w = (c.other_pos == pos) ? v : assignment[c.other_pos];
      bool ok = c.forward ? g_.HasEdge(v, w, c.label)
                          : g_.HasEdge(w, v, c.label);
      if (!ok) return false;
    }
    assignment[pos] = v;
    if (Extend(plan, pos + 1, assignment)) return true;
    assignment[pos] = kInvalidNode;
    return false;
  };

  WHYQ_CHECK(step.anchor_pos != SIZE_MAX);  // root is handled by SearchFrom
  NodeId anchor = assignment[step.anchor_pos];
  // Exactly the anchor-label slice of the adjacency — same neighbors, same
  // ascending order a full scan filtered on the label would visit.
  NodeSpan span = step.anchor_forward
                      ? g_.LabeledOutNeighbors(anchor, step.anchor_label)
                      : g_.LabeledInNeighbors(anchor, step.anchor_label);
  const MatchContext::CandidateSet& cand = *step.cand;
  // Word-parallel AND over the candidate bitmap: the slice is sorted, so
  // consecutive neighbors sharing a 64-bit block collapse into one
  // presence mask, one bitmap load, and one AND — instead of a load and
  // branch per neighbor. A lone neighbor in its block (the common shape
  // for sparse adjacency) takes a plain single-bit probe with no mask
  // bookkeeping. Survivors are enumerated ascending via
  // count-trailing-zeros, and the rejected bits (mask ANDNOT bitmap) are
  // accounted in bulk: only rejects preceding a successful extension are
  // counted.
  uint64_t pruned = 0;
  const NodeId* it = span.begin();
  const NodeId* last = span.end();
  while (it != last) {
    NodeId v0 = *it;
    uint64_t w = uint64_t{v0} >> 6;
    uint64_t bit = uint64_t{1} << (v0 & 63);
    uint64_t word = cand.Word(w);
    ++it;
    if (it == last || (*it >> 6) != w) {
      if ((word & bit) == 0) {
        ++pruned;
      } else if (try_node(v0)) {
        ctx_.CountPruned(pruned);
        return true;
      }
      continue;
    }
    uint64_t mask = bit;
    do {
      mask |= uint64_t{1} << (*it & 63);
      ++it;
    } while (it != last && (*it >> 6) == w);
    uint64_t hits = mask & word;
    uint64_t rejects = mask ^ hits;
    while (hits != 0) {
      int b = __builtin_ctzll(hits);
      hits &= hits - 1;
      NodeId v = static_cast<NodeId>((w << 6) | static_cast<uint64_t>(b));
      if (try_node(v)) {
        uint64_t below = (uint64_t{1} << b) - 1;
        pruned += PopCount64(rejects & below);
        ctx_.CountPruned(pruned);
        return true;
      }
    }
    pruned += PopCount64(rejects);
  }
  ctx_.CountPruned(pruned);
  return false;
}

bool Matcher::SearchFrom(const std::vector<PlanStep>& plan, NodeId v) const {
  ++stats_.iso_tests;
  const PlanStep& root = plan[0];
  if (!root.cand->Test(v)) return false;
  for (const PlanStep::Check& c : root.checks) {
    // Only self-loop checks can appear on the root.
    NodeId w = v;
    bool ok = c.forward ? g_.HasEdge(v, w, c.label)
                        : g_.HasEdge(w, v, c.label);
    if (!ok) return false;
  }
  if (assignment_.size() != plan.size() || assignment_dirty_) {
    assignment_.assign(plan.size(), kInvalidNode);
    assignment_dirty_ = false;
  }
  assignment_[0] = v;
  if (Extend(plan, 1, assignment_)) {
    assignment_dirty_ = true;  // the found embedding stays in the slots
    return true;
  }
  assignment_[0] = kInvalidNode;  // Extend restored every later slot
  return false;
}

std::vector<NodeId> Matcher::MatchOutput(const Query& q) const {
  std::vector<NodeId> answers;
  std::vector<PlanStep> plan = BuildPlan(q, q.output());
  for (NodeId v : RootCandidates(q, plan)) {
    if (cancel_ != nullptr && (cancel_hit_ || cancel_->Expired())) {
      cancel_hit_ = true;
      break;  // best-so-far answer prefix
    }
    if (SearchFrom(plan, v)) answers.push_back(v);
  }
  return answers;
}

bool Matcher::IsAnswer(const Query& q, NodeId v) const {
  std::vector<PlanStep> plan = BuildPlan(q, q.output());
  return SearchFrom(plan, v);
}

std::vector<uint8_t> Matcher::TestAnswers(
    const Query& q, const std::vector<NodeId>& nodes) const {
  std::vector<PlanStep> plan = BuildPlan(q, q.output());
  std::vector<uint8_t> out(nodes.size(), 0);
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (cancel_ != nullptr && (cancel_hit_ || cancel_->Expired())) {
      cancel_hit_ = true;
      break;  // remaining nodes stay 0; the evaluators discard the batch
    }
    out[i] = SearchFrom(plan, nodes[i]) ? 1 : 0;
  }
  return out;
}

bool Matcher::HasAnyMatch(const Query& q) const {
  std::vector<PlanStep> plan = BuildPlan(q, q.output());
  for (NodeId v : RootCandidates(q, plan)) {
    if (cancel_ != nullptr && (cancel_hit_ || cancel_->Expired())) {
      cancel_hit_ = true;
      return false;  // unknown; caller sees truncation via cancelled()
    }
    if (SearchFrom(plan, v)) return true;
  }
  return false;
}

size_t Matcher::CountAnswersNotIn(const Query& q, const NodeSet& exclude,
                                  size_t limit) const {
  std::vector<PlanStep> plan = BuildPlan(q, q.output());
  size_t count = 0;
  for (NodeId v : RootCandidates(q, plan)) {
    if (cancel_ != nullptr && (cancel_hit_ || cancel_->Expired())) {
      cancel_hit_ = true;
      break;  // an undercount: the evaluators read it as a failed guard
    }
    if (exclude.Contains(v)) continue;
    if (SearchFrom(plan, v)) {
      ++count;
      if (count > limit) return count;
    }
  }
  return count;
}

std::vector<std::vector<NodeId>> Matcher::MatchAllOutputs(
    const Query& q) const {
  std::vector<std::vector<NodeId>> out;
  out.reserve(q.outputs().size());
  for (QNodeId u : q.outputs()) {
    std::vector<PlanStep> plan = BuildPlan(q, u);
    std::vector<NodeId> answers;
    for (NodeId v : RootCandidates(q, plan)) {
      if (cancel_ != nullptr && (cancel_hit_ || cancel_->Expired())) {
        cancel_hit_ = true;
        break;  // truncate this output; later outputs break immediately
      }
      if (SearchFrom(plan, v)) answers.push_back(v);
    }
    out.push_back(std::move(answers));
  }
  return out;
}

MatcherStats Matcher::stats() const {
  MatcherStats s = stats_;
  s.AddCtx(ctx_.stats());  // stats_ itself never counts ctx_*
  s.ctx_arena_bytes = ctx_.arena().bytes_allocated();
  return s;
}

}  // namespace whyq
