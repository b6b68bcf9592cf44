#include "gen/question_gen.h"

#include <algorithm>

#include "graph/neighborhood.h"
#include "matcher/matcher.h"
#include "matcher/path_index.h"

namespace whyq {

WhyQuestion GenerateWhyQuestion(const GeneratedQuery& gq, size_t k,
                                Rng& rng) {
  WhyQuestion w;
  const std::vector<NodeId>& answers = gq.answers;
  if (answers.empty()) return w;
  size_t take = std::min(k, answers.size() > 1 ? answers.size() - 1
                                               : answers.size());
  for (size_t i : rng.SampleDistinct(answers.size(), take)) {
    w.unexpected.push_back(answers[i]);
  }
  return w;
}

bool GrowWhyQuestion(const GeneratedQuery& gq, WhyQuestion* w, Rng& rng) {
  NodeSet chosen(w->unexpected, 0);
  std::vector<NodeId> remaining;
  for (NodeId v : gq.answers) {
    if (!chosen.Contains(v)) remaining.push_back(v);
  }
  if (remaining.empty()) return false;
  w->unexpected.push_back(remaining[rng.Index(remaining.size())]);
  return true;
}

namespace {

// Condition C: numeric lower bounds anchored at one chosen entity's own
// values, so that entity satisfies the whole conjunction and C never
// empties V_C.
void AttachCondition(const Graph& g, size_t constraint_literals, Rng& rng,
                     WhyNotQuestion* w) {
  if (constraint_literals == 0 || w->missing.empty()) return;
  size_t start_node = rng.Index(w->missing.size());
  for (size_t n = 0; n < w->missing.size(); ++n) {
    NodeId anchor = w->missing[(start_node + n) % w->missing.size()];
    const auto& attrs = g.attrs(anchor);
    size_t added = 0;
    size_t start = attrs.empty() ? 0 : rng.Index(attrs.size());
    for (size_t off = 0; off < attrs.size() && added < constraint_literals;
         ++off) {
      const AttrEntry& a = attrs[(start + off) % attrs.size()];
      if (!a.value.is_numeric()) continue;
      bool dup = false;
      for (const ConstraintLiteral& l : w->condition.literals) {
        dup |= l.attr == a.attr;
      }
      if (dup) continue;
      ConstraintLiteral cl;
      cl.binary = false;
      cl.attr = a.attr;
      cl.op = CompareOp::kGe;
      cl.constant = a.value;
      w->condition.literals.push_back(std::move(cl));
      ++added;
    }
    if (added > 0) break;  // all literals anchored at this entity
  }
}

}  // namespace

std::optional<WhyNotQuestion> GenerateWhyNotQuestion(
    const Graph& g, const GeneratedQuery& gq, size_t k,
    size_t constraint_literals, Rng& rng) {
  const Query& q = gq.query;
  NodeSet answer_set(gq.answers, g.node_count());

  // Preferred construction: entities that are one-or-two constraints away —
  // answers of Q with a random literal (or literal pair) dropped. This is
  // the situation Why-not questions model (the paper's S8/S9 miss Q only on
  // price / color), and it guarantees the question is answerable by a
  // bounded relaxation. Among candidate literals, prefer the one whose
  // removal floods in the fewest new entities, so guard conditions remain
  // satisfiable. One context serves these matches and both path probes
  // below.
  MatchContext ctx(g);
  {
    std::vector<std::pair<QNodeId, Literal>> literals;
    for (QNodeId u : q.OutputComponent()) {
      for (const Literal& l : q.node(u).literals) literals.emplace_back(u, l);
    }
    Matcher matcher(ctx);
    std::vector<NodeId> best_pool;
    if (!literals.empty()) {
      // Scan every literal (queries are tiny) and keep the one whose
      // removal floods in the fewest entities — minimal floods keep the
      // guard condition satisfiable for the answering algorithms.
      size_t tries = std::min<size_t>(literals.size(), 8);
      std::vector<size_t> picks =
          rng.SampleDistinct(literals.size(), tries);
      for (size_t pi : picks) {
        Query relaxed = q;
        relaxed.RemoveLiteral(literals[pi].first, literals[pi].second);
        std::vector<NodeId> fresh;
        for (NodeId v : matcher.MatchOutput(relaxed)) {
          if (!answer_set.Contains(v)) fresh.push_back(v);
        }
        if (fresh.empty()) continue;
        if (best_pool.empty() || fresh.size() < best_pool.size()) {
          best_pool = std::move(fresh);
        }
        if (best_pool.size() <= k) break;  // minimal flood, good enough
      }
    }
    if (!best_pool.empty()) {
      WhyNotQuestion w;
      for (size_t i :
           rng.SampleDistinct(best_pool.size(),
                              std::min(k, best_pool.size()))) {
        w.missing.push_back(best_pool[i]);
      }
      AttachCondition(g, constraint_literals, rng, &w);
      return w;
    }
  }

  // Structural near-misses: strip all literals, keep the topology.
  Query structural = q;
  for (QNodeId u = 0; u < structural.node_count(); ++u) {
    structural.mutable_node(u).literals.clear();
  }
  PathIndex pidx(structural, 8);
  PathIndex::Probe structural_probe(pidx, ctx, structural);

  constexpr size_t kPoolCap = 200;
  std::vector<NodeId> pool;
  NodeSpan same_label = g.NodesWithLabel(q.node(q.output()).label);
  for (NodeId v : same_label) {
    if (answer_set.Contains(v)) continue;
    if (structural_probe.Passes(v)) {
      pool.push_back(v);
      if (pool.size() >= kPoolCap) break;
    }
  }
  if (pool.empty()) {
    // Fallback: arbitrary same-label non-answers.
    for (NodeId v : same_label) {
      if (answer_set.Contains(v)) continue;
      pool.push_back(v);
      if (pool.size() >= kPoolCap) break;
    }
  }
  if (pool.empty()) return std::nullopt;

  // Rank the pool by how close each entity already is to matching Q (pass
  // fraction under the full query): a Why-not question about entities that
  // miss by one or two constraints is the realistic case — a user notices
  // *near* hits are absent — and keeps the needed relaxations affordable.
  PathIndex full(q, 8);
  PathIndex::Probe full_probe(full, ctx, q);
  std::vector<std::pair<double, NodeId>> ranked;
  ranked.reserve(pool.size());
  for (NodeId v : pool) {
    ranked.emplace_back(-full_probe.PassFraction(v), v);
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) { return a < b; });
  size_t head = std::min(ranked.size(), std::max<size_t>(k * 3, k));
  WhyNotQuestion w;
  for (size_t i : rng.SampleDistinct(head, std::min(k, head))) {
    w.missing.push_back(ranked[i].second);
  }

  AttachCondition(g, constraint_literals, rng, &w);
  return w;
}

}  // namespace whyq
