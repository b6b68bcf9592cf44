#include "why/extensions.h"

#include <algorithm>
#include <memory>
#include <optional>

#include "matcher/match_context.h"
#include "matcher/match_engine.h"
#include "matcher/path_index.h"
#include "rewrite/cost_model.h"
#include "why/picky.h"

namespace whyq {

namespace {

constexpr double kEps = 1e-9;

// Sample up to `cap` nodes carrying the output node's label — the stand-in
// for V_C when a Why-empty question names no concrete missing entities.
std::vector<NodeId> LabelSample(const Graph& g, const Query& q, size_t cap) {
  NodeSpan all = g.NodesWithLabel(q.node(q.output()).label);
  std::vector<NodeId> out;
  size_t stride = std::max<size_t>(1, all.size() / std::max<size_t>(cap, 1));
  for (size_t i = 0; i < all.size() && out.size() < cap; i += stride) {
    out.push_back(all[i]);
  }
  return out;
}

}  // namespace

WhyEmptyResult AnswerWhyEmpty(const Graph& g, const Query& q,
                              const AnswerConfig& cfg) {
  WhyEmptyResult out;
  out.rewritten = q;
  MatchContext ctx(g);
  std::unique_ptr<MatchEngine> matcher = MakeMatchEngine(ctx, cfg.semantics);
  matcher->SetCancelToken(cfg.cancel);
  auto harvest = [&](const Query& rewritten) {
    std::vector<NodeId> all = matcher->MatchOutput(rewritten);
    if (all.size() > 10) all.resize(10);
    out.sample_answers = std::move(all);
  };
  if (matcher->HasAnyMatch(q)) {
    out.found = true;
    harvest(q);
    return out;
  }
  std::vector<NodeId> proxy = LabelSample(g, q, 64);
  if (proxy.empty()) return out;  // no node carries the label: hopeless

  CostModel cost(q, g, cfg.weighted_cost);
  std::vector<EditOp> picky = GenPickyWhyNot(g, q, proxy, cfg);
  std::vector<double> costs;
  std::vector<EditOp> usable;
  for (EditOp& op : picky) {
    double c = cost.Cost(op);
    if (c <= cfg.budget + kEps) {
      usable.push_back(std::move(op));
      costs.push_back(c);
    }
  }

  // Greedy relaxation steered by path-test pass fractions over the proxy
  // sample: each step picks the operator that moves some candidate closest
  // to a full match, per unit cost, until the answer becomes non-empty.
  std::optional<PathIndex> own_pidx;
  if (cfg.path_index == nullptr) own_pidx.emplace(q, cfg.path_index_paths);
  const PathIndex& pidx = cfg.path_index ? *cfg.path_index : *own_pidx;
  auto score = [&](const Query& rewritten) {
    double best = 0.0;
    double sum = 0.0;
    PathIndex::Probe probe(pidx, ctx, rewritten);
    for (NodeId v : proxy) {
      double fr = probe.PassFraction(v);
      best = std::max(best, fr);
      sum += fr;
    }
    // The max dominates (one full match suffices); the mean breaks ties.
    return best + 0.01 * sum / static_cast<double>(proxy.size());
  };
  OperatorSet selected;
  double spent = 0.0;
  double current_score = score(q);
  std::vector<uint8_t> in_pool(usable.size(), 1);
  size_t pool = usable.size();
  while (pool > 0 && !CancelRequested(cfg.cancel)) {
    long best = -1;
    double best_ratio = 0.0;
    for (size_t i = 0; i < usable.size(); ++i) {
      if (!in_pool[i]) continue;
      if (spent + costs[i] > cfg.budget + kEps) continue;
      bool conflicting = false;
      for (const EditOp& sel : selected) {
        conflicting |= OpsConflict(sel, usable[i]);
      }
      if (conflicting) continue;
      OperatorSet trial = selected;
      trial.push_back(usable[i]);
      double gain = score(ApplyOperators(q, trial)) - current_score;
      double ratio = gain / costs[i];
      if (ratio > best_ratio + kEps) {
        best_ratio = ratio;
        best = static_cast<long>(i);
      }
    }
    if (best < 0) break;
    size_t i = static_cast<size_t>(best);
    in_pool[i] = 0;
    --pool;
    selected.push_back(usable[i]);
    spent += costs[i];
    Query rewritten = ApplyOperators(q, selected);
    current_score = score(rewritten);
    if (matcher->HasAnyMatch(rewritten)) {
      // Drop unnecessary operators, cheapest kept.
      bool changed = true;
      while (changed && selected.size() > 1) {
        changed = false;
        for (size_t j = 0; j < selected.size(); ++j) {
          OperatorSet trial = selected;
          trial.erase(trial.begin() + static_cast<long>(j));
          Query tq = ApplyOperators(q, trial);
          if (matcher->HasAnyMatch(tq)) {
            selected = std::move(trial);
            changed = true;
            break;
          }
        }
      }
      out.found = true;
      out.ops = selected;
      out.rewritten = ApplyOperators(q, selected);
      out.cost = cost.Cost(selected);
      harvest(out.rewritten);
      return out;
    }
  }
  return out;
}

WhySoManyResult AnswerWhySoMany(const Graph& g, const Query& q,
                                const std::vector<NodeId>& answers,
                                size_t target_k, const AnswerConfig& cfg) {
  WhySoManyResult out;
  out.rewritten = q;
  out.before = answers.size();
  out.after = answers.size();
  if (answers.size() <= target_k) {
    out.found = true;
    return out;
  }
  MatchContext ctx(g);
  std::unique_ptr<MatchEngine> matcher = MakeMatchEngine(ctx, cfg.semantics);
  matcher->SetCancelToken(cfg.cancel);
  CostModel cost(q, g, cfg.weighted_cost);
  std::optional<PathIndex> own_pidx;
  if (cfg.path_index == nullptr) own_pidx.emplace(q, cfg.path_index_paths);
  const PathIndex& pidx = cfg.path_index ? *cfg.path_index : *own_pidx;

  // Every answer is "unexpected", so the desired side is empty: only RfL of
  // Q's literals and structural AddE come back, never AddL or literal AddE.
  std::vector<EditOp> picky = GenPickyWhy(g, q, answers, answers, cfg);
  struct Cand {
    EditOp op;
    double cost;
  };
  std::vector<Cand> cands;
  for (EditOp& op : picky) {
    double c = cost.Cost(op);
    if (c <= cfg.budget + kEps) cands.push_back(Cand{std::move(op), c});
  }

  // Greedy: maximize estimated removals per unit cost (path screening).
  auto survivors = [&](const Query& rewritten) {
    size_t kept = 0;
    PathIndex::Probe probe(pidx, ctx, rewritten);
    for (NodeId v : answers) {
      if (probe.Passes(v)) ++kept;
    }
    return kept;
  };
  OperatorSet selected;
  double spent = 0.0;
  size_t current = answers.size();
  std::vector<uint8_t> in_pool(cands.size(), 1);
  size_t pool = cands.size();
  while (pool > 0 && current > target_k && !CancelRequested(cfg.cancel)) {
    long best = -1;
    double best_ratio = 0.0;
    size_t best_kept = current;
    for (size_t i = 0; i < cands.size(); ++i) {
      if (!in_pool[i]) continue;
      if (spent + cands[i].cost > cfg.budget + kEps) continue;
      bool conflicting = false;
      for (const EditOp& sel : selected) {
        conflicting |= OpsConflict(sel, cands[i].op);
      }
      if (conflicting) continue;
      OperatorSet trial = selected;
      trial.push_back(cands[i].op);
      size_t kept = survivors(ApplyOperators(q, trial));
      // "Why so many" wants fewer answers, not none: an operator that
      // empties the (estimated) answer is never a useful explanation.
      if (kept == 0) continue;
      double gain = static_cast<double>(current - kept);
      double ratio = gain / cands[i].cost;
      if (kept < current && ratio > best_ratio + kEps) {
        best_ratio = ratio;
        best = static_cast<long>(i);
        best_kept = kept;
      }
    }
    if (best < 0) break;
    size_t b = static_cast<size_t>(best);
    in_pool[b] = 0;
    --pool;
    selected.push_back(cands[b].op);
    spent += cands[b].cost;
    current = best_kept;
  }
  if (selected.empty()) return out;
  out.ops = selected;
  out.rewritten = ApplyOperators(q, selected);
  out.cost = cost.Cost(selected);
  out.after = matcher->MatchOutput(out.rewritten).size();
  out.found = out.after <= target_k;
  return out;
}

}  // namespace whyq
