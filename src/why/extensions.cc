#include "why/extensions.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
#include <optional>

#include "matcher/match_context.h"
#include "matcher/match_engine.h"
#include "matcher/path_index.h"
#include "rewrite/cost_model.h"
#include "why/mbs.h"
#include "why/picky.h"

namespace whyq {

namespace {

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

// The budgeted ratio greedy both extensions run over their screened pool.
// Each round scores every in-pool operator that is affordable and
// conflicts with no selected one by the gain in `objective` of adding it,
// per unit of cost, and selects the first best ratio above kEps; `current`
// is the objective of the selection so far, Q's at the start. Stops when
// `done` accepts the selection's rewrite and objective, when no operator
// gains, or when the token expires. Returns whether `done` accepted;
// `selected` holds the selection either way.
bool RatioGreedy(const Query& q, const std::vector<EditOp>& usable,
                 const std::vector<double>& costs, const AnswerConfig& cfg,
                 double current,
                 const std::function<double(const Query&)>& objective,
                 const std::function<bool(const Query&, double)>& done,
                 OperatorSet* selected) {
  double spent = 0.0;
  std::vector<uint8_t> in_pool(usable.size(), 1);
  size_t pool = usable.size();
  while (pool > 0 && !CancelRequested(cfg.cancel)) {
    long best = -1;
    double best_ratio = 0.0;
    double best_value = current;
    for (size_t i = 0; i < usable.size(); ++i) {
      if (!in_pool[i] || spent + costs[i] > cfg.budget + kEps) continue;
      bool conflicting = false;
      for (const EditOp& sel : *selected) {
        conflicting |= OpsConflict(sel, usable[i]);
      }
      if (conflicting) continue;
      OperatorSet trial = *selected;
      trial.push_back(usable[i]);
      double value = objective(ApplyOperators(q, trial));
      double ratio = (value - current) / costs[i];
      if (ratio > best_ratio + kEps) {
        best_ratio = ratio;
        best = static_cast<long>(i);
        best_value = value;
      }
    }
    if (best < 0) break;
    size_t b = static_cast<size_t>(best);
    in_pool[b] = 0;
    --pool;
    selected->push_back(usable[b]);
    spent += costs[b];
    current = best_value;
    if (done(ApplyOperators(q, *selected), current)) return true;
  }
  return false;
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
  std::vector<EditOp> usable;
  std::vector<double> costs;
  BudgetScreen(GenPickyWhyNot(g, q, proxy, cfg), cost, cfg.budget, &usable,
               &costs);

  // Greedy relaxation steered by path-test pass fractions over the proxy
  // sample: each step picks the operator that moves some candidate closest
  // to a full match, per unit cost, until the answer becomes non-empty.
  std::optional<PathIndex> own_pidx;
  const PathIndex& pidx = SearchPathIndex(q, cfg, &own_pidx);
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
  if (!RatioGreedy(
          q, usable, costs, cfg, score(q), score,
          [&](const Query& rewritten, double) {
            return matcher->HasAnyMatch(rewritten);
          },
          &selected)) {
    return out;
  }
  // Drop unnecessary operators, cheapest kept: restart from the first
  // operator after every drop, until a full pass drops none.
  for (size_t j = 0; selected.size() > 1 && j < selected.size() &&
                     !CancelRequested(cfg.cancel);) {
    OperatorSet trial = selected;
    trial.erase(trial.begin() + static_cast<long>(j));
    if (matcher->HasAnyMatch(ApplyOperators(q, trial))) {
      selected = std::move(trial);
      j = 0;
    } else {
      ++j;
    }
  }
  out.found = true;
  out.ops = selected;
  out.rewritten = ApplyOperators(q, selected);
  out.cost = cost.Cost(selected);
  harvest(out.rewritten);
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
  const PathIndex& pidx = SearchPathIndex(q, cfg, &own_pidx);

  // Every answer is "unexpected", so the desired side is empty: only RfL of
  // Q's literals and structural AddE come back, never AddL or literal AddE.
  std::vector<EditOp> usable;
  std::vector<double> costs;
  BudgetScreen(GenPickyWhy(g, q, answers, answers, cfg), cost, cfg.budget,
               &usable, &costs);

  // Greedy: maximize estimated removals per unit cost (path screening).
  // "Why so many" wants fewer answers, not none: a rewrite that empties
  // the (estimated) answer scores -infinity, so it never gains.
  auto minus_survivors = [&](const Query& rewritten) {
    size_t kept = 0;
    PathIndex::Probe probe(pidx, ctx, rewritten);
    for (NodeId v : answers) {
      if (probe.Passes(v)) ++kept;
    }
    return kept == 0 ? -std::numeric_limits<double>::infinity()
                     : -static_cast<double>(kept);
  };
  OperatorSet selected;
  RatioGreedy(
      q, usable, costs, cfg, -static_cast<double>(answers.size()),
      minus_survivors,
      [&](const Query&, double value) {
        return -value <= static_cast<double>(target_k);
      },
      &selected);
  if (selected.empty()) return out;
  Query rewritten = ApplyOperators(q, selected);
  size_t after = matcher->MatchOutput(rewritten).size();
  // A count cut short by the deadline undercounts: answer with Q instead.
  if (CancelRequested(cfg.cancel)) return out;
  out.ops = std::move(selected);
  out.rewritten = std::move(rewritten);
  out.cost = cost.Cost(out.ops);
  out.after = after;
  out.found = after <= target_k;
  return out;
}

}  // namespace whyq
