#include "why/extensions.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <set>

#include "matcher/match_context.h"
#include "matcher/match_engine.h"
#include "matcher/path_index.h"
#include "rewrite/cost_model.h"
#include "why/mbs.h"
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

  // Every answer is "unexpected": generate the full refinement picky set.
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

namespace {

// The setup both multi-output algorithms share: Q projected onto each
// output, an exact evaluator (in the caller's semantics) per projection,
// and the usable picky union.
struct MultiOutput {
  MultiOutput(const Graph& g, const Query& q,
              const std::vector<std::vector<NodeId>>& answers_per_output,
              const std::vector<std::vector<NodeId>>& unexpected_per_output,
              const AnswerConfig& config)
      : cfg(config) {
    std::vector<CostModel> cost_models;
    for (size_t i = 0; i < q.outputs().size(); ++i) {
      Query qi = q;
      qi.SetOutput(q.outputs()[i]);
      projections.push_back(qi);
      WhyQuestion wi{unexpected_per_output[i]};
      evals.emplace_back(g, answers_per_output[i], wi, cfg.guard_m,
                         cfg.semantics, cfg.cancel);
      cost_models.emplace_back(qi, g, cfg.weighted_cost);
      total_unexpected += evals.back().unexpected().size();
    }
    if (total_unexpected == 0) return;
    // Every multi-output rewrite refines each projection (WhyKind::WarmStart).
    for (size_t i = 0; i < evals.size(); ++i) {
      evals[i].AssumeRefinementsOf(projections[i]);
    }
    // An operator costs what it costs w.r.t. its *nearest* output (the max
    // of the per-output costs, since centrality grows as distance shrinks).
    for (size_t i = 0; i < projections.size(); ++i) {
      for (EditOp& op : GenPickyWhy(g, projections[i], answers_per_output[i],
                                    evals[i].unexpected(), cfg)) {
        if (std::find(usable.begin(), usable.end(), op) != usable.end()) {
          continue;
        }
        double c = 0.0;
        for (const CostModel& m : cost_models) c = std::max(c, m.Cost(op));
        if (c <= cfg.budget + kEps) {
          usable.push_back(std::move(op));
          costs.push_back(c);
        }
      }
    }
  }

  // Calls visit(output, v, unexpected) for every original answer v of an
  // output that Q ⊕ ops no longer matches. A cancelled request stops after
  // the outputs verified so far.
  template <typename Visit>
  void ForEachAffected(const OperatorSet& ops, Visit visit) const {
    for (size_t i = 0; i < evals.size() && !CancelRequested(cfg.cancel);
         ++i) {
      Query rewritten = ApplyOperators(projections[i], ops);
      const std::vector<NodeId> affected = evals[i].AffectedAnswers(rewritten);
      for (NodeId v : affected) visit(i, v, evals[i].IsUnexpected(v));
    }
  }

  // The pooled exact evaluation of Q ⊕ ops: excluded unexpected entities
  // over all outputs / total unexpected, with the collateral exclusions
  // pooled the same way as the guard. One that ends with the token expired
  // may have been cut short and reports a failed guard (guard m + 1), as
  // the single-output evaluators do.
  EvalResult Evaluate(const OperatorSet& ops) const {
    size_t excluded = 0;
    size_t guard = 0;
    ForEachAffected(ops, [&](size_t, NodeId, bool unexpected) {
      if (unexpected) {
        ++excluded;
      } else {
        ++guard;
      }
    });
    EvalResult r;
    r.closeness = static_cast<double>(excluded) /
                  static_cast<double>(total_unexpected);
    r.guard = guard;
    r.guard_ok = guard <= cfg.guard_m;
    if (CancelRequested(cfg.cancel)) {
      r.guard = cfg.guard_m + 1;
      r.guard_ok = false;
    }
    return r;
  }

  // Q's own evaluation. Past the deadline it is known without matching:
  // every answer stays an answer (closeness 0, guard 0).
  EvalResult EvaluateQ() const {
    EvalResult r = Evaluate({});
    return CancelRequested(cfg.cancel) ? EvalResult{} : r;
  }

  const AnswerConfig& cfg;
  std::vector<Query> projections;
  std::vector<WhyEvaluator> evals;
  size_t total_unexpected = 0;
  // The deduplicated union of the per-output picky sets within budget, in
  // generation order, and their costs.
  std::vector<EditOp> usable;
  std::vector<double> costs;
};

}  // namespace

RewriteAnswer ExactWhyMultiOutput(
    const Graph& g, const Query& q,
    const std::vector<std::vector<NodeId>>& answers_per_output,
    const std::vector<std::vector<NodeId>>& unexpected_per_output,
    const AnswerConfig& cfg) {
  RewriteAnswer out;
  out.rewritten = q;
  MultiOutput mo(g, q, answers_per_output, unexpected_per_output, cfg);
  if (mo.total_unexpected == 0) return out;
  out.picky_count = mo.usable.size();

  double best_cl = -1.0;
  double best_cost = std::numeric_limits<double>::infinity();
  OperatorSet best_ops;
  EvalResult best_eval;
  AdmitFn admit = [&](const std::vector<size_t>& cur, size_t next) {
    OperatorSet ops;
    for (size_t i : cur) ops.push_back(mo.usable[i]);
    ops.push_back(mo.usable[next]);
    EvalResult r = mo.Evaluate(ops);
    return r.guard_ok ? std::optional<size_t>(r.guard) : std::nullopt;
  };
  MbsStats stats = EnumerateMaximalBoundedSetsBatched(
      mo.costs, BuildConflicts(mo.usable), cfg.budget, cfg.max_mbs,
      /*batch_size=*/1,
      [&](const std::vector<std::vector<size_t>>& batch,
          const std::vector<std::optional<size_t>>&) {
        const std::vector<size_t>& idx = batch.front();
        if (CancelRequested(cfg.cancel)) return false;  // abort enumeration
        ++out.sets_verified;
        OperatorSet ops;
        double c = 0.0;
        for (size_t i : idx) {
          ops.push_back(mo.usable[i]);
          c += mo.costs[i];
        }
        EvalResult r = mo.Evaluate(ops);
        if (!r.guard_ok) return true;
        if (r.closeness > best_cl + kEps ||
            (r.closeness > best_cl - kEps && c < best_cost)) {
          best_cl = r.closeness;
          best_cost = c;
          best_ops = std::move(ops);
          best_eval = r;
        }
        return best_cl < 1.0 - kEps;
      },
      admit);
  out.exhaustive = !stats.truncated && !CancelRequested(cfg.cancel);
  if (best_cl <= 0.0 || best_ops.empty()) {
    out.eval = mo.EvaluateQ();
    return out;
  }
  out.found = true;
  out.ops = std::move(best_ops);
  out.rewritten = ApplyOperators(q, out.ops);
  out.eval = best_eval;
  out.cost = best_cost;
  out.estimated_closeness = best_eval.closeness;
  return out;
}

RewriteAnswer ApproxWhyMultiOutput(
    const Graph& g, const Query& q,
    const std::vector<std::vector<NodeId>>& answers_per_output,
    const std::vector<std::vector<NodeId>>& unexpected_per_output,
    const AnswerConfig& cfg) {
  RewriteAnswer out;
  out.exhaustive = true;
  out.rewritten = q;
  MultiOutput mo(g, q, answers_per_output, unexpected_per_output, cfg);
  if (mo.total_unexpected == 0) return out;

  // Per-operator pooled effect sets, verified exactly once per output.
  struct Effect {
    // (output index, node) pairs excluded by the single operator.
    std::vector<std::pair<size_t, NodeId>> excluded;
    size_t guard = 0;
  };
  std::vector<Effect> effects;
  for (const EditOp& op : mo.usable) {
    // Each operator costs one exact verification per output; stop (and
    // select from what exists) once the deadline expires.
    if (CancelRequested(cfg.cancel)) {
      out.exhaustive = false;
      break;
    }
    Effect& e = effects.emplace_back();
    mo.ForEachAffected({op}, [&](size_t i, NodeId v, bool unexpected) {
      if (unexpected) {
        e.excluded.emplace_back(i, v);
      } else {
        ++e.guard;
      }
    });
    // A verification cut short is not kept.
    if (CancelRequested(cfg.cancel)) {
      effects.pop_back();
      out.exhaustive = false;
      break;
    }
  }
  mo.usable.resize(effects.size());
  out.picky_count = mo.usable.size();
  std::vector<std::vector<size_t>> conflicts = BuildConflicts(mo.usable);

  // Budgeted max-coverage greedy over the pooled exclusion sets.
  std::set<std::pair<size_t, NodeId>> covered;
  std::vector<size_t> selected;
  std::vector<uint8_t> in_pool(mo.usable.size(), 1);
  size_t pool = mo.usable.size();
  double spent = 0.0;
  size_t guard_used = 0;
  while (pool > 0) {
    ++out.sets_verified;
    long best = -1;
    double best_ratio = 0.0;
    for (size_t i = 0; i < mo.usable.size(); ++i) {
      if (!in_pool[i]) continue;
      if (spent + mo.costs[i] > cfg.budget + kEps) continue;
      if (guard_used + effects[i].guard > cfg.guard_m) continue;
      size_t gain = 0;
      for (const auto& key : effects[i].excluded) {
        gain += covered.count(key) ? 0 : 1;
      }
      double ratio = static_cast<double>(gain) / mo.costs[i];
      if (gain > 0 && ratio > best_ratio + kEps) {
        best_ratio = ratio;
        best = static_cast<long>(i);
      }
    }
    if (best < 0) break;
    size_t b = static_cast<size_t>(best);
    in_pool[b] = 0;
    --pool;
    for (size_t j : conflicts[b]) {
      if (in_pool[j]) {
        in_pool[j] = 0;
        --pool;
      }
    }
    selected.push_back(b);
    spent += mo.costs[b];
    guard_used += effects[b].guard;
    for (const auto& key : effects[b].excluded) covered.insert(key);
  }

  if (selected.empty()) return out;
  for (size_t j : selected) out.ops.push_back(mo.usable[j]);
  out.rewritten = ApplyOperators(q, out.ops);
  out.cost = spent;
  // Exact pooled evaluation for reporting. When it was cut short, answer
  // with Q and Q's known evaluation instead.
  out.eval = mo.Evaluate(out.ops);
  if (CancelRequested(cfg.cancel)) {
    out.exhaustive = false;
    out.ops.clear();
    out.rewritten = q;
    out.cost = 0.0;
    out.eval = mo.EvaluateQ();
    return out;
  }
  out.estimated_closeness =
      static_cast<double>(covered.size()) /
      static_cast<double>(mo.total_unexpected);
  out.found = out.eval.guard_ok && out.eval.closeness > 0.0;
  return out;
}

}  // namespace whyq
