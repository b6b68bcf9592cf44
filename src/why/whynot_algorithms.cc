#include "why/whynot_algorithms.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>

#include "common/thread_pool.h"
#include "common/timer.h"
#include "matcher/path_index.h"
#include "rewrite/cost_model.h"
#include "rewrite/evaluation.h"
#include "why/est_match.h"
#include "why/exact_search.h"
#include "why/mbs.h"
#include "why/picky.h"

namespace whyq {

namespace {

constexpr double kEps = 1e-9;

// Polls `cancel` per dropped-operator trial (each trial is a full exact
// evaluation); an expiring deadline keeps the current valid rewrite.
void MinimizeCostWhyNot(const Query& q, const WhyNotEvaluator& eval,
                        const CostModel& cost, const CancelToken* cancel,
                        OperatorSet& ops, EvalResult& result,
                        Query& rewritten) {
  bool changed = true;
  while (changed && ops.size() > 1 && !CancelRequested(cancel)) {
    changed = false;
    std::vector<size_t> order(ops.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return cost.Cost(ops[a]) > cost.Cost(ops[b]);
    });
    for (size_t i : order) {
      if (CancelRequested(cancel)) return;
      OperatorSet trial = ops;
      trial.erase(trial.begin() + static_cast<long>(i));
      Query trial_q = ApplyOperators(q, trial);
      EvalResult trial_eval = eval.Evaluate(trial_q);
      if (trial_eval.guard_ok &&
          trial_eval.closeness >= result.closeness - kEps) {
        ops = std::move(trial);
        rewritten = std::move(trial_q);
        result = trial_eval;
        changed = true;
        break;
      }
    }
  }
}

}  // namespace

RewriteAnswer ExactWhyNot(const Graph& g, const Query& q,
                          const std::vector<NodeId>& answers,
                          const WhyNotQuestion& w, const AnswerConfig& cfg) {
  RewriteAnswer out;
  out.rewritten = q;
  WhyNotEvaluator eval(g, answers, w, cfg.guard_m, cfg.semantics,
                       cfg.cancel);
  CostModel cost(q, g, cfg.weighted_cost);

  std::vector<EditOp> picky = GenPickyWhyNot(g, q, eval.missing(), cfg);
  std::vector<EditOp> usable;
  std::vector<double> costs;
  for (EditOp& op : picky) {
    double c = cost.Cost(op);
    if (c <= cfg.budget + kEps) {
      usable.push_back(std::move(op));
      costs.push_back(c);
    }
  }
  out.picky_count = usable.size();

  // Guard-admissible MBS search shared with ExactWhy; possibly parallel,
  // bit-identical to serial either way (see why/exact_search.h).
  internal::ExactSearchOutcome search =
      internal::ExactMbsSearch<WhyNotEvaluator>(
          q, usable, costs, cost, cfg, eval, [&] {
            return std::make_unique<WhyNotEvaluator>(
                g, answers, w, cfg.guard_m, cfg.semantics, cfg.cancel);
          });
  double best_cl = search.best_cl;
  double best_cost = search.best_cost;
  OperatorSet best_ops = std::move(search.best_ops);
  EvalResult best_eval = search.best_eval;
  out.sets_enumerated = search.stats.emitted;
  out.sets_verified = search.verified;
  out.guard_checks = search.guard_checks;
  out.exhaustive = !search.stats.truncated && !search.timed_out;
  out.ctx = search.ctx;  // slot evaluators' share

  // Fallback under truncation (see ExactWhy): never worse than the fast
  // heuristic. Skipped once the request itself is cancelled/past deadline.
  if (!out.exhaustive && !CancelRequested(cfg.cancel)) {
    RewriteAnswer seed = FastWhyNot(g, q, answers, w, cfg);
    out.ctx.Add(seed.ctx);  // the seeding work happened regardless
    if (seed.found && seed.eval.guard_ok &&
        seed.cost <= cfg.budget + kEps &&
        (seed.eval.closeness > best_cl + kEps ||
         (seed.eval.closeness > best_cl - kEps && seed.cost < best_cost))) {
      best_cl = seed.eval.closeness;
      best_cost = seed.cost;
      best_ops = std::move(seed.ops);
      best_eval = seed.eval;
    }
  }

  if (best_cl < 0.0 || best_ops.empty()) {
    out.eval = eval.Evaluate(q);
    out.ctx.Add(eval.ContextStats());
    return out;
  }
  out.found = best_eval.closeness > 0.0;
  out.ops = std::move(best_ops);
  out.rewritten = ApplyOperators(q, out.ops);
  out.eval = best_eval;
  if (cfg.minimize_cost && !CancelRequested(cfg.cancel)) {
    MinimizeCostWhyNot(q, eval, cost, cfg.cancel, out.ops, out.eval,
                       out.rewritten);
  }
  out.cost = cost.Cost(out.ops);
  out.estimated_closeness = out.eval.closeness;
  out.ctx.Add(eval.ContextStats());
  return out;
}

namespace {

// Shared greedy skeleton for FastWhyNot / IsoWhyNot.
RewriteAnswer GreedyWhyNot(const Graph& g, const Query& q,
                           const std::vector<NodeId>& answers,
                           const WhyNotQuestion& w, const AnswerConfig& cfg,
                           bool exact) {
  RewriteAnswer out;
  out.exhaustive = true;  // greedy: nothing to truncate (unless cancelled)
  out.rewritten = q;
  WhyNotEvaluator eval(g, answers, w, cfg.guard_m, cfg.semantics,
                       cfg.cancel);
  CostModel cost(q, g, cfg.weighted_cost);
  std::optional<PathIndex> own_pidx;
  if (cfg.path_index == nullptr) own_pidx.emplace(q, cfg.path_index_paths);
  const PathIndex& pidx = cfg.path_index ? *cfg.path_index : *own_pidx;

  const NodeSet& protected_set = eval.protected_set();

  // Intra-question parallelism: evaluators own a stateful MatchEngine, so
  // each concurrent executor slot gets its own clone (slot 0 reuses `eval`).
  const size_t width = ResolveParallelWidth(cfg.threads);
  std::vector<std::unique_ptr<WhyNotEvaluator>> slot_evals;  // 1..width-1
  for (size_t s = 1; s < width; ++s) {
    slot_evals.push_back(std::make_unique<WhyNotEvaluator>(
        g, answers, w, cfg.guard_m, cfg.semantics, cfg.cancel));
  }
  auto eval_at = [&](size_t slot) -> const WhyNotEvaluator& {
    return slot == 0 ? eval : *slot_evals[slot - 1];
  };
  // Sum the candidate-memo counters across every evaluator this question
  // touched; called once per exit path.
  auto finish_ctx = [&] {
    out.ctx = eval.ContextStats();
    for (const auto& se : slot_evals) out.ctx.Add(se->ContextStats());
  };

  std::vector<EditOp> picky = GenPickyWhyNot(g, q, eval.missing(), cfg);
  struct Cand {
    EditOp op;
    double cost = 0.0;
    std::vector<NodeId> covered;  // estimated (or exact) new matches in V_C
  };
  // Budget screen (cheap, serial) fixes the candidate indexing; the
  // per-candidate coverage probes — exact NewMatches or PathIndex tests —
  // then run on the pool, one evaluator per executor slot.
  std::vector<Cand> cands;
  for (EditOp& op : picky) {
    double c = cost.Cost(op);
    if (c > cfg.budget + kEps) continue;
    Cand cand;
    cand.op = std::move(op);
    cand.cost = c;
    cands.push_back(std::move(cand));
  }
  std::vector<uint8_t> prepped(cands.size(), 0);
  ThreadPool::Shared().ParallelFor(
      cands.size(), width, [&](size_t i, size_t slot) {
        if (CancelRequested(cfg.cancel)) return;  // prefix-kept below
        const WhyNotEvaluator& ev = eval_at(slot);
        Cand& cand = cands[i];
        Query single = ApplyOperators(q, {cand.op});
        if (exact) {
          cand.covered = ev.NewMatches(single);
        } else {
          PathIndex::Probe probe(pidx, g, single, ev.context());
          for (NodeId v : ev.missing()) {
            if (probe.Passes(v)) cand.covered.push_back(v);
          }
        }
        prepped[i] = 1;
      });
  // Cancellation mid-prep: keep the longest fully-scored prefix — exactly
  // the candidates a serial run would have kept before breaking out.
  size_t scored_prefix = 0;
  while (scored_prefix < cands.size() && prepped[scored_prefix]) {
    ++scored_prefix;
  }
  if (scored_prefix < cands.size()) {
    out.exhaustive = false;
    cands.resize(scored_prefix);
  }
  out.picky_count = cands.size();

  // Conflict adjacency: operators editing the same literal/edge cannot
  // be co-selected.
  std::vector<EditOp> cand_ops;
  cand_ops.reserve(cands.size());
  for (const auto& c : cands) cand_ops.push_back(c.op);
  std::vector<std::vector<size_t>> conflicts = BuildConflicts(cand_ops);

  // `probe` is bound to the rewrite being scored, with the scoring slot's
  // context; the soft score below reuses it.
  auto estimate = [&](const NodeSet& covered_union, PathIndex::Probe& probe,
                      size_t slot) -> CloseEstimate {
    if (exact) {
      (void)covered_union;
      EvalResult r = eval_at(slot).Evaluate(probe.query());
      CloseEstimate e;
      e.closeness = r.closeness;
      e.guard = r.guard;
      e.guard_ok = r.guard_ok;
      return e;
    }
    return EstimateWhyNot(probe, covered_union, eval.missing(),
                          protected_set, cfg.guard_m, cfg.est_guard_scan);
  };

  // Soft (partial-credit) score: how far along each missing entity is
  // toward matching. Single relaxations frequently have zero hard marginal
  // gain (an entity needs several constraints lifted at once); the soft
  // score lets the greedy bootstrap such combinations (see DESIGN.md).
  auto soft_score = [&](const NodeSet& covered_union,
                        PathIndex::Probe& probe) {
    double s = 0.0;
    for (NodeId v : eval.missing()) {
      s += covered_union.Contains(v) ? 1.0 : probe.PassFraction(v);
    }
    return eval.missing().empty()
               ? 0.0
               : s / static_cast<double>(eval.missing().size());
  };

  std::vector<size_t> selected;
  NodeSet covered(std::vector<NodeId>{}, g.node_count());
  double spent = 0.0;
  double current_cl = 0.0;
  PathIndex::Probe base_probe(pidx, g, q, eval.context());
  double current_soft = soft_score(covered, base_probe);
  std::vector<uint8_t> in_pool(cands.size(), 1);
  size_t pool = cands.size();

  while (pool > 0 && current_cl < 1.0 - kEps) {
    if (CancelRequested(cfg.cancel)) {
      out.exhaustive = false;
      break;  // keep the greedy prefix selected so far
    }
    ++out.sets_verified;
    // Score every pool candidate (parallel across executor slots), then
    // pick the winner serially in ascending candidate order — the same
    // argmax and tie-break (ratio must beat the incumbent by kEps) as the
    // serial scan, so parallel rounds select identical operators.
    std::vector<size_t> pool_idx;
    pool_idx.reserve(pool);
    for (size_t i = 0; i < cands.size(); ++i) {
      if (in_pool[i]) pool_idx.push_back(i);
    }
    struct Score {
      double ratio = -1.0;
      double gain = 0.0;
      double soft_gain = 0.0;
    };
    std::vector<Score> scores(pool_idx.size());
    ThreadPool::Shared().ParallelFor(
        pool_idx.size(), width, [&](size_t k, size_t slot) {
          size_t i = pool_idx[k];
          NodeSet cov = covered;
          for (NodeId v : cands[i].covered) cov.Insert(v);
          OperatorSet trial_ops;
          for (size_t j : selected) trial_ops.push_back(cands[j].op);
          trial_ops.push_back(cands[i].op);
          Query rw = ApplyOperators(q, trial_ops);
          PathIndex::Probe probe(pidx, g, rw, eval_at(slot).context());
          CloseEstimate est = estimate(cov, probe, slot);
          Score& s = scores[k];
          s.gain = est.closeness - current_cl;
          // Hard gains dominate; soft gains break zero-gain ties.
          s.soft_gain = soft_score(cov, probe) - current_soft;
          s.ratio = (s.gain + 1e-3 * s.soft_gain) / cands[i].cost;
        });
    long best = -1;
    double best_ratio = -1.0;
    double best_gain = 0.0;
    double best_soft_gain = 0.0;
    for (size_t k = 0; k < pool_idx.size(); ++k) {
      if (scores[k].ratio > best_ratio + kEps) {
        best_ratio = scores[k].ratio;
        best = static_cast<long>(pool_idx[k]);
        best_gain = scores[k].gain;
        best_soft_gain = scores[k].soft_gain;
      }
    }
    if (best < 0) break;
    size_t b = static_cast<size_t>(best);
    in_pool[b] = 0;
    --pool;
    if (best_gain <= kEps && best_soft_gain <= kEps) continue;
    if (spent + cands[b].cost > cfg.budget + kEps) continue;
    NodeSet cov = covered;
    for (NodeId v : cands[b].covered) cov.Insert(v);
    OperatorSet trial_ops;
    for (size_t j : selected) trial_ops.push_back(cands[j].op);
    trial_ops.push_back(cands[b].op);
    Query rw = ApplyOperators(q, trial_ops);
    PathIndex::Probe probe(pidx, g, rw, eval.context());
    CloseEstimate est = estimate(cov, probe, 0);
    if (!est.guard_ok) continue;
    for (size_t j : conflicts[b]) {
      if (in_pool[j]) {
        in_pool[j] = 0;
        --pool;
      }
    }
    selected.push_back(b);
    covered = std::move(cov);
    spent += cands[b].cost;
    current_cl = est.closeness;
    current_soft = soft_score(covered, probe);
  }

  if (selected.empty()) {
    out.eval = eval.Evaluate(q);
    finish_ctx();
    return out;
  }
  // Drop operators that no longer contribute to the (estimated) closeness —
  // bootstrap steps that never paid off.
  bool changed = true;
  while (changed && selected.size() > 1 && !CancelRequested(cfg.cancel)) {
    changed = false;
    for (size_t i = 0; i < selected.size(); ++i) {
      if (CancelRequested(cfg.cancel)) break;
      std::vector<size_t> trial = selected;
      trial.erase(trial.begin() + static_cast<long>(i));
      NodeSet cov(std::vector<NodeId>{}, g.node_count());
      OperatorSet trial_ops;
      for (size_t j : trial) {
        trial_ops.push_back(cands[j].op);
        for (NodeId v : cands[j].covered) cov.Insert(v);
      }
      Query rw = ApplyOperators(q, trial_ops);
      PathIndex::Probe probe(pidx, g, rw, eval.context());
      CloseEstimate est = estimate(cov, probe, 0);
      if (est.guard_ok && est.closeness >= current_cl - kEps) {
        selected = std::move(trial);
        current_cl = est.closeness;
        changed = true;
        break;
      }
    }
  }
  OperatorSet ops;
  for (size_t j : selected) ops.push_back(cands[j].op);
  out.ops = std::move(ops);
  out.rewritten = ApplyOperators(q, out.ops);
  out.cost = cost.Cost(out.ops);
  out.eval = eval.Evaluate(out.rewritten);
  out.estimated_closeness = current_cl;
  out.found = out.eval.guard_ok && out.eval.closeness > 0.0;
  finish_ctx();
  return out;
}

}  // namespace

RewriteAnswer FastWhyNot(const Graph& g, const Query& q,
                         const std::vector<NodeId>& answers,
                         const WhyNotQuestion& w, const AnswerConfig& cfg) {
  return GreedyWhyNot(g, q, answers, w, cfg, /*exact=*/false);
}

RewriteAnswer IsoWhyNot(const Graph& g, const Query& q,
                        const std::vector<NodeId>& answers,
                        const WhyNotQuestion& w, const AnswerConfig& cfg) {
  return GreedyWhyNot(g, q, answers, w, cfg, /*exact=*/true);
}

}  // namespace whyq
