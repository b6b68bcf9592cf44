#include "why/why_algorithms.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>

#include "common/table.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "matcher/path_index.h"
#include "rewrite/cost_model.h"
#include "why/est_match.h"
#include "why/exact_search.h"
#include "why/mbs.h"
#include "why/picky.h"

namespace whyq {

namespace {

constexpr double kEps = 1e-9;

// Shared exact post-processing: greedily drop operators while the exact
// closeness does not decrease and the guard stays valid ("minimal MBS").
// Every dropped-operator trial is a full exact evaluation, so the loop
// polls `cancel` per trial: an expiring deadline keeps the current
// (valid, just not yet minimal) rewrite.
template <typename Evaluator>
void MinimizeCost(const Graph&, const Query& q, const Evaluator& eval,
                  const CostModel& cost, const CancelToken* cancel,
                  OperatorSet& ops, EvalResult& result, Query& rewritten) {
  bool changed = true;
  while (changed && ops.size() > 1 && !CancelRequested(cancel)) {
    changed = false;
    // Try dropping the most expensive operator first.
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

std::string RewriteAnswer::Explain(const Graph& g) const {
  std::ostringstream os;
  if (!found) {
    os << "no valid rewrite within budget";
    return os.str();
  }
  os << "closeness " << TextTable::Num(eval.closeness, 3) << " at cost "
     << TextTable::Num(cost, 2) << " via { " << DescribeOperators(ops, g)
     << " }";
  return os.str();
}

void AddAnswerWork(const RewriteAnswer& a, bool exact, RequestTrace* trace) {
  if (exact) {
    trace->mbs_enumerated = a.sets_enumerated;
    trace->mbs_verified = a.sets_verified;
    trace->guard_checks = a.guard_checks;
  } else {
    trace->greedy_rounds = a.sets_verified;
  }
  trace->AddCtx(a.ctx);
}

RewriteAnswer ExactWhy(const Graph& g, const Query& q,
                       const std::vector<NodeId>& answers,
                       const WhyQuestion& w, const AnswerConfig& cfg) {
  RewriteAnswer out;
  out.rewritten = q;
  WhyEvaluator eval(g, answers, w, cfg.guard_m, cfg.semantics, cfg.cancel);
  CostModel cost(q, g, cfg.weighted_cost);

  std::vector<EditOp> picky =
      GenPickyWhy(g, q, answers, eval.unexpected(), cfg);
  // Operators that alone exceed the budget can never be in a bounded set.
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

  // Enumerate + verify (guard-admissible MBS search, possibly parallel —
  // see why/exact_search.h for why the parallel path stays bit-identical).
  // Admissibility: the guard is monotone under refinement, so enumerating
  // the maximal elements of {cost <= B, conflict-free, guard <= m} is exact.
  internal::ExactSearchOutcome search =
      internal::ExactMbsSearch<WhyEvaluator>(
          q, usable, costs, cost, cfg, eval, [&] {
            return std::make_unique<WhyEvaluator>(
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

  // Fallback when the capped enumeration missed a solution the greedy can
  // still reach: the greedy set is a valid bounded set, so adopting it
  // keeps ExactWhy's answer at least as close as ApproxWhy's. Skipped when
  // the request itself is cancelled/past deadline — return best-so-far now.
  if (!out.exhaustive && !CancelRequested(cfg.cancel)) {
    RewriteAnswer seed = ApproxWhy(g, q, answers, w, cfg);
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
    // No improving set: answer with the empty rewrite (Q itself).
    out.eval = eval.Evaluate(q);
    out.ctx.Add(eval.context().stats());
    return out;
  }
  out.found = best_eval.closeness > 0.0;
  out.ops = std::move(best_ops);
  out.rewritten = ApplyOperators(q, out.ops);
  out.eval = best_eval;
  if (cfg.minimize_cost && !CancelRequested(cfg.cancel)) {
    MinimizeCost(g, q, eval, cost, cfg.cancel, out.ops, out.eval,
                 out.rewritten);
  }
  out.cost = cost.Cost(out.ops);
  out.estimated_closeness = out.eval.closeness;
  out.ctx.Add(eval.context().stats());
  return out;
}

namespace {

// Shared greedy skeleton for ApproxWhy / IsoWhy. When `exact` is true the
// marginal gains use the exact evaluator (IsoWhy); otherwise EstMatch.
RewriteAnswer GreedyWhy(const Graph& g, const Query& q,
                        const std::vector<NodeId>& answers,
                        const WhyQuestion& w, const AnswerConfig& cfg,
                        bool exact) {
  RewriteAnswer out;
  out.exhaustive = true;  // greedy: nothing to truncate (unless cancelled)
  out.rewritten = q;
  WhyEvaluator eval(g, answers, w, cfg.guard_m, cfg.semantics, cfg.cancel);
  CostModel cost(q, g, cfg.weighted_cost);
  std::optional<PathIndex> own_pidx;
  if (cfg.path_index == nullptr) own_pidx.emplace(q, cfg.path_index_paths);
  const PathIndex& pidx = cfg.path_index ? *cfg.path_index : *own_pidx;

  std::vector<NodeId> desired;
  for (NodeId v : answers) {
    if (!eval.IsUnexpected(v)) desired.push_back(v);
  }

  // Intra-question parallelism: evaluators own a stateful MatchEngine, so
  // each concurrent executor slot gets its own clone (slot 0 reuses `eval`).
  const size_t width = ResolveParallelWidth(cfg.threads);
  std::vector<std::unique_ptr<WhyEvaluator>> slot_evals;  // slots 1..width-1
  for (size_t s = 1; s < width; ++s) {
    slot_evals.push_back(std::make_unique<WhyEvaluator>(
        g, answers, w, cfg.guard_m, cfg.semantics, cfg.cancel));
  }
  auto eval_at = [&](size_t slot) -> const WhyEvaluator& {
    return slot == 0 ? eval : *slot_evals[slot - 1];
  };
  // Sum of every evaluator's candidate-memo counters, folded into the
  // answer at each exit.
  auto finish_ctx = [&]() {
    out.ctx = eval.context().stats();
    for (const auto& se : slot_evals) out.ctx.Add(se->context().stats());
  };

  std::vector<EditOp> picky =
      GenPickyWhy(g, q, answers, eval.unexpected(), cfg);
  struct Cand {
    EditOp op;
    double cost = 0.0;
    std::vector<NodeId> affected;  // exact Aff(o), computed once
    double single_cl = 0.0;
    size_t single_guard = 0;
  };
  // Budget screen (cheap, serial) fixes the candidate indexing; the
  // per-candidate exact Aff(o) sweeps — the expensive part of prep — then
  // run on the pool, one evaluator per executor slot.
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
        const WhyEvaluator& ev = eval_at(slot);
        Cand& cand = cands[i];
        Query single = ApplyOperators(q, {cand.op});
        cand.affected = ev.AffectedAnswers(single);
        size_t excl = 0;
        for (NodeId v : cand.affected) {
          if (ev.IsUnexpected(v)) {
            ++excl;
          } else {
            ++cand.single_guard;
          }
        }
        if (!ev.unexpected().empty()) {
          cand.single_cl = static_cast<double>(excl) /
                           static_cast<double>(ev.unexpected().size());
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

  // O_1: the best single operator (verified exactly).
  long best_single = -1;
  for (size_t i = 0; i < cands.size(); ++i) {
    if (cands[i].single_guard > cfg.guard_m) continue;
    if (best_single < 0 ||
        cands[i].single_cl >
            cands[static_cast<size_t>(best_single)].single_cl + kEps ||
        (cands[i].single_cl >=
             cands[static_cast<size_t>(best_single)].single_cl - kEps &&
         cands[i].cost < cands[static_cast<size_t>(best_single)].cost)) {
      best_single = static_cast<long>(i);
    }
  }
  double cl_o1 =
      best_single < 0 ? 0.0 : cands[static_cast<size_t>(best_single)].single_cl;

  // O_2: greedy selection by (estimated) marginal gain per unit cost.
  std::vector<size_t> selected;
  NodeSet aff_union(std::vector<NodeId>{}, g.node_count());
  double spent = 0.0;
  double current_cl = 0.0;
  std::vector<uint8_t> in_pool(cands.size(), 1);
  size_t pool = cands.size();

  // `probe` is bound to the rewrite being scored, with the scoring slot's
  // context; the soft score below reuses it.
  auto estimate = [&](const NodeSet& aff, PathIndex::Probe& probe,
                      size_t slot) -> CloseEstimate {
    if (exact) {
      (void)aff;
      EvalResult r = eval_at(slot).Evaluate(probe.query());
      CloseEstimate e;
      e.closeness = r.closeness;
      e.guard = r.guard;
      e.guard_ok = r.guard_ok;
      return e;
    }
    return EstimateWhy(probe, aff, eval.unexpected(), desired, cfg.guard_m);
  };

  // Soft (partial-credit) exclusion progress: a refinement can push an
  // unexpected entity toward failing the path tests without excluding it
  // outright; the soft score breaks zero-gain ties so such combinations
  // can bootstrap (see DESIGN.md).
  // Runs on the scoring slots too, through the caller's probe.
  auto soft_score = [&](const NodeSet& excluded_union,
                        PathIndex::Probe& probe) {
    double s = 0.0;
    for (NodeId v : eval.unexpected()) {
      s += excluded_union.Contains(v) ? 1.0 : 1.0 - probe.PassFraction(v);
    }
    return eval.unexpected().empty()
               ? 0.0
               : s / static_cast<double>(eval.unexpected().size());
  };
  PathIndex::Probe base_probe(pidx, eval.context(), q);
  double current_soft = soft_score(aff_union, base_probe);

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
          std::vector<size_t> trial = selected;
          trial.push_back(i);
          NodeSet aff = aff_union;
          for (NodeId v : cands[i].affected) aff.Insert(v);
          OperatorSet trial_ops;
          for (size_t j : trial) trial_ops.push_back(cands[j].op);
          Query rw = ApplyOperators(q, trial_ops);
          PathIndex::Probe probe(pidx, eval_at(slot).context(), rw);
          CloseEstimate est = estimate(aff, probe, slot);
          Score& s = scores[k];
          s.gain = est.closeness - current_cl;
          s.soft_gain = soft_score(aff, probe) - current_soft;
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
    if (best_gain <= kEps && best_soft_gain <= kEps) {
      continue;  // not picky w.r.t. the current set
    }
    if (spent + cands[b].cost > cfg.budget + kEps) continue;
    // Guard screening of the extended set.
    std::vector<size_t> trial = selected;
    trial.push_back(b);
    NodeSet aff = aff_union;
    for (NodeId v : cands[b].affected) aff.Insert(v);
    OperatorSet trial_ops;
    for (size_t j : trial) trial_ops.push_back(cands[j].op);
    Query rw = ApplyOperators(q, trial_ops);
    PathIndex::Probe probe(pidx, eval.context(), rw);
    CloseEstimate est = estimate(aff, probe, 0);
    if (!est.guard_ok) continue;
    for (size_t j : conflicts[b]) {
      if (in_pool[j]) {
        in_pool[j] = 0;
        --pool;
      }
    }
    selected = std::move(trial);
    aff_union = std::move(aff);
    spent += cands[b].cost;
    current_cl = est.closeness;
    current_soft = soft_score(aff_union, probe);
  }

  // Drop bootstrap operators that never paid off (estimated closeness
  // unchanged without them).
  bool shrunk = true;
  while (shrunk && selected.size() > 1 && !CancelRequested(cfg.cancel)) {
    shrunk = false;
    for (size_t i = 0; i < selected.size(); ++i) {
      if (CancelRequested(cfg.cancel)) break;
      std::vector<size_t> trial = selected;
      trial.erase(trial.begin() + static_cast<long>(i));
      NodeSet aff(std::vector<NodeId>{}, g.node_count());
      OperatorSet trial_ops;
      for (size_t j : trial) {
        trial_ops.push_back(cands[j].op);
        for (NodeId v : cands[j].affected) aff.Insert(v);
      }
      Query rw = ApplyOperators(q, trial_ops);
      PathIndex::Probe probe(pidx, eval.context(), rw);
      CloseEstimate est = estimate(aff, probe, 0);
      if (est.guard_ok && est.closeness >= current_cl - kEps) {
        selected = std::move(trial);
        current_cl = est.closeness;
        shrunk = true;
        break;
      }
    }
  }

  // Return the better of O_1 and O_2 (by the optimizer's own view).
  if (best_single >= 0 && cl_o1 > current_cl + kEps) {
    selected.assign(1, static_cast<size_t>(best_single));
    current_cl = cl_o1;
  }
  if (selected.empty()) {
    out.eval = eval.Evaluate(q);
    finish_ctx();
    return out;
  }
  OperatorSet ops;
  for (size_t j : selected) ops.push_back(cands[j].op);
  out.found = true;
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

RewriteAnswer ApproxWhy(const Graph& g, const Query& q,
                        const std::vector<NodeId>& answers,
                        const WhyQuestion& w, const AnswerConfig& cfg) {
  return GreedyWhy(g, q, answers, w, cfg, /*exact=*/false);
}

RewriteAnswer IsoWhy(const Graph& g, const Query& q,
                     const std::vector<NodeId>& answers, const WhyQuestion& w,
                     const AnswerConfig& cfg) {
  return GreedyWhy(g, q, answers, w, cfg, /*exact=*/true);
}

}  // namespace whyq
