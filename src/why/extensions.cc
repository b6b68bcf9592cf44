#include "why/extensions.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <set>

#include "matcher/matcher.h"
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
  Matcher matcher(g);
  matcher.set_cancel_token(cfg.cancel);
  auto harvest = [&](const Query& rewritten) {
    std::vector<NodeId> all = matcher.MatchOutput(rewritten);
    if (all.size() > 10) all.resize(10);
    out.sample_answers = std::move(all);
  };
  if (matcher.HasAnyMatch(q)) {
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
    PathIndex::Probe probe(pidx, g, rewritten, nullptr);
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
    if (matcher.HasAnyMatch(rewritten)) {
      // Drop unnecessary operators, cheapest kept.
      bool changed = true;
      while (changed && selected.size() > 1) {
        changed = false;
        for (size_t j = 0; j < selected.size(); ++j) {
          OperatorSet trial = selected;
          trial.erase(trial.begin() + static_cast<long>(j));
          Query tq = ApplyOperators(q, trial);
          if (matcher.HasAnyMatch(tq)) {
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
  Matcher matcher(g);
  matcher.set_cancel_token(cfg.cancel);
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
    PathIndex::Probe probe(pidx, g, rewritten, nullptr);
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
  out.after = matcher.MatchOutput(out.rewritten).size();
  out.found = out.after <= target_k;
  return out;
}

RewriteAnswer ExactWhyMultiOutput(
    const Graph& g, const Query& q,
    const std::vector<std::vector<NodeId>>& answers_per_output,
    const std::vector<std::vector<NodeId>>& unexpected_per_output,
    const AnswerConfig& cfg) {
  RewriteAnswer out;
  out.rewritten = q;
  const std::vector<QNodeId>& outputs = q.outputs();
  size_t n_out = outputs.size();

  // Per-output projections of Q, evaluators, and cost models.
  std::vector<Query> projections;
  std::vector<WhyEvaluator> evals;
  std::vector<CostModel> cost_models;
  size_t total_unexpected = 0;
  for (size_t i = 0; i < n_out; ++i) {
    Query qi = q;
    qi.SetOutput(outputs[i]);
    projections.push_back(qi);
    WhyQuestion wi{unexpected_per_output[i]};
    evals.emplace_back(g, answers_per_output[i], wi, cfg.guard_m);
    cost_models.emplace_back(qi, g, cfg.weighted_cost);
    total_unexpected += evals.back().unexpected().size();
  }
  if (total_unexpected == 0) return out;

  // Picky union over per-output generations; cost of an operator is taken
  // w.r.t. its *nearest* output (the max of the per-output costs, since
  // centrality grows as distance shrinks).
  std::vector<EditOp> picky;
  for (size_t i = 0; i < n_out; ++i) {
    std::vector<EditOp> ops =
        GenPickyWhy(g, projections[i], answers_per_output[i],
                    evals[i].unexpected(), cfg);
    for (EditOp& op : ops) picky.push_back(std::move(op));
  }
  auto op_cost = [&](const EditOp& op) {
    double c = 0.0;
    for (const CostModel& m : cost_models) c = std::max(c, m.Cost(op));
    return c;
  };
  std::vector<EditOp> usable;
  std::vector<double> costs;
  for (EditOp& op : picky) {
    bool dup = false;
    for (const EditOp& seen : usable) {
      if (seen == op) {
        dup = true;
        break;
      }
    }
    if (dup) continue;
    double c = op_cost(op);
    if (c <= cfg.budget + kEps) {
      usable.push_back(std::move(op));
      costs.push_back(c);
    }
  }
  out.picky_count = usable.size();

  auto pooled_eval = [&](const OperatorSet& ops, EvalResult* result) {
    size_t excluded = 0;
    size_t guard = 0;
    // One exact evaluation per output; a cancelled request stops here with
    // partial counts (the enumeration callback below aborts right after).
    for (size_t i = 0; i < n_out && !CancelRequested(cfg.cancel); ++i) {
      Query rewritten = ApplyOperators(projections[i], ops);
      const std::vector<NodeId> affected =
          evals[i].AffectedAnswers(rewritten);
      for (NodeId v : affected) {
        if (evals[i].IsUnexpected(v)) {
          ++excluded;
        } else {
          ++guard;
        }
      }
    }
    result->closeness = static_cast<double>(excluded) /
                        static_cast<double>(total_unexpected);
    result->guard = guard;
    result->guard_ok = guard <= cfg.guard_m;
  };

  double best_cl = -1.0;
  double best_cost = std::numeric_limits<double>::infinity();
  OperatorSet best_ops;
  EvalResult best_eval;
  AdmitFn admit = [&](const std::vector<size_t>& cur, size_t next) {
    OperatorSet ops;
    for (size_t i : cur) ops.push_back(usable[i]);
    ops.push_back(usable[next]);
    EvalResult r;
    pooled_eval(ops, &r);
    return r.guard_ok;
  };
  MbsStats stats = EnumerateMaximalBoundedSetsBatched(
      costs, BuildConflicts(usable), cfg.budget, cfg.max_mbs,
      /*batch_size=*/1,
      [&](const std::vector<std::vector<size_t>>& batch) {
        const std::vector<size_t>& idx = batch.front();
        if (CancelRequested(cfg.cancel)) return false;  // abort enumeration
        ++out.sets_verified;
        OperatorSet ops;
        for (size_t i : idx) ops.push_back(usable[i]);
        EvalResult r;
        pooled_eval(ops, &r);
        if (!r.guard_ok) return true;
        double c = 0.0;
        for (const EditOp& op : ops) c += op_cost(op);
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
    pooled_eval({}, &out.eval);
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
  const std::vector<QNodeId>& outputs = q.outputs();
  size_t n_out = outputs.size();

  std::vector<Query> projections;
  std::vector<WhyEvaluator> evals;
  std::vector<CostModel> cost_models;
  size_t total_unexpected = 0;
  for (size_t i = 0; i < n_out; ++i) {
    Query qi = q;
    qi.SetOutput(outputs[i]);
    projections.push_back(qi);
    WhyQuestion wi{unexpected_per_output[i]};
    evals.emplace_back(g, answers_per_output[i], wi, cfg.guard_m);
    cost_models.emplace_back(qi, g, cfg.weighted_cost);
    total_unexpected += evals.back().unexpected().size();
  }
  if (total_unexpected == 0) return out;

  std::vector<EditOp> picky;
  for (size_t i = 0; i < n_out; ++i) {
    std::vector<EditOp> ops =
        GenPickyWhy(g, projections[i], answers_per_output[i],
                    evals[i].unexpected(), cfg);
    for (EditOp& op : ops) picky.push_back(std::move(op));
  }
  auto op_cost = [&](const EditOp& op) {
    double c = 0.0;
    for (const CostModel& m : cost_models) c = std::max(c, m.Cost(op));
    return c;
  };

  // Per-operator pooled effect sets, verified exactly once per output.
  struct Cand {
    EditOp op;
    double cost = 0.0;
    // (output index, node) pairs excluded by the single operator.
    std::vector<std::pair<size_t, NodeId>> excluded;
    size_t guard = 0;
  };
  std::vector<Cand> cands;
  for (EditOp& op : picky) {
    // Each candidate costs n_out exact verifications; stop generating
    // (and select from what exists) once the deadline expires.
    if (CancelRequested(cfg.cancel)) {
      out.exhaustive = false;
      break;
    }
    bool dup = false;
    for (const Cand& seen : cands) {
      if (seen.op == op) {
        dup = true;
        break;
      }
    }
    if (dup) continue;
    double c = op_cost(op);
    if (c > cfg.budget + kEps) continue;
    Cand cand;
    cand.op = std::move(op);
    cand.cost = c;
    for (size_t i = 0; i < n_out && !CancelRequested(cfg.cancel); ++i) {
      Query single = ApplyOperators(projections[i], {cand.op});
      const std::vector<NodeId> affected = evals[i].AffectedAnswers(single);
      for (NodeId v : affected) {
        if (evals[i].IsUnexpected(v)) {
          cand.excluded.emplace_back(i, v);
        } else {
          ++cand.guard;
        }
      }
    }
    cands.push_back(std::move(cand));
  }
  out.picky_count = cands.size();

  std::vector<EditOp> cand_ops;
  cand_ops.reserve(cands.size());
  for (const Cand& c : cands) cand_ops.push_back(c.op);
  std::vector<std::vector<size_t>> conflicts = BuildConflicts(cand_ops);

  // Budgeted max-coverage greedy over the pooled exclusion sets.
  std::set<std::pair<size_t, NodeId>> covered;
  std::vector<size_t> selected;
  std::vector<uint8_t> in_pool(cands.size(), 1);
  size_t pool = cands.size();
  double spent = 0.0;
  size_t guard_used = 0;
  while (pool > 0) {
    ++out.sets_verified;
    long best = -1;
    double best_ratio = 0.0;
    for (size_t i = 0; i < cands.size(); ++i) {
      if (!in_pool[i]) continue;
      if (spent + cands[i].cost > cfg.budget + kEps) continue;
      if (guard_used + cands[i].guard > cfg.guard_m) continue;
      size_t gain = 0;
      for (const auto& key : cands[i].excluded) {
        gain += covered.count(key) ? 0 : 1;
      }
      double ratio = static_cast<double>(gain) / cands[i].cost;
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
    spent += cands[b].cost;
    guard_used += cands[b].guard;
    for (const auto& key : cands[b].excluded) covered.insert(key);
  }

  if (selected.empty()) return out;
  OperatorSet ops;
  for (size_t j : selected) ops.push_back(cands[j].op);
  out.ops = std::move(ops);
  out.rewritten = ApplyOperators(q, out.ops);
  out.cost = spent;
  // Exact pooled evaluation for reporting; a cancelled request reports
  // from the outputs verified so far.
  size_t excluded = 0;
  size_t guard = 0;
  for (size_t i = 0; i < n_out && !CancelRequested(cfg.cancel); ++i) {
    Query rewritten = ApplyOperators(projections[i], out.ops);
    const std::vector<NodeId> affected = evals[i].AffectedAnswers(rewritten);
    for (NodeId v : affected) {
      if (evals[i].IsUnexpected(v)) {
        ++excluded;
      } else {
        ++guard;
      }
    }
  }
  out.eval.closeness =
      static_cast<double>(excluded) / static_cast<double>(total_unexpected);
  out.eval.guard = guard;
  out.eval.guard_ok = guard <= cfg.guard_m;
  if (CancelRequested(cfg.cancel)) out.exhaustive = false;
  out.estimated_closeness =
      static_cast<double>(covered.size()) /
      static_cast<double>(total_unexpected);
  out.found = out.eval.guard_ok && out.eval.closeness > 0.0;
  return out;
}


}  // namespace whyq
