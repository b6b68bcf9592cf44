#ifndef WHYQ_WHY_EXACT_SEARCH_H_
#define WHYQ_WHY_EXACT_SEARCH_H_

#include <functional>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "matcher/match_context.h"
#include "query/query.h"
#include "rewrite/cost_model.h"
#include "rewrite/evaluation.h"
#include "rewrite/operators.h"
#include "why/mbs.h"
#include "why/question.h"

namespace whyq {
namespace internal {

/// Outcome of the exact MBS search shared by ExactWhy / ExactWhyNot: the
/// best (closeness, cost)-lexicographic verified set plus the bookkeeping
/// the callers surface in RewriteAnswer.
struct ExactSearchOutcome {
  double best_cl = -1.0;
  double best_cost = std::numeric_limits<double>::infinity();
  OperatorSet best_ops;
  EvalResult best_eval;
  size_t verified = 0;
  size_t guard_checks = 0;  // GuardOk calls made by the admit predicate
  bool timed_out = false;
  MbsStats stats;
  // Candidate-memo counters summed over the slot evaluators (they are
  // destroyed inside the search; the caller adds its own evaluator's).
  MatchContext::Stats ctx;
};

/// The exact search core (Fig. 3 / Section V-A): enumerate maximal bounded
/// sets over the usable picky operators, verify each with the evaluator's
/// exact Evaluate, keep the lexicographic best, early-terminate at
/// closeness 1, and honor deadline/time-limit truncation.
///
/// Intra-question parallelism (cfg.threads > 1): emitted sets are verified
/// in batches on ThreadPool::Shared() — each executor slot gets its own
/// evaluator from `clone_evaluator` (MatchEngine state is not thread-safe)
/// — and each batch is then *reduced in emission order* with the exact
/// serial tie-break (higher closeness, then lower cost, then earlier
/// emission). The selected set, its evaluation, and `verified` are
/// therefore identical to the cfg.threads == 1 run; only wall-clock-
/// dependent truncation (deadline / exact_time_limit_ms) can differ.
///
/// `eval` is the caller's evaluator; it serves executor slot 0 and the
/// guard admissibility predicate (which runs on the enumeration thread,
/// never concurrently with a batch). Evaluator must provide
/// Evaluate(const Query&) -> EvalResult and GuardOk(const Query&) -> bool.
template <typename Evaluator>
ExactSearchOutcome ExactMbsSearch(
    const Query& q, const std::vector<EditOp>& usable,
    const std::vector<double>& costs, const CostModel& cost,
    const AnswerConfig& cfg, const Evaluator& eval,
    const std::function<std::unique_ptr<Evaluator>()>& clone_evaluator) {
  constexpr double kEps = 1e-9;
  ExactSearchOutcome out;
  Timer exact_timer;
  auto past_deadline = [&]() {
    return CancelRequested(cfg.cancel) ||
           (cfg.exact_time_limit_ms > 0 &&
            exact_timer.ElapsedMillis() > cfg.exact_time_limit_ms);
  };

  const size_t width = ResolveParallelWidth(cfg.threads);
  std::vector<std::unique_ptr<Evaluator>> slot_evals;  // slots 1..width-1
  for (size_t s = 1; s < width; ++s) slot_evals.push_back(clone_evaluator());
  auto eval_at = [&](size_t slot) -> const Evaluator& {
    return slot == 0 ? eval : *slot_evals[slot - 1];
  };
  // Serial runs flush after every emission (the historical behavior:
  // evaluate immediately, stop immediately at closeness 1); parallel runs
  // trade a slightly deeper lookahead for load balance across the slots.
  const size_t batch_size = width <= 1 ? 1 : width * 4;

  // A function of the set cur ∪ {next} (the guard counts answers, which no
  // operator order changes), so the enumerator may ask each set once.
  AdmitFn admit = [&](const std::vector<size_t>& cur, size_t next) {
    ++out.guard_checks;
    OperatorSet ops;
    ops.reserve(cur.size() + 1);
    for (size_t i : cur) ops.push_back(usable[i]);
    ops.push_back(usable[next]);
    return eval.GuardOk(ApplyOperators(q, ops));
  };

  struct Item {
    OperatorSet ops;
    EvalResult r;
  };
  out.stats = EnumerateMaximalBoundedSetsBatched(
      costs, BuildConflicts(usable), cfg.budget, cfg.max_mbs, batch_size,
      [&](const std::vector<std::vector<size_t>>& batch) {
        std::vector<Item> items(batch.size());
        ThreadPool::Shared().ParallelFor(
            batch.size(), width, [&](size_t i, size_t slot) {
              Item& it = items[i];
              it.ops.reserve(batch[i].size());
              for (size_t j : batch[i]) it.ops.push_back(usable[j]);
              it.r = eval_at(slot).Evaluate(ApplyOperators(q, it.ops));
            });
        // Deterministic reduction in emission order; items past an early
        // stop are discarded unseen, exactly as the serial enumeration
        // would never have evaluated them.
        for (Item& it : items) {
          ++out.verified;
          if (it.r.guard_ok) {
            double c = cost.Cost(it.ops);
            if (it.r.closeness > out.best_cl + kEps ||
                (it.r.closeness > out.best_cl - kEps && c < out.best_cost)) {
              out.best_cl = it.r.closeness;
              out.best_cost = c;
              out.best_ops = std::move(it.ops);
              out.best_eval = it.r;
            }
          }
          if (past_deadline()) {
            out.timed_out = true;
            return false;
          }
          if (out.best_cl >= 1.0 - kEps) return false;  // early termination
        }
        return true;
      },
      admit,
      [&]() {
        if (past_deadline()) {
          out.timed_out = true;
          return true;
        }
        return false;
      });
  for (const auto& se : slot_evals) out.ctx.Add(se->context().stats());
  return out;
}

}  // namespace internal
}  // namespace whyq

#endif  // WHYQ_WHY_EXACT_SEARCH_H_
