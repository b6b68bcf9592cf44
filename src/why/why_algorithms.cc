#include "why/why_algorithms.h"

#include <algorithm>
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
#include "why/mbs.h"
#include "why/picky.h"
#include "why/whynot_algorithms.h"

namespace whyq {

namespace {

// What the greedy prep learns about one picky operator o.
struct Prep {
  // Why: the exact Aff(o). Why-not: the new matches in V_C (exact for
  // IsoWhyNot, by path test for FastWhyNot). The greedy unions them over
  // the selected set.
  std::vector<NodeId> effect;
  double single_cl = 0.0;   // Why: exact closeness of {o}, for O_1
  size_t single_guard = 0;  // Why: exact guard of {o}
};

// Both question kinds run the one exact driver and the one greedy skeleton
// below; a kind holds only what differs. Why refines Q until V_N leaves the
// answer, Why-not relaxes it until V_C enters.
struct WhyKind {
  using Question = WhyQuestion;
  using Evaluator = WhyEvaluator;
  // The greedy answers O_1, the best single operator, when it beats O_2.
  static constexpr bool kBestSingle = true;

  static std::vector<EditOp> Picky(const Graph& g, const Query& q,
                                   const std::vector<NodeId>& answers,
                                   const Evaluator& eval,
                                   const AnswerConfig& cfg) {
    return GenPickyWhy(g, q, answers, eval.targets(), cfg);
  }
  // Partial credit of a target not yet excluded: a refinement can push it
  // toward failing the path tests without excluding it outright.
  static double SoftTerm(double pass_fraction) { return 1.0 - pass_fraction; }
  // Every Why rewrite refines Q, so each is a delta of Q's simulation.
  static void WarmStart(Evaluator& ev, const Query& q) {
    ev.AssumeRefinementsOf(q);
  }

  // The exact Aff(o) even for IsoWhy, since O_1 is scored from it.
  static void Prepare(const Evaluator& ev, const PathIndex&,
                      const Query& single, bool, Prep& p) {
    p.effect = ev.AffectedAnswers(single);
    size_t excl = 0;
    for (NodeId v : p.effect) {
      if (ev.IsUnexpected(v)) {
        ++excl;
      } else {
        ++p.single_guard;
      }
    }
    if (!ev.targets().empty()) {
      p.single_cl = static_cast<double>(excl) /
                    static_cast<double>(ev.targets().size());
    }
  }

  WhyKind(const Evaluator& eval, const AnswerConfig&) : eval_(eval) {}
  // The Why estimate has no guard window to record.
  void Rebase(const PathIndex&, const Query&) {}
  CloseEstimate Estimate(PathIndex::Probe& probe,
                         const NodeSet& effect) const {
    return EstimateWhy(probe, effect, eval_.targets(), eval_.desired(),
                       eval_.guard_m());
  }

  const Evaluator& eval_;
};

struct WhyNotKind {
  using Question = WhyNotQuestion;
  using Evaluator = WhyNotEvaluator;
  static constexpr bool kBestSingle = false;

  static std::vector<EditOp> Picky(const Graph& g, const Query& q,
                                   const std::vector<NodeId>&,
                                   const Evaluator& eval,
                                   const AnswerConfig& cfg) {
    return GenPickyWhyNot(g, q, eval.targets(), cfg);
  }
  // Single relaxations often gain nothing hard (an entity needs several
  // constraints lifted at once); credit how far along the entity is.
  static double SoftTerm(double pass_fraction) { return pass_fraction; }
  // Relaxations grow the relation: no bound to start from.
  static void WarmStart(Evaluator&, const Query&) {}

  static void Prepare(const Evaluator& ev, const PathIndex& pidx,
                      const Query& single, bool exact, Prep& p) {
    if (exact) {
      p.effect = ev.NewMatches(single);
      return;
    }
    PathIndex::Probe probe(pidx, ev.context(), single);
    for (NodeId v : ev.targets()) {
      if (probe.Passes(v)) p.effect.push_back(v);
    }
  }

  WhyNotKind(const Evaluator& eval, const AnswerConfig& cfg)
      : eval_(eval), cfg_(cfg) {}
  // Makes `base` the rewrite the next estimates are deltas of. Runs on
  // slot 0, between the parallel scoring passes.
  void Rebase(const PathIndex& pidx, const Query& base) {
    if (window_ != nullptr) {
      window_->Rebase(base);
    } else {
      window_ = std::make_unique<GuardWindow>(pidx, eval_.context(), base,
                                              eval_.protected_set(),
                                              cfg_.est_guard_scan);
    }
  }
  CloseEstimate Estimate(PathIndex::Probe& probe,
                         const NodeSet& effect) const {
    return EstimateWhyNot(probe, *window_, effect, eval_.targets(),
                          cfg_.guard_m);
  }

  const Evaluator& eval_;
  const AnswerConfig& cfg_;
  std::unique_ptr<GuardWindow> window_;
};

// The executor slots of one question's parallel loops. Evaluators own a
// stateful MatchEngine, so slot 0 uses the caller's evaluator and each
// further slot a clone of its own. Every slot is warm-started from Q
// (Kind::WarmStart).
template <typename Kind>
class SlotEvaluators {
 public:
  using Evaluator = typename Kind::Evaluator;

  SlotEvaluators(Evaluator& eval, const Graph& g, const Query& q,
                 const std::vector<NodeId>& answers,
                 const typename Kind::Question& w, const AnswerConfig& cfg)
      : eval_(eval), width_(ResolveParallelWidth(cfg.threads)) {
    Kind::WarmStart(eval, q);
    for (size_t s = 1; s < width_; ++s) {
      clones_.push_back(std::make_unique<Evaluator>(
          g, answers, w, cfg.guard_m, cfg.semantics, cfg.cancel));
      Kind::WarmStart(*clones_.back(), q);
    }
  }

  size_t width() const { return width_; }
  const Evaluator& operator[](size_t slot) const {
    return slot == 0 ? eval_ : *clones_[slot - 1];
  }
  // The clones' candidate-memo counters (slot 0's are the caller's).
  MatchContext::Stats CloneStats() const {
    MatchContext::Stats s;
    for (const auto& c : clones_) s.Add(c->context().stats());
    return s;
  }

 private:
  const Evaluator& eval_;
  size_t width_;
  std::vector<std::unique_ptr<Evaluator>> clones_;
};

// What every search of one request shares: the exact evaluator and its
// executor slots, the cost model, and the budget-screened picky pool, which
// is generated once. A truncated exact run's greedy fallback runs on the
// same pool (and so on the same candidate memo) as the enumeration.
template <typename Kind>
struct SearchSetup {
  SearchSetup(const Graph& g, const Query& q,
              const std::vector<NodeId>& answers,
              const typename Kind::Question& w, const AnswerConfig& cfg)
      : eval(g, answers, w, cfg.guard_m, cfg.semantics, cfg.cancel),
        cost(q, g, cfg.weighted_cost),
        slots(eval, g, q, answers, w, cfg) {
    BudgetScreen(Kind::Picky(g, q, answers, eval, cfg), cost, cfg.budget,
                 &usable, &costs);
  }

  // Every evaluator's candidate-memo counters.
  MatchContext::Stats Stats() const {
    MatchContext::Stats s = eval.context().stats();
    s.Add(slots.CloneStats());
    return s;
  }

  typename Kind::Evaluator eval;
  CostModel cost;
  SlotEvaluators<Kind> slots;
  std::vector<EditOp> usable;  // in generation order
  std::vector<double> costs;   // aligned with usable
};

// The evaluation reported when a search answers with Q itself. Past the
// deadline no more matching runs, but Q's evaluation is known without it:
// its answers stay answers (guard 0) and no entity of the question changes
// status (closeness 0).
EvalResult EvaluateQ(const RewriteEvaluator& eval, const Query& q,
                     const CancelToken* cancel) {
  EvalResult r = eval.Evaluate(q);
  return CancelRequested(cancel) ? EvalResult{} : r;
}

// Exact post-processing: greedily drop operators while the exact closeness
// does not decrease and the guard stays valid ("minimal MBS"). Every
// dropped-operator trial is a full exact evaluation, so the loop polls
// `cancel` per trial: an expiring deadline keeps the current (valid, just
// not yet minimal) rewrite.
void MinimizeCost(const Query& q, const RewriteEvaluator& eval,
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

// ExactWhy / ExactWhyNot (Fig. 3, Section V-A): enumerate the maximal
// bounded sets over the usable picky operators, verify each with the exact
// Evaluate, keep the (closeness, cost)-lexicographic best, stop early at
// closeness 1, and honor deadline/time-limit truncation. Admissibility:
// the guard is monotone under refinement (and under relaxation), so
// enumerating the maximal elements of {cost <= B, conflict-free,
// guard <= m} is exact.
//
// Intra-question parallelism (cfg.threads > 1): emitted sets are verified
// in batches on ThreadPool::Shared(), one evaluator per executor slot, and
// each batch is then *reduced in emission order* with the exact serial
// tie-break (higher closeness, then lower cost, then earlier emission). The
// selected set, its evaluation and sets_verified are therefore identical to
// the cfg.threads == 1 run; only wall-clock-dependent truncation (deadline
// / exact_time_limit_ms) can differ. The guard admission runs on the
// enumeration thread with the caller's evaluator, never concurrently with
// a batch.
template <typename Kind>
RewriteAnswer Greedy(const Graph& g, const Query& q, const AnswerConfig& cfg,
                     bool exact, SearchSetup<Kind>& setup);

template <typename Kind>
RewriteAnswer Exact(const Graph& g, const Query& q,
                    const std::vector<NodeId>& answers,
                    const typename Kind::Question& w,
                    const AnswerConfig& cfg) {
  RewriteAnswer out;
  out.rewritten = q;
  SearchSetup<Kind> setup(g, q, answers, w, cfg);
  typename Kind::Evaluator& eval = setup.eval;
  const CostModel& cost = setup.cost;
  const std::vector<EditOp>& usable = setup.usable;
  const std::vector<double>& costs = setup.costs;
  SlotEvaluators<Kind>& slots = setup.slots;
  out.picky_count = usable.size();

  double best_cl = -1.0;
  double best_cost = std::numeric_limits<double>::infinity();
  OperatorSet best_ops;
  EvalResult best_eval;
  // Keeps a guard-valid set that beats the best so far: higher closeness,
  // then lower cost; the earlier set wins a tie.
  auto offer = [&](OperatorSet& ops, const EvalResult& r, double c) {
    if (r.closeness > best_cl + kEps ||
        (r.closeness > best_cl - kEps && c < best_cost)) {
      best_cl = r.closeness;
      best_cost = c;
      best_ops = std::move(ops);
      best_eval = r;
    }
  };
  {
    Timer exact_timer;
    bool timed_out = false;
    auto past_deadline = [&]() {
      return CancelRequested(cfg.cancel) ||
             (cfg.exact_time_limit_ms > 0 &&
              exact_timer.ElapsedMillis() > cfg.exact_time_limit_ms);
    };
    // Serial runs flush after every emission (evaluate immediately, stop
    // immediately at closeness 1); parallel runs trade a slightly deeper
    // lookahead for load balance across the slots.
    const size_t batch_size = slots.width() <= 1 ? 1 : slots.width() * 4;

    // A function of the set cur ∪ {next} (the guard counts answers, which
    // no operator order changes), so the enumerator may ask each set once.
    // Every emitted set comes back with the guard count measured here, so
    // its verification runs only the closeness tests.
    AdmitFn admit = [&](const std::vector<size_t>& cur, size_t next) {
      ++out.guard_checks;
      OperatorSet ops;
      ops.reserve(cur.size() + 1);
      for (size_t i : cur) ops.push_back(usable[i]);
      ops.push_back(usable[next]);
      return eval.Guard(ApplyOperators(q, ops));
    };

    struct Item {
      OperatorSet ops;
      EvalResult r;
    };
    MbsStats stats = EnumerateMaximalBoundedSetsBatched(
        costs, BuildConflicts(usable), cfg.budget, cfg.max_mbs, batch_size,
        [&](const std::vector<std::vector<size_t>>& batch,
            const std::vector<std::optional<size_t>>& guards) {
          std::vector<Item> items(batch.size());
          ThreadPool::Shared().ParallelFor(
              batch.size(), slots.width(), [&](size_t i, size_t slot) {
                Item& it = items[i];
                it.ops.reserve(batch[i].size());
                for (size_t j : batch[i]) it.ops.push_back(usable[j]);
                Query rewritten = ApplyOperators(q, it.ops);
                it.r = guards[i].has_value()
                           ? slots[slot].Evaluate(rewritten, *guards[i])
                           : slots[slot].Evaluate(rewritten);
              });
          // Deterministic reduction in emission order; items past an early
          // stop are discarded unseen, exactly as the serial enumeration
          // would never have evaluated them.
          for (Item& it : items) {
            ++out.sets_verified;
            if (it.r.guard_ok) offer(it.ops, it.r, cost.Cost(it.ops));
            if (past_deadline()) {
              timed_out = true;
              return false;
            }
            if (best_cl >= 1.0 - kEps) return false;  // early termination
          }
          return true;
        },
        admit,
        [&]() {
          if (past_deadline()) {
            timed_out = true;
            return true;
          }
          return false;
        });
    out.sets_enumerated = stats.emitted;
    out.exhaustive = !stats.truncated && !timed_out;
  }

  // Fallback when the capped enumeration missed a solution the greedy can
  // still reach: the greedy set is a valid bounded set, so adopting it
  // keeps the exact answer at least as close as the greedy one. Skipped
  // when the request itself is cancelled/past deadline — return
  // best-so-far now.
  if (!out.exhaustive && !CancelRequested(cfg.cancel)) {
    RewriteAnswer seed =
        Greedy<Kind>(g, q, cfg, /*exact=*/false, setup);
    if (seed.found && seed.eval.guard_ok && seed.cost <= cfg.budget + kEps) {
      offer(seed.ops, seed.eval, seed.cost);
    }
  }

  if (best_cl < 0.0 || best_ops.empty()) {
    // No improving set: answer with the empty rewrite (Q itself).
    out.eval = EvaluateQ(eval, q, cfg.cancel);
    out.ctx = setup.Stats();
    return out;
  }
  out.found = best_eval.closeness > 0.0;
  out.ops = std::move(best_ops);
  out.rewritten = ApplyOperators(q, out.ops);
  out.eval = best_eval;
  if (cfg.minimize_cost && !CancelRequested(cfg.cancel)) {
    MinimizeCost(q, eval, cost, cfg.cancel, out.ops, out.eval,
                 out.rewritten);
  }
  out.cost = cost.Cost(out.ops);
  out.estimated_closeness = out.eval.closeness;
  out.ctx = setup.Stats();
  return out;
}

// ApproxWhy / FastWhyNot (Fig. 4, Section V-B) and their exact-gain
// baselines IsoWhy / IsoWhyNot (`exact`): budgeted greedy selection by
// marginal gain per unit cost. Each usable picky operator is prepped once
// (Kind::Prepare) and scored once per selection, by the estimated (or,
// when `exact`, verified) closeness of the selection plus it.
//
// Runs on `setup`, whose counters the caller folds into its answer: the
// public greedy algorithms on a setup of their own, a truncated exact run
// on the one `Exact<Kind>` built.
template <typename Kind>
RewriteAnswer Greedy(const Graph& g, const Query& q, const AnswerConfig& cfg,
                     bool exact, SearchSetup<Kind>& setup) {
  RewriteAnswer out;
  out.exhaustive = true;  // greedy: nothing to truncate (unless cancelled)
  out.rewritten = q;
  typename Kind::Evaluator& eval = setup.eval;
  const CostModel& cost = setup.cost;
  SlotEvaluators<Kind>& slots = setup.slots;
  std::optional<PathIndex> own_pidx;
  const PathIndex& pidx = SearchPathIndex(q, cfg, &own_pidx);
  Kind kind(eval, cfg);
  const std::vector<NodeId>& targets = eval.targets();

  // A prep cut short below keeps a prefix of the picky pool.
  std::vector<EditOp> usable = setup.usable;
  std::vector<double> costs = setup.costs;
  // The per-candidate prep — the expensive part — runs on the pool, one
  // evaluator per executor slot.
  std::vector<Prep> prep(usable.size());
  std::vector<uint8_t> prepped(usable.size(), 0);
  ThreadPool::Shared().ParallelFor(
      usable.size(), slots.width(), [&](size_t i, size_t slot) {
        if (CancelRequested(cfg.cancel)) return;  // prefix-kept below
        Query single = ApplyOperators(q, {usable[i]});
        Kind::Prepare(slots[slot], pidx, single, exact, prep[i]);
        // A prep cut short by the deadline is not kept.
        prepped[i] = CancelRequested(cfg.cancel) ? 0 : 1;
      });
  // Cancellation mid-prep: keep the longest fully-scored prefix — exactly
  // the candidates a serial run would have kept before breaking out.
  size_t scored_prefix = 0;
  while (scored_prefix < usable.size() && prepped[scored_prefix]) {
    ++scored_prefix;
  }
  if (scored_prefix < usable.size()) {
    out.exhaustive = false;
    usable.resize(scored_prefix);
    costs.resize(scored_prefix);
    prep.resize(scored_prefix);
  }
  out.picky_count = usable.size();

  // Conflict adjacency: operators editing the same literal/edge cannot
  // be co-selected.
  std::vector<std::vector<size_t>> conflicts = BuildConflicts(usable);

  // O_1 (Why only): the best single operator (verified exactly).
  long best_single = -1;
  for (size_t i = 0; i < usable.size(); ++i) {
    if (!Kind::kBestSingle || prep[i].single_guard > cfg.guard_m) continue;
    if (best_single < 0 ||
        prep[i].single_cl >
            prep[static_cast<size_t>(best_single)].single_cl + kEps ||
        (prep[i].single_cl >=
             prep[static_cast<size_t>(best_single)].single_cl - kEps &&
         costs[i] < costs[static_cast<size_t>(best_single)])) {
      best_single = static_cast<long>(i);
    }
  }

  // `probe` is bound to the rewrite being scored, with the scoring slot's
  // context; the soft score below reuses it. Estimates are deltas of the
  // base `rebase` last recorded, which every caller sets to its own.
  auto rebase = [&](const std::vector<size_t>& base) {
    if (exact) return;
    OperatorSet base_ops;
    for (size_t j : base) base_ops.push_back(usable[j]);
    kind.Rebase(pidx, ApplyOperators(q, base_ops));
  };
  auto estimate = [&](const NodeSet& effect, PathIndex::Probe& probe,
                      size_t slot) -> CloseEstimate {
    if (!exact) return kind.Estimate(probe, effect);
    EvalResult r = slots[slot].Evaluate(probe.query());
    return CloseEstimate{r.closeness, r.guard, r.guard_ok};
  };
  // Soft (partial-credit) progress over the targets (Kind::SoftTerm); it
  // breaks zero-gain ties so combinations of individually useless
  // operators can bootstrap (see DESIGN.md). Runs on the scoring slots
  // too, through the caller's probe.
  auto soft_score = [&](const NodeSet& effect, PathIndex::Probe& probe) {
    double s = 0.0;
    for (NodeId v : targets) {
      s += effect.Contains(v) ? 1.0 : Kind::SoftTerm(probe.PassFraction(v));
    }
    return targets.empty() ? 0.0
                           : s / static_cast<double>(targets.size());
  };

  // O_2: greedy selection by (estimated) marginal gain per unit cost.
  std::vector<size_t> selected;
  NodeSet effect_union(std::vector<NodeId>{}, g.node_count());
  double spent = 0.0;
  double current_cl = 0.0;
  std::vector<uint8_t> in_pool(usable.size(), 1);
  size_t pool = usable.size();
  PathIndex::Probe base_probe(pidx, eval.context(), q);
  double current_soft = soft_score(effect_union, base_probe);

  // One score per candidate: the selection plus it. Only a selection moves
  // `selected`, `effect_union`, `current_cl` and `current_soft`, so the
  // pool is scored before the first round and after each round that
  // selects; a round that only drops its argmax reuses the scores.
  struct Score {
    CloseEstimate est;   // of the selection plus the candidate
    double soft = 0.0;   // soft score of the same
    double ratio = -1.0;
    double gain = 0.0;
    double soft_gain = 0.0;
  };
  std::vector<Score> scores(usable.size());
  bool stale = true;
  std::vector<size_t> pool_idx;
  while (pool > 0 && current_cl < 1.0 - kEps) {
    if (CancelRequested(cfg.cancel)) {
      out.exhaustive = false;
      break;  // keep the greedy prefix selected so far
    }
    ++out.sets_verified;
    if (stale) {
      // Parallel across executor slots; each score depends only on the
      // selection and the candidate, never on the slot.
      pool_idx.clear();
      for (size_t i = 0; i < usable.size(); ++i) {
        if (in_pool[i]) pool_idx.push_back(i);
      }
      OperatorSet selected_ops;
      for (size_t j : selected) selected_ops.push_back(usable[j]);
      rebase(selected);
      ThreadPool::Shared().ParallelFor(
          pool_idx.size(), slots.width(), [&](size_t k, size_t slot) {
            size_t i = pool_idx[k];
            NodeSet effect = effect_union;
            for (NodeId v : prep[i].effect) effect.Insert(v);
            OperatorSet trial_ops = selected_ops;
            trial_ops.push_back(usable[i]);
            Query rw = ApplyOperators(q, trial_ops);
            PathIndex::Probe probe(pidx, slots[slot].context(), rw);
            Score& s = scores[i];
            s.est = estimate(effect, probe, slot);
            s.soft = soft_score(effect, probe);
            s.gain = s.est.closeness - current_cl;
            // Hard gains dominate; soft gains break zero-gain ties.
            s.soft_gain = s.soft - current_soft;
            s.ratio = (s.gain + 1e-3 * s.soft_gain) / costs[i];
          });
      stale = false;
    }
    // The winner in ascending candidate order: the ratio must beat the
    // incumbent by kEps, so parallel scoring selects what a serial one does.
    long best = -1;
    double best_ratio = -1.0;
    for (size_t i = 0; i < usable.size(); ++i) {
      if (in_pool[i] && scores[i].ratio > best_ratio + kEps) {
        best_ratio = scores[i].ratio;
        best = static_cast<long>(i);
      }
    }
    if (best < 0) break;
    size_t b = static_cast<size_t>(best);
    in_pool[b] = 0;
    --pool;
    const Score& s = scores[b];
    if (s.gain <= kEps && s.soft_gain <= kEps) {
      continue;  // not picky w.r.t. the current set
    }
    if (spent + costs[b] > cfg.budget + kEps) continue;
    // Guard screening of the extended set.
    if (!s.est.guard_ok) continue;
    for (size_t j : conflicts[b]) {
      if (in_pool[j]) {
        in_pool[j] = 0;
        --pool;
      }
    }
    selected.push_back(b);
    for (NodeId v : prep[b].effect) effect_union.Insert(v);
    spent += costs[b];
    current_cl = s.est.closeness;
    current_soft = s.soft;
    stale = true;
  }

  // Drop bootstrap operators that never paid off (estimated closeness
  // unchanged without them).
  bool shrunk = true;
  while (shrunk && selected.size() > 1 && !CancelRequested(cfg.cancel)) {
    shrunk = false;
    rebase(selected);
    for (size_t i = 0; i < selected.size(); ++i) {
      if (CancelRequested(cfg.cancel)) break;
      std::vector<size_t> trial = selected;
      trial.erase(trial.begin() + static_cast<long>(i));
      NodeSet effect(std::vector<NodeId>{}, g.node_count());
      OperatorSet trial_ops;
      for (size_t j : trial) {
        trial_ops.push_back(usable[j]);
        for (NodeId v : prep[j].effect) effect.Insert(v);
      }
      Query rw = ApplyOperators(q, trial_ops);
      PathIndex::Probe probe(pidx, eval.context(), rw);
      CloseEstimate est = estimate(effect, probe, 0);
      if (est.guard_ok && est.closeness >= current_cl - kEps) {
        selected = std::move(trial);
        current_cl = est.closeness;
        shrunk = true;
        break;
      }
    }
  }

  // Return the better of O_1 and O_2 (by the optimizer's own view).
  if (best_single >= 0 &&
      prep[static_cast<size_t>(best_single)].single_cl > current_cl + kEps) {
    current_cl = prep[static_cast<size_t>(best_single)].single_cl;
    selected.assign(1, static_cast<size_t>(best_single));
  }
  if (!selected.empty()) {
    for (size_t j : selected) out.ops.push_back(usable[j]);
    out.rewritten = ApplyOperators(q, out.ops);
    out.eval = eval.Evaluate(out.rewritten);
    if (CancelRequested(cfg.cancel)) {
      // The verification may have been cut short: answer with Q instead.
      out.exhaustive = false;
      out.ops.clear();
      out.rewritten = q;
      selected.clear();
    }
  }
  if (selected.empty()) {
    out.eval = EvaluateQ(eval, q, cfg.cancel);
    return out;
  }
  out.cost = cost.Cost(out.ops);
  out.estimated_closeness = current_cl;
  out.found = out.eval.guard_ok && out.eval.closeness > 0.0;
  return out;
}

// A greedy algorithm on a setup of its own.
template <typename Kind>
RewriteAnswer RunGreedy(const Graph& g, const Query& q,
                        const std::vector<NodeId>& answers,
                        const typename Kind::Question& w,
                        const AnswerConfig& cfg, bool exact) {
  SearchSetup<Kind> setup(g, q, answers, w, cfg);
  RewriteAnswer out = Greedy<Kind>(g, q, cfg, exact, setup);
  out.ctx = setup.Stats();
  return out;
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
  return Exact<WhyKind>(g, q, answers, w, cfg);
}

RewriteAnswer ApproxWhy(const Graph& g, const Query& q,
                        const std::vector<NodeId>& answers,
                        const WhyQuestion& w, const AnswerConfig& cfg) {
  return RunGreedy<WhyKind>(g, q, answers, w, cfg, /*exact=*/false);
}

RewriteAnswer IsoWhy(const Graph& g, const Query& q,
                     const std::vector<NodeId>& answers, const WhyQuestion& w,
                     const AnswerConfig& cfg) {
  return RunGreedy<WhyKind>(g, q, answers, w, cfg, /*exact=*/true);
}

RewriteAnswer ExactWhyNot(const Graph& g, const Query& q,
                          const std::vector<NodeId>& answers,
                          const WhyNotQuestion& w, const AnswerConfig& cfg) {
  return Exact<WhyNotKind>(g, q, answers, w, cfg);
}

RewriteAnswer FastWhyNot(const Graph& g, const Query& q,
                         const std::vector<NodeId>& answers,
                         const WhyNotQuestion& w, const AnswerConfig& cfg) {
  return RunGreedy<WhyNotKind>(g, q, answers, w, cfg, /*exact=*/false);
}

RewriteAnswer IsoWhyNot(const Graph& g, const Query& q,
                        const std::vector<NodeId>& answers,
                        const WhyNotQuestion& w, const AnswerConfig& cfg) {
  return RunGreedy<WhyNotKind>(g, q, answers, w, cfg, /*exact=*/true);
}

}  // namespace whyq
