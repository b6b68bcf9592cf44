#include "rewrite/evaluation.h"

#include <algorithm>

namespace whyq {

namespace {

std::vector<NodeId> Dedup(std::vector<NodeId> v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

// What an evaluation reports for a failed guard: guard m + 1, closeness 0.
// It is also the verdict of one cut short by the cancel token: a cut-short
// answer test or guard count reads "not an answer" or an undercount, which
// could pass as an exclusion or a met guard; the only safe verdict is a
// failed guard. Expiry is sticky, so a token still live after an
// evaluation proves that no poll inside it cut it short.
EvalResult FailedGuard(size_t guard_m) {
  EvalResult r;
  r.guard = guard_m + 1;
  r.guard_ok = false;
  return r;
}

// The share of the tested targets whose answer test reads `hit`: the
// closeness of a rewrite whose tests over V_N (hit = excluded) or V_C
// (hit = included) gave `ok`.
double Share(const std::vector<uint8_t>& ok, bool hit) {
  if (ok.empty()) return 0.0;
  size_t n = 0;
  for (uint8_t o : ok) n += (o != 0) == hit ? 1 : 0;
  return static_cast<double>(n) / static_cast<double>(ok.size());
}

}  // namespace

WhyEvaluator::WhyEvaluator(const Graph& g, std::vector<NodeId> answers,
                           const WhyQuestion& w, size_t guard_m,
                           MatchSemantics semantics,
                           const CancelToken* cancel)
    : g_(g),
      ctx_(std::make_unique<MatchContext>(g)),
      engine_(MakeMatchEngine(*ctx_, semantics)),
      answers_(std::move(answers)),
      unexpected_set_(std::vector<NodeId>{}, g.node_count()),
      guard_m_(guard_m),
      cancel_(cancel) {
  engine_->SetCancelToken(cancel);
  NodeSet answer_set(answers_, g.node_count());
  for (NodeId v : Dedup(w.unexpected)) {
    if (answer_set.Contains(v)) {
      unexpected_.push_back(v);
      unexpected_set_.Insert(v);
    }
  }
  for (NodeId v : answers_) {
    if (!unexpected_set_.Contains(v)) desired_answers_.push_back(v);
  }
}

EvalResult WhyEvaluator::Evaluate(const Query& rewritten) const {
  size_t guard = CountGuard(rewritten);
  if (guard > guard_m_) return FailedGuard(guard_m_);
  return Evaluate(rewritten, guard);
}

EvalResult WhyEvaluator::Evaluate(const Query& rewritten,
                                  size_t known_guard) const {
  EvalResult r;
  r.guard = known_guard;
  if (!unexpected_.empty()) {
    r.closeness = Share(engine_->TestAnswers(rewritten, unexpected_), false);
  }
  return CancelRequested(cancel_) ? FailedGuard(guard_m_) : r;
}

std::optional<size_t> WhyEvaluator::Guard(const Query& rewritten) const {
  size_t guard = CountGuard(rewritten);
  if (guard > guard_m_ || CancelRequested(cancel_)) return std::nullopt;
  return guard;
}

size_t WhyEvaluator::CountGuard(const Query& rewritten) const {
  // Collateral exclusions from the desired answers (batched: one matching
  // plan for the whole sweep), no longer searched once the count is past m.
  return engine_->CountFailures(rewritten, desired_answers_, guard_m_);
}

std::vector<NodeId> WhyEvaluator::AffectedAnswers(
    const Query& rewritten) const {
  std::vector<NodeId> out;
  std::vector<uint8_t> ok = engine_->TestAnswers(rewritten, answers_);
  for (size_t i = 0; i < answers_.size(); ++i) {
    if (!ok[i]) out.push_back(answers_[i]);
  }
  return out;
}

WhyNotEvaluator::WhyNotEvaluator(const Graph& g,
                                 std::vector<NodeId> answers,
                                 const WhyNotQuestion& w, size_t guard_m,
                                 MatchSemantics semantics,
                                 const CancelToken* cancel)
    : g_(g),
      ctx_(std::make_unique<MatchContext>(g)),
      engine_(MakeMatchEngine(*ctx_, semantics)),
      answers_(std::move(answers)),
      protected_set_(answers_, g.node_count()),
      guard_m_(guard_m),
      cancel_(cancel) {
  engine_->SetCancelToken(cancel);
  std::vector<NodeId> missing;
  for (NodeId v : Dedup(w.missing)) {
    if (!protected_set_.Contains(v)) missing.push_back(v);
  }
  missing_ = w.condition.Filter(g, missing, answers_);
  // Every user-named missing entity is exempt from the guard — C narrows
  // which inclusions count toward closeness, but an entity the user asked
  // about is never an "undesired" match.
  for (NodeId v : missing) protected_set_.Insert(v);
}

EvalResult WhyNotEvaluator::Evaluate(const Query& rewritten) const {
  size_t guard = CountGuard(rewritten);
  if (guard > guard_m_) return FailedGuard(guard_m_);
  return Evaluate(rewritten, guard);
}

EvalResult WhyNotEvaluator::Evaluate(const Query& rewritten,
                                     size_t known_guard) const {
  EvalResult r;
  r.guard = known_guard;
  if (!missing_.empty()) {
    r.closeness = Share(engine_->TestAnswers(rewritten, missing_), true);
  }
  return CancelRequested(cancel_) ? FailedGuard(guard_m_) : r;
}

std::optional<size_t> WhyNotEvaluator::Guard(const Query& rewritten) const {
  size_t guard = CountGuard(rewritten);
  if (guard > guard_m_ || CancelRequested(cancel_)) return std::nullopt;
  return guard;
}

size_t WhyNotEvaluator::CountGuard(const Query& rewritten) const {
  return engine_->CountAnswersNotIn(rewritten, protected_set_, guard_m_);
}

std::vector<NodeId> WhyNotEvaluator::NewMatches(
    const Query& rewritten) const {
  std::vector<NodeId> out;
  std::vector<uint8_t> ok = engine_->TestAnswers(rewritten, missing_);
  for (size_t i = 0; i < missing_.size(); ++i) {
    if (ok[i]) out.push_back(missing_[i]);
  }
  return out;
}

}  // namespace whyq
