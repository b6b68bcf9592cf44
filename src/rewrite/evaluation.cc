#include "rewrite/evaluation.h"

#include <algorithm>

namespace whyq {

namespace {

std::vector<NodeId> Dedup(std::vector<NodeId> v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

// What an evaluation cut short by the cancel token reports. A cut-short
// answer test or guard count reads "not an answer" or an undercount, which
// could pass as an exclusion or a met guard; the only safe verdict is a
// failed guard. Expiry is sticky, so a token still live after an
// evaluation proves that no poll inside it cut it short.
EvalResult CutShort(size_t guard_m) {
  EvalResult r;
  r.guard = guard_m + 1;
  r.guard_ok = false;
  return r;
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
  EvalResult r = EvaluateUncut(rewritten);
  return CancelRequested(cancel_) ? CutShort(guard_m_) : r;
}

EvalResult WhyEvaluator::EvaluateUncut(const Query& rewritten) const {
  EvalResult r;
  // Guard first: collateral exclusions from the desired answers (batched:
  // one matching plan for the whole sweep).
  std::vector<uint8_t> desired_ok =
      engine_->TestAnswers(rewritten, desired_answers_);
  for (uint8_t ok : desired_ok) {
    if (!ok && ++r.guard > guard_m_) {
      r.guard_ok = false;
      return r;
    }
  }
  if (unexpected_.empty()) return r;
  std::vector<uint8_t> unexpected_ok =
      engine_->TestAnswers(rewritten, unexpected_);
  size_t excluded = 0;
  for (uint8_t ok : unexpected_ok) excluded += ok ? 0 : 1;
  r.closeness = static_cast<double>(excluded) /
                static_cast<double>(unexpected_.size());
  return r;
}

bool WhyEvaluator::GuardOk(const Query& rewritten) const {
  size_t guard = 0;
  std::vector<uint8_t> ok = engine_->TestAnswers(rewritten, desired_answers_);
  for (uint8_t o : ok) {
    if (!o && ++guard > guard_m_) return false;
  }
  return !CancelRequested(cancel_);
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
  EvalResult r = EvaluateUncut(rewritten);
  return CancelRequested(cancel_) ? CutShort(guard_m_) : r;
}

EvalResult WhyNotEvaluator::EvaluateUncut(const Query& rewritten) const {
  EvalResult r;
  r.guard = engine_->CountAnswersNotIn(rewritten, protected_set_, guard_m_);
  if (r.guard > guard_m_) {
    r.guard_ok = false;
    return r;
  }
  if (missing_.empty()) return r;
  std::vector<uint8_t> ok = engine_->TestAnswers(rewritten, missing_);
  size_t included = 0;
  for (uint8_t o : ok) included += o ? 1 : 0;
  r.closeness =
      static_cast<double>(included) / static_cast<double>(missing_.size());
  return r;
}

bool WhyNotEvaluator::GuardOk(const Query& rewritten) const {
  return engine_->CountAnswersNotIn(rewritten, protected_set_, guard_m_) <=
             guard_m_ &&
         !CancelRequested(cancel_);
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
