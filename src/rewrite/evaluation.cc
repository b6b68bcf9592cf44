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

}  // namespace

RewriteEvaluator::RewriteEvaluator(const Graph& g,
                                   std::vector<NodeId> answers,
                                   size_t guard_m, MatchSemantics semantics,
                                   const CancelToken* cancel, bool hit)
    : ctx_(std::make_unique<MatchContext>(g)),
      engine_(MakeMatchEngine(*ctx_, semantics)),
      answers_(std::move(answers)),
      guard_m_(guard_m),
      cancel_(cancel),
      hit_(hit) {
  engine_->SetCancelToken(cancel);
}

EvalResult RewriteEvaluator::Evaluate(const Query& rewritten) const {
  size_t guard = CountGuard(rewritten);
  if (guard > guard_m_) return FailedGuard(guard_m_);
  return Evaluate(rewritten, guard);
}

EvalResult RewriteEvaluator::Evaluate(const Query& rewritten,
                                      size_t known_guard) const {
  EvalResult r;
  r.guard = known_guard;
  if (!targets_.empty()) {
    size_t changed = Select(rewritten, targets_, hit_).size();
    r.closeness = static_cast<double>(changed) /
                  static_cast<double>(targets_.size());
  }
  return CancelRequested(cancel_) ? FailedGuard(guard_m_) : r;
}

std::optional<size_t> RewriteEvaluator::Guard(const Query& rewritten) const {
  size_t guard = CountGuard(rewritten);
  if (guard > guard_m_ || CancelRequested(cancel_)) return std::nullopt;
  return guard;
}

std::vector<NodeId> RewriteEvaluator::Select(const Query& rewritten,
                                             const std::vector<NodeId>& nodes,
                                             bool hit) const {
  std::vector<NodeId> out;
  std::vector<uint8_t> ok = engine_->TestAnswers(rewritten, nodes);
  for (size_t i = 0; i < nodes.size(); ++i) {
    if ((ok[i] != 0) == hit) out.push_back(nodes[i]);
  }
  return out;
}

WhyEvaluator::WhyEvaluator(const Graph& g, std::vector<NodeId> answers,
                           const WhyQuestion& w, size_t guard_m,
                           MatchSemantics semantics,
                           const CancelToken* cancel)
    : RewriteEvaluator(g, std::move(answers), guard_m, semantics, cancel,
                       /*hit=*/false) {
  NodeSet answer_set(answers_, g.node_count());
  for (NodeId v : Dedup(w.unexpected)) {
    if (answer_set.Contains(v)) targets_.push_back(v);
  }
  for (NodeId v : answers_) {
    if (!IsUnexpected(v)) desired_.push_back(v);
  }
}

size_t WhyEvaluator::CountGuard(const Query& rewritten) const {
  // Collateral exclusions from the desired answers (batched: one matching
  // plan for the whole sweep), no longer searched once the count is past m.
  return engine_->CountFailures(rewritten, desired_, guard_m_);
}

WhyNotEvaluator::WhyNotEvaluator(const Graph& g,
                                 std::vector<NodeId> answers,
                                 const WhyNotQuestion& w, size_t guard_m,
                                 MatchSemantics semantics,
                                 const CancelToken* cancel)
    : RewriteEvaluator(g, std::move(answers), guard_m, semantics, cancel,
                       /*hit=*/true),
      protected_set_(answers_, g.node_count()) {
  std::vector<NodeId> missing;
  for (NodeId v : Dedup(w.missing)) {
    if (!protected_set_.Contains(v)) missing.push_back(v);
  }
  targets_ = w.condition.Filter(g, missing, answers_);
  // Every user-named missing entity is exempt from the guard — C narrows
  // which inclusions count toward closeness, but an entity the user asked
  // about is never an "undesired" match.
  for (NodeId v : missing) protected_set_.Insert(v);
}

size_t WhyNotEvaluator::CountGuard(const Query& rewritten) const {
  return engine_->CountAnswersNotIn(rewritten, protected_set_, guard_m_);
}

}  // namespace whyq
