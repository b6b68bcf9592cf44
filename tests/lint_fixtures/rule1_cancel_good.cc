// Fixture (never compiled): the same greedy-round shape as
// rule1_cancel_bad.cc but every hot loop polls the CancelToken — rule
// "cancel-poll" must stay silent.
#include "why/question.h"

namespace whyq {

double GreedyRoundsWithPoll(const Evaluator& eval, const Query& q,
                            const CancelToken* cancel) {
  double best = 0.0;
  while (best < 1.0) {
    if (CancelRequested(cancel)) break;  // OK: polled every round
    EvalResult r = eval.Evaluate(q);
    if (r.closeness <= best) break;
    best = r.closeness;
  }
  for (size_t i = 0; i < 100; ++i) {
    if (cancel != nullptr && cancel->Expired()) break;  // OK
    eval.TestAnswers(q, {});
  }
  bool changed = true;
  while (changed && !CancelRequested(cancel)) {  // OK
    changed = eval.HasAnyMatch(q);
  }
  // A loop with no evaluator work needs no poll.
  for (size_t i = 0; i < 100; ++i) {
    best += 0.0;
  }
  return best;
}

}  // namespace whyq
