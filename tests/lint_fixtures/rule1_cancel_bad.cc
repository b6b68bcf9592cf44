// Fixture (never compiled): greedy-round loop that calls the evaluator
// but never polls the CancelToken — linted under a virtual src/why/ path,
// rule "cancel-poll" must flag all three loops.
#include "why/question.h"

namespace whyq {

double GreedyRoundsWithoutPoll(const Evaluator& eval, const Query& q) {
  double best = 0.0;
  while (best < 1.0) {  // BAD: hot loop, no CancelRequested/Expired poll
    EvalResult r = eval.Evaluate(q);
    if (r.closeness <= best) break;
    best = r.closeness;
  }
  for (size_t i = 0; i < 100; ++i) {  // BAD: verification sweep, no poll
    eval.TestAnswers(q, {});
  }
  bool changed = true;
  while (changed) {  // BAD: emptiness probes, no poll
    changed = eval.HasAnyMatch(q);
  }
  return best;
}

}  // namespace whyq
