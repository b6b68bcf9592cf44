#ifndef WHYQ_MATCHER_MATCH_ENGINE_H_
#define WHYQ_MATCHER_MATCH_ENGINE_H_

#include <memory>
#include <vector>

#include "common/cancel.h"
#include "graph/graph.h"
#include "graph/neighborhood.h"
#include "matcher/match_context.h"
#include "query/query.h"

namespace whyq {

/// Query-answer semantics the Why-machinery can run on (Section V
/// "Extensions": the algorithms "readily extend to ... subgraph queries
/// defined by approximate pattern matching").
enum class MatchSemantics {
  kIsomorphism,  // Section II default: injective subgraph isomorphism
  kSimulation,   // dual graph simulation (polynomial-time, approximate)
};

const char* MatchSemanticsName(MatchSemantics s);

/// The evaluation primitives the rewriting algorithms need, abstracted
/// over the matching semantics. Lemma 1 (relaxation grows / refinement
/// shrinks answers) holds for both implementations, which is the property
/// the guard-aware enumeration and Aff()-based estimation rely on.
///
/// Thread-safety: engines carry per-instance mutable state (matcher stats,
/// the simulation engine's one-entry answer cache) and are one-per-request
/// objects; only the Graph behind them is shared.
class MatchEngine {
 public:
  virtual ~MatchEngine() = default;

  /// Arms cooperative cancellation for subsequent calls (token not owned;
  /// null disarms). An expired token makes the primitives return partial
  /// results instead of blocking; callers must not trust a result that
  /// ends with the token expired (the evaluators report a failed guard).
  virtual void SetCancelToken(const CancelToken* t) = 0;

  /// The answer Q(u_o, G) under this engine's semantics.
  virtual std::vector<NodeId> MatchOutput(const Query& q) const = 0;

  /// Is v in the answer? (Incremental where the semantics allow.)
  virtual bool IsAnswer(const Query& q, NodeId v) const = 0;

  virtual bool HasAnyMatch(const Query& q) const = 0;

  /// Counts answers outside `exclude`, stopping past `limit` (returns
  /// limit + 1 then) — the early-terminating guard primitive.
  virtual size_t CountAnswersNotIn(const Query& q, const NodeSet& exclude,
                                   size_t limit) const = 0;

  /// Batch IsAnswer: one flag per node, answered from one plan (or one
  /// fixpoint) for the whole batch.
  virtual std::vector<uint8_t> TestAnswers(
      const Query& q, const std::vector<NodeId>& nodes) const = 0;

  /// How many of `nodes` are not answers, stopping past `limit` (returns
  /// limit + 1 then) — the Why guard's early-terminating batch test. One
  /// plan (or one fixpoint) serves the batch; the isomorphism engine stops
  /// searching at the (limit + 1)-th failure. As with TestAnswers, a count
  /// cut short by the cancel token must not be trusted.
  virtual size_t CountFailures(const Query& q, const std::vector<NodeId>& nodes,
                               size_t limit) const = 0;

  /// Promises that every later query refines `base` (see
  /// RefinementSimulation in matcher/simulation.h: RfL, AddL and AddE only,
  /// node ids and output kept), as every rewrite of a Why search does. The
  /// simulation engine then runs base's fixpoint once, here, and answers
  /// each later refinement as a counted delta of that relation; a query
  /// not shaped as a refinement still runs cold. If the cancel token has
  /// already expired, no base is installed and every query runs cold. The
  /// isomorphism engine ignores the promise. Answers are unchanged as long
  /// as it holds.
  virtual void AssumeRefinementsOf(const Query& base) = 0;
};

/// Factory. The returned engine borrows `ctx` (not owned; must outlive the
/// engine) and matches over its graph: the memoized candidate sets serve
/// every call — the isomorphism engine's plans and root lists, and the
/// simulation engine's fixpoint seeds (on top of its one-entry answer
/// cache). Like the engine itself, the context is single-thread state.
std::unique_ptr<MatchEngine> MakeMatchEngine(MatchContext& ctx,
                                             MatchSemantics semantics);

}  // namespace whyq

#endif  // WHYQ_MATCHER_MATCH_ENGINE_H_
