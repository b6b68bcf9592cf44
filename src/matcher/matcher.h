#ifndef WHYQ_MATCHER_MATCHER_H_
#define WHYQ_MATCHER_MATCHER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/cancel.h"
#include "graph/graph.h"
#include "graph/neighborhood.h"
#include "matcher/match_context.h"
#include "query/query.h"

namespace whyq {

/// Cumulative matcher counters, exposed for the efficiency experiments.
/// The ctx_* fields mirror the matcher's MatchContext's cache counters.
struct MatcherStats {
  uint64_t embeddings_tried = 0;  // backtracking extensions attempted
  uint64_t iso_tests = 0;         // IsAnswer-style verifications performed
  WHYQ_CTX_COUNTERS(WHYQ_STATS_CTX_U64)
  uint64_t ctx_arena_bytes = 0;  // bytes bump-allocated by the context

  /// Adds one context's candidate-memo counters onto the ctx_* members.
  void AddCtx(const CtxCounters& o) {
    WHYQ_CTX_COUNTERS(WHYQ_STATS_ADD_FROM_CTX)
  }
};

/// Subgraph-isomorphism engine over one data graph.
///
/// Semantics (Section II): a match is an injective, label-preserving mapping
/// h of the query's nodes to data nodes such that every query node maps to a
/// candidate (label + literals) and every labeled query edge maps to a data
/// edge. The *answer* Q(u_o, G) is the set of images of the output node over
/// all matches.
///
/// Disconnected queries (possible after RmE rewrites) are evaluated on the
/// connected component of the output node only — the paper's Match does the
/// same and proves Q'_{u_o}(u_o,G) = Q'(u_o,G).
///
/// Every search runs over a MatchContext (matcher/match_context.h): plans
/// resolve each query node's memoized candidate set once, roots enumerate
/// its ascending list, and each extension attempt is an O(1) bitmap probe.
/// The matcher either borrows the caller's context, so the memo spans every
/// rewrite of one question, or owns a fresh one. One Matcher may be reused
/// across many (rewritten) queries against the same graph.
///
/// Thread-safety: a Matcher instance carries per-instance mutable state
/// (stats, cancellation latch, its context) and must be confined to one
/// thread/request. The shared, immutable Graph behind it may back any
/// number of Matchers concurrently.
class Matcher {
 public:
  /// Owns a fresh context over `g` — for one-off matches.
  explicit Matcher(const Graph& g);
  /// Borrows `ctx` (not owned; must outlive the matcher, and like the
  /// matcher is single-thread state) and matches over its graph.
  explicit Matcher(MatchContext& ctx);

  /// Arms cooperative cancellation (token not owned; may be null to
  /// disarm). Polled every few hundred extension attempts and once per
  /// output candidate; when it expires, the current search unwinds and the
  /// enumeration APIs return whatever was found so far. Resets the sticky
  /// latch, so a Matcher may be re-armed across requests.
  void set_cancel_token(const CancelToken* t) {
    cancel_ = t;
    cancel_hit_ = false;
  }

  /// True when an armed token expired during (or before) the last search —
  /// the caller's signal that results are partial.
  bool cancelled() const { return cancel_hit_; }

  /// The candidate memo every search runs over (borrowed or owned).
  MatchContext& context() const { return ctx_; }

  /// Computes the full answer Q(u_o, G).
  std::vector<NodeId> MatchOutput(const Query& q) const;

  /// Incremental verification: is data node v an answer (i.e., is there an
  /// embedding mapping the output node to v)? Early-terminates on the first
  /// embedding found.
  bool IsAnswer(const Query& q, NodeId v) const;

  /// Batch verification: one flag per node of `nodes`. Equivalent to
  /// calling IsAnswer per node but builds the matching plan once — the
  /// evaluators' answer sweeps are hot paths.
  std::vector<uint8_t> TestAnswers(const Query& q,
                                   const std::vector<NodeId>& nodes) const;

  /// How many of `nodes` are not answers, stopping past `limit` (returns
  /// limit + 1 then, and also when the token expires during the batch).
  /// Builds the plan once, like TestAnswers, and searches no node after the
  /// (limit + 1)-th failure.
  size_t CountFailures(const Query& q, const std::vector<NodeId>& nodes,
                       size_t limit) const;

  /// Does the query have at least one match at all?
  bool HasAnyMatch(const Query& q) const;

  /// Counts answers of q that are NOT in `exclude`, stopping as soon as the
  /// count exceeds `limit` (returns limit+1 in that case). This implements
  /// the early-terminating guard check for Why-not rewrites.
  size_t CountAnswersNotIn(const Query& q, const NodeSet& exclude,
                           size_t limit) const;

  /// Snapshot of the work counters. ctx_* fields reflect the context's
  /// whole lifetime (a context may serve several matchers);
  /// ResetStats clears only the matcher-local counters.
  MatcherStats stats() const;
  void ResetStats() { stats_ = MatcherStats(); }

 private:
  // One step of the matching plan: query node `u` is matched at position
  // `pos`; `anchor_*` describe the tree edge used to generate candidates
  // (from the already-matched anchor node), and `checks` are the remaining
  // backward edges to verify.
  struct PlanStep {
    QNodeId u = kInvalidQNode;
    // Candidate generation: follow this edge from the matched anchor.
    // anchor_pos == SIZE_MAX for the root (candidates from label index).
    size_t anchor_pos = SIZE_MAX;
    SymbolId anchor_label = kInvalidSymbol;
    bool anchor_forward = true;  // true: anchor -> u edge; false: u -> anchor
    // Backward constraint edges (src/dst already matched at these steps).
    struct Check {
      size_t other_pos;
      SymbolId label;
      bool forward;  // true: u -> other; false: other -> u
    };
    std::vector<Check> checks;
    // Memoized candidate set of `u`; stable address for the context's
    // lifetime.
    const MatchContext::CandidateSet* cand = nullptr;
  };

  // Builds a matching order (BFS from the output node) over the output's
  // component.
  std::vector<PlanStep> BuildPlan(const Query& q) const;

  // Backtracking search with h(root) = v fixed. Returns true if an
  // embedding exists.
  bool SearchFrom(const std::vector<PlanStep>& plan, NodeId v) const;

  bool Extend(const std::vector<PlanStep>& plan, size_t pos,
              std::vector<NodeId>& assignment) const;

  // Periodic cancellation poll (every 256 extension attempts). Once true it
  // latches, so the backtracking stack unwinds without further clock reads.
  bool CancelledNow() const {
    if (cancel_hit_) return true;
    if (cancel_ != nullptr && (stats_.embeddings_tried & 255) == 0 &&
        cancel_->Expired()) {
      cancel_hit_ = true;
    }
    return cancel_hit_;
  }

  // Root candidates of a plan: the memoized list minus the roots that some
  // root-adjacent step's support bitmap lacks, ascending, with the
  // label-bucket nodes skipped accounted as pruned. The span is valid until
  // the next call.
  NodeSpan RootCandidates(const Query& q,
                          const std::vector<PlanStep>& plan) const;

  std::unique_ptr<MatchContext> owned_ctx_;  // set by Matcher(const Graph&)
  MatchContext& ctx_;  // *owned_ctx_ or the borrowed context
  const Graph& g_;
  mutable MatcherStats stats_;
  // Assignment scratch reused across SearchFrom calls (capacity persists,
  // so per-root allocations vanish on the hot verification sweeps). Part
  // of the per-instance mutable state covered by the thread-confinement
  // contract above.
  mutable std::vector<NodeId> assignment_;
  // True when assignment_ may hold stale entries (a successful embedding
  // returns without unwinding); SearchFrom then refills before reuse.
  // Failed searches restore every slot, so the refill is skipped on the
  // dominant reject path.
  mutable bool assignment_dirty_ = true;
  // RootCandidates scratch: the root words ANDed with the supports, and the
  // surviving roots read off them.
  mutable std::vector<uint64_t> root_words_;
  mutable std::vector<NodeId> roots_;
  const CancelToken* cancel_ = nullptr;
  mutable bool cancel_hit_ = false;
};

}  // namespace whyq

#endif  // WHYQ_MATCHER_MATCHER_H_
