#ifndef WHYQ_WHY_QUESTION_H_
#define WHYQ_WHY_QUESTION_H_

#include <string>
#include <vector>

#include "common/cancel.h"
#include "graph/graph.h"
#include "matcher/match_engine.h"
#include "query/query.h"

namespace whyq {

class PathIndex;

/// One literal of a Why-not selection condition C (Section III-A). Either
/// unary (`x.A op c`, constraining a missing entity directly) or binary
/// (`x.A op y.A'`, relating a missing entity to some entity of
/// V_C ∪ Q(u_o,G) under existential semantics).
struct ConstraintLiteral {
  bool binary = false;
  SymbolId attr = kInvalidSymbol;        // x.A
  CompareOp op = CompareOp::kEq;
  Value constant;                        // unary: c
  SymbolId other_attr = kInvalidSymbol;  // binary: y.A'

  std::string ToString(const Graph& g) const;
};

/// Conjunction C = ∧ l of constraint literals; empty C accepts everything.
struct Constraint {
  std::vector<ConstraintLiteral> literals;

  bool empty() const { return literals.empty(); }

  /// Does node x satisfy C? Binary literals quantify existentially over
  /// `others` \ {x}.
  bool Satisfies(const Graph& g, NodeId x,
                 const std::vector<NodeId>& others) const;

  /// Filters `candidates` down to the nodes satisfying C against
  /// `candidates ∪ answers`.
  std::vector<NodeId> Filter(const Graph& g,
                             const std::vector<NodeId>& candidates,
                             const std::vector<NodeId>& answers) const;

  std::string ToString(const Graph& g) const;
};

/// A Why question (u_o, V_N): why are these unexpected entities answers?
struct WhyQuestion {
  std::vector<NodeId> unexpected;  // V_N ⊆ Q(u_o, G)
};

/// A Why-not question (u_o, V_C, C): why are these entities missing?
struct WhyNotQuestion {
  std::vector<NodeId> missing;  // V_C ⊆ V \ Q(u_o, G)
  Constraint condition;         // C (possibly empty)
};

/// Common tuning knobs shared by all answering algorithms.
struct AnswerConfig {
  double budget = 4.0;       // editing budget B
  MatchSemantics semantics =
      MatchSemantics::kIsomorphism;  // answer semantics (Section V ext.)
  size_t guard_m = 2;        // guard condition bound m
  bool weighted_cost = true; // value-difference-weighted RxL/RfL cost
  size_t max_picky_ops = 192;      // cap on the generated picky set
  size_t max_mbs = 200000;         // cap on enumerated maximal bounded sets
  double exact_time_limit_ms = 0;  // wall-clock cap for exact enumeration
                                   // (0 = unlimited); hitting it clears
                                   // RewriteAnswer::exhaustive
  size_t path_index_paths = 8;     // sampled paths for EstMatch
  size_t est_guard_scan = 2000;    // candidate scan cap for estimated guards
  bool minimize_cost = true;       // exact post-processing (minimal MBS)

  /// Intra-question parallelism width. 0 = unset (the host decides: the CLI
  /// and plain library calls stay serial, the service substitutes its
  /// ServiceConfig::intra_threads); 1 = explicitly serial; N > 1 = verify
  /// MBS candidates / score greedy gains on up to N executors of
  /// ThreadPool::Shared() (capped at its worker count + 1). Parallel runs
  /// produce byte-identical answers to threads == 1 — see the exact driver
  /// in why/why_algorithms.cc for the determinism contract.
  size_t threads = 0;

  /// Cooperative cancellation/deadline (not owned; may be null). Polled in
  /// the matcher search, the MBS enumeration, and the greedy selection
  /// loops; an expired token makes the algorithms return their best-so-far
  /// rewrite with RewriteAnswer::exhaustive cleared (-> truncated).
  const CancelToken* cancel = nullptr;

  /// Prebuilt estimation backbone for the *original* query (not owned; may
  /// be null). When set, the greedy algorithms use it instead of sampling a
  /// fresh PathIndex(q, path_index_paths) — the service's prepared-question
  /// cache shares one immutable index across repeated questions. Must have
  /// been built from the same query `q` the algorithm is invoked with.
  const PathIndex* path_index = nullptr;
};

}  // namespace whyq

#endif  // WHYQ_WHY_QUESTION_H_
