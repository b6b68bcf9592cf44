#ifndef WHYQ_MATCHER_PATH_INDEX_H_
#define WHYQ_MATCHER_PATH_INDEX_H_

#include <cstddef>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "matcher/match_context.h"
#include "query/query.h"

namespace whyq {

/// A sampled path index over a query Q (the estimation backbone of the
/// paper's EstMatch): a bounded number of simple paths of Q starting at the
/// output node. A data node v "passes the path tests" for a rewrite Q' of Q
/// when v is a candidate of the output node under Q' and, for every indexed
/// path, some walk from v realizes the path's edge labels/directions with
/// every visited node a candidate of the corresponding Q' node.
///
/// Passing is necessary-but-not-sufficient for being an answer (paths drop
/// injectivity and branching constraints), which is exactly the estimation
/// error epsilon the approximation guarantee is stated against.
///
/// The index is built once from Q and then evaluated against rewrites Q⊕O,
/// relying on rewrites preserving query-node ids (rewrite application only
/// appends nodes). Steps whose query edge was removed by the rewrite (RmE)
/// terminate their path early — the tail is no longer connected through
/// this path, so it constrains nothing.
///
/// Thread-safety: immutable after construction, shared across workers,
/// so one index (e.g. from the service's prepared-question cache) may be
/// probed by many workers concurrently. Probing goes through a Probe, the
/// per-rewrite binding that lives on the caller's stack: it caches each
/// query node's candidate set and each path's live prefix for one rewrite,
/// and it holds the caller's MatchContext (single-threaded request state)
/// when one is given. A Probe is therefore confined to one thread and one
/// rewrite; concurrent probes each bind their own (their executor slot's)
/// context, or nullptr.
class PathIndex {
 public:
  struct Step {
    QNodeId from = kInvalidQNode;
    QNodeId to = kInvalidQNode;
    SymbolId edge_label = kInvalidSymbol;
    bool forward = true;  // true: (from -> to) in Q; false: (to -> from)
  };

  /// Builds the index with at most `max_paths` maximal simple paths,
  /// enumerated deterministically (DFS over undirected query edges).
  PathIndex(const Query& q, size_t max_paths);

  /// Rebuilds an index from previously sampled steps — the plan-store load
  /// path (service/plan.cc), which deserializes the exact paths a prior
  /// process enumerated so a loaded plan probes identically to the build it
  /// caches. The caller is responsible for having validated every step's
  /// query-node ids against the query the index will be probed with.
  static PathIndex FromPaths(std::vector<std::vector<Step>> paths);

  /// The path tests of one rewrite Q' = `rewritten`, bound once and run
  /// against any number of data nodes. With a context, each query node's
  /// candidate set is fetched from it at most once per probe (at the
  /// node's first test) and every test is an O(1) bitmap probe; without
  /// one (nullptr), each test evaluates the literals. Each path's live
  /// prefix (the steps whose query edge survives the rewrite) is found
  /// once, at construction. Verdicts are identical with or without a
  /// context. The index, graph, query and context must outlive the probe.
  class Probe {
   public:
    Probe(const PathIndex& idx, const Graph& g, const Query& rewritten,
          MatchContext* ctx);

    /// Path test of v (see class comment).
    bool Passes(NodeId v);

    /// Partial credit: the fraction of checks v passes — the output-node
    /// candidate test plus each indexed path, all weighted equally. 1.0
    /// iff Passes(). Greedy selection uses this to rank operators that
    /// make progress toward a match (or a non-match) even when no single
    /// operator flips the full test (zero-marginal-gain bootstrapping; see
    /// DESIGN.md).
    double PassFraction(NodeId v);

    const Graph& graph() const { return g_; }
    const Query& query() const { return rw_; }

   private:
    bool IsCand(QNodeId u, NodeId v);
    bool WalkMatches(const std::vector<Step>& path, size_t live, size_t pos,
                     NodeId at);

    const PathIndex& idx_;
    const Graph& g_;
    const Query& rw_;
    MatchContext* ctx_;
    // Per query node of `rw_`: its memoized set, fetched on first use
    // (only with a context).
    std::vector<const MatchContext::CandidateSet*> cand_;
    std::vector<size_t> live_;  // per path: length of its live prefix
  };

  /// One-off path test of v against `rewritten` without a context — a
  /// Probe bound for this single call. Loops over many nodes of one
  /// rewrite bind a Probe once instead.
  bool Passes(const Graph& g, const Query& rewritten, NodeId v) const {
    return Probe(*this, g, rewritten, nullptr).Passes(v);
  }
  double PassFraction(const Graph& g, const Query& rewritten,
                      NodeId v) const {
    return Probe(*this, g, rewritten, nullptr).PassFraction(v);
  }

  size_t path_count() const { return paths_.size(); }
  const std::vector<std::vector<Step>>& paths() const { return paths_; }

  /// Debug rendering of the indexed paths.
  std::string ToString(const Graph& g) const;

 private:
  PathIndex() = default;  // FromPaths

  std::vector<std::vector<Step>> paths_;
};

}  // namespace whyq

#endif  // WHYQ_MATCHER_PATH_INDEX_H_
