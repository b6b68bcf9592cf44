#ifndef WHYQ_SERVICE_PREPARED_H_
#define WHYQ_SERVICE_PREPARED_H_

#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/mutex.h"
#include "graph/update.h"
#include "matcher/match_engine.h"
#include "matcher/path_index.h"
#include "query/query.h"

namespace whyq {

class CancelToken;

/// The symbol sets `q`'s cached artifacts depend on: its node labels, edge
/// labels, and literal attributes. Answers and output candidates are
/// derived from label buckets, labeled adjacency and literal evaluation
/// over exactly these symbols; PathIndex samples are built from the query
/// alone. An update whose delta is disjoint from this footprint therefore
/// cannot change any cached artifact — the soundness argument behind
/// PreparedQueryCache::ApplyDelta's precise invalidation.
SymbolFootprint FootprintOfQuery(const Query& q);

/// Per-(query, semantics) artifacts every question over that query needs:
/// the parsed query, its answer set Q(u_o, G), the output node's candidate
/// set, and the sampled PathIndex (the estimation backbone). Building these
/// is the dominant fixed cost of a request — the answer match scans every
/// output-label node — so repeated questions over the same query share one
/// immutable PreparedQuery through the service's LRU cache.
///
/// Thread-safety: immutable after construction; shared across workers via
/// shared_ptr<const PreparedQuery>.
struct PreparedQuery {
  Query query;
  MatchSemantics semantics = MatchSemantics::kIsomorphism;
  std::vector<NodeId> answers;            // Q(u_o, G) under `semantics`
  std::vector<NodeId> output_candidates;  // label+literal candidates of u_o
  PathIndex path_index;
  SymbolFootprint footprint;  // symbols the artifacts depend on (see below)

  PreparedQuery(Query q, MatchSemantics s, size_t max_paths)
      : query(std::move(q)),
        semantics(s),
        path_index(query, max_paths),
        footprint(FootprintOfQuery(query)) {}

  /// Artifact-loading constructor (service/plan.cc): every field was
  /// deserialized from a validated CompiledPlan instead of being built.
  PreparedQuery(Query q, MatchSemantics s, std::vector<NodeId> answers_in,
                std::vector<NodeId> candidates, PathIndex index,
                SymbolFootprint fp)
      : query(std::move(q)),
        semantics(s),
        answers(std::move(answers_in)),
        output_candidates(std::move(candidates)),
        path_index(std::move(index)),
        footprint(std::move(fp)) {}
};

/// The `g=<identity>@<generation>|` key prefix naming one graph epoch.
/// Folding it into every cache key makes stale hits structurally
/// impossible: an updated (or merely different) graph never produces the
/// key an older epoch's entry was stored under.
std::string GraphEpochPrefix(const Graph& g);

/// The epoch-free part of a cache key: the semantics, the path-index size,
/// and the query's canonical serialized form (`canonical_text` must be the
/// WriteQuery serialization). This is what survives a graph epoch change —
/// ApplyDelta rekeys by swapping the prefix around an unchanged body — and
/// what the plan store content-addresses files by (paired with the graph
/// fingerprint; see service/plan.h).
std::string PreparedQueryKeyBody(MatchSemantics semantics, size_t max_paths,
                                 const std::string& canonical_text);

/// Cache key: the graph epoch prefix, then the semantics, the path-index
/// size, and the query's canonical serialized form — two textual spellings
/// of the same query share an entry; requests tuned differently, or aimed
/// at a different graph (or epoch of one), do not.
std::string PreparedQueryKey(const Query& q, const Graph& g,
                             MatchSemantics semantics, size_t max_paths);

/// Builds the artifacts. `cancel` (nullable) clips the answer match; a
/// clipped build is still usable for its own request (best-so-far) but must
/// NOT be cached — `complete` reports whether the build ran to the end.
/// The build is serial on the calling worker; `threads` is unused and
/// stays only so existing callers compile. `trace` (nullable) receives
/// the build's sub-stage timings (path_index_ms / candidates_ms /
/// answer_match_ms) and the output-candidate count.
std::shared_ptr<const PreparedQuery> PrepareQuery(const Graph& g, Query q,
                                                  MatchSemantics semantics,
                                                  size_t max_paths,
                                                  const CancelToken* cancel,
                                                  bool* complete,
                                                  size_t threads = 1,
                                                  RequestTrace* trace = nullptr);

/// Thread-safe LRU map key -> shared_ptr<const PreparedQuery>. Eviction
/// only drops the cache's reference; in-flight requests keep theirs.
class PreparedQueryCache {
 public:
  explicit PreparedQueryCache(size_t capacity) : capacity_(capacity) {}

  /// Returns the entry (refreshing its recency) or nullptr.
  std::shared_ptr<const PreparedQuery> Get(const std::string& key)
      WHYQ_EXCLUDES(mu_);

  /// Inserts/refreshes `value`, evicting the least-recently-used entry
  /// beyond capacity. A capacity of 0 disables caching.
  void Put(const std::string& key, std::shared_ptr<const PreparedQuery> value)
      WHYQ_EXCLUDES(mu_);

  size_t size() const WHYQ_EXCLUDES(mu_);

  /// Outcome of one ApplyDelta pass over the old epoch's entries. The
  /// `*_bodies` vectors carry each verdict's epoch-free key body
  /// (PreparedQueryKeyBody) so the caller can mirror the same drop/restamp
  /// decisions onto persisted plan files (PlanStore::OnUpdate).
  struct DeltaOutcome {
    size_t invalidated = 0;  // dropped: footprint intersected the delta
    size_t rekeyed = 0;      // carried to the new epoch: provably unaffected
    std::vector<std::string> dropped_bodies;
    std::vector<std::string> rekeyed_bodies;
  };

  /// Precise invalidation after a graph update: every entry keyed under
  /// `old_prefix` either intersects `delta` with its footprint (dropped) or
  /// provably kept its answers (rekeyed under `new_prefix`, artifacts —
  /// including the query-only PathIndex samples — reused verbatim, no
  /// re-preparation and no re-sampling). Rekeying mutates each list node in
  /// place, so a carried entry keeps its exact LRU recency relative to
  /// every other entry — an update never perturbs eviction order. Entries
  /// of other graphs are untouched.
  DeltaOutcome ApplyDelta(const std::string& old_prefix,
                          const std::string& new_prefix,
                          const UpdateDelta& delta) WHYQ_EXCLUDES(mu_);

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const PreparedQuery> value;
  };

  /// Evicts least-recently-used entries until size() <= capacity_ — the
  /// tail of every insertion path. Caller holds mu_.
  void EvictOverCapacityLocked() WHYQ_REQUIRES(mu_);

  const size_t capacity_;
  mutable Mutex mu_;
  std::list<Entry> lru_ WHYQ_GUARDED_BY(mu_);  // front = most recent
  std::unordered_map<std::string, std::list<Entry>::iterator> index_
      WHYQ_GUARDED_BY(mu_);
};

}  // namespace whyq

#endif  // WHYQ_SERVICE_PREPARED_H_
