#ifndef WHYQ_MATCHER_MATCH_CONTEXT_H_
#define WHYQ_MATCHER_MATCH_CONTEXT_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/arena.h"
#include "common/metrics.h"
#include "graph/graph.h"
#include "query/query.h"

namespace whyq {

/// Per-request memo of candidate sets, shared by every matching primitive
/// that runs while answering one Why/Why-not question.
///
/// One question verifies thousands of rewrites Q ⊕ O that differ from Q by
/// a handful of operators, so most query nodes keep their (label, literals)
/// constraint across the whole MBS sweep / greedy gain scan. The context
/// keys each candidate set by that constraint itself — the label plus the
/// literal multiset, typed: each literal compares by attribute, operator
/// and constant (Literal::operator==, ordered by Value::operator<), so
/// literal order never splits entries and only equal constants share one. Lookup hashes the multiset order-independently and compares it
/// against the entry's sorted copy without building anything, so a hit
/// allocates nothing. Each set is materialized once as an ascending NodeId
/// list plus a bitmap over V. Matching then replaces per-attempt
/// IsCandidate calls (attr binary search + literal predicates) with one
/// O(1) bitmap probe, and root enumeration iterates the memoized list
/// instead of the label bucket.
///
/// Refinement deltas: RfL/AddL only shrink cand(u) (Lemma 1), so when a
/// fresh constraint's literals are a strict superset of a cached entry with
/// the same label (std::includes over the sorted literals), the new set is
/// built by filtering that parent's node list with only the extra literals
/// — never by rescanning the label bucket. Entries are never evicted; a
/// context lives for one request and the distinct constraints per request
/// are bounded by the picky-operator universe.
///
/// Thread-safety: none. A MatchContext is mutable per-lookup state and must
/// be confined to one thread/request, exactly like the Matcher and
/// evaluators that borrow it (each parallel executor slot owns its own
/// context via its own evaluator). The Graph it borrows is shared and
/// immutable.
class MatchContext {
 public:
  /// One memoized candidate set: the candidates in ascending NodeId order
  /// (for enumeration) and a bitmap over all of V (for O(1) membership and
  /// word-parallel intersection). Both arrays — and the struct itself —
  /// live in the context's arena; addresses are stable for the lifetime of
  /// the context, so plan steps may cache pointers across recursive search
  /// calls.
  struct CandidateSet {
    const NodeId* nodes = nullptr;
    size_t count = 0;
    const uint64_t* bits = nullptr;  // ceil(|V| / 64) words

    size_t size() const { return count; }
    NodeSpan list() const { return NodeSpan{nodes, count}; }
    const NodeId* begin() const { return nodes; }
    const NodeId* end() const { return nodes + count; }

    bool Test(NodeId v) const {
      return (bits[v >> 6] >> (v & 63)) & uint64_t{1};
    }
    /// One 64-bit block of the membership bitmap (word w covers node ids
    /// [w*64, w*64+63]) — the unit of the matcher's word-parallel AND.
    uint64_t Word(size_t w) const { return bits[w]; }
  };

  /// Cache effectiveness counters, surfaced through MatcherStats and
  /// RequestTrace (see docs/ARCHITECTURE.md "Stats glossary").
  using Stats = CtxCounters;

  explicit MatchContext(const Graph& g);

  MatchContext(const MatchContext&) = delete;
  MatchContext& operator=(const MatchContext&) = delete;

  /// The memoized candidate set of `qn`, built on first use (bucket scan or
  /// delta filter — see class comment). The reference stays valid for the
  /// context's lifetime. A hit allocates nothing.
  const CandidateSet& Lookup(const QueryNode& qn);

  /// Memoizes every node of `q` up front (e.g. right after parsing, while
  /// a request is still in its prepare stage).
  void Prime(const Query& q);

  /// Installs an externally computed candidate list for `qn` (must be the
  /// exact ascending IsCandidate filter of the label bucket — e.g. the
  /// parallel Candidates() result). Counted as a miss: the scan happened,
  /// just not here. No-op when the constraint is already memoized.
  void Seed(const QueryNode& qn, const std::vector<NodeId>& nodes);

  /// Adds to the pruned-attempts counter (called by the matcher when the
  /// bitmap or the memoized root list skips work the context-free path
  /// would have attempted).
  void CountPruned(uint64_t n) { stats_.pruned += n; }

  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = Stats(); }

  const Graph& graph() const { return g_; }
  size_t entry_count() const { return entries_.size(); }

  /// The request-scoped allocator backing every memoized set. Exposed so
  /// the matcher can account arena traffic (ctx_arena_bytes) and co-locate
  /// its own per-plan scratch with the candidate data.
  Arena& arena() { return arena_; }
  const Arena& arena() const { return arena_; }

 private:
  // One memoized constraint: the label and the literal multiset, sorted
  // (attribute, operator, then Value::operator< on the constant).
  struct Entry {
    SymbolId label = kInvalidSymbol;
    std::vector<Literal> lits;
    const CandidateSet* cand = nullptr;  // arena-resident
  };

  // The entry memoizing `qn`'s constraint (whose hash is `hash`), or null.
  const Entry* Find(const QueryNode& qn, uint64_t hash) const;

  // Builds (and memoizes) the set of a constraint not seen before.
  const CandidateSet& Insert(const QueryNode& qn, uint64_t hash);

  // Memoizes `cand` as the set of the constraint (label, sorted_lits).
  const CandidateSet& AddEntry(SymbolId label,
                               std::vector<Literal> sorted_lits,
                               uint64_t hash, const CandidateSet* cand);

  // Freezes `nodes` (ascending) into an arena-resident CandidateSet with
  // its membership bitmap.
  const CandidateSet* Freeze(const std::vector<NodeId>& nodes);

  const Graph& g_;
  size_t words_ = 0;  // bitmap words per set: ceil(|V| / 64)
  Arena arena_;       // owns every CandidateSet payload
  std::vector<NodeId> scratch_;  // build-time node list, reused per Insert
  std::vector<Entry> entries_;  // insertion order (delta tie-break)
  std::unordered_multimap<uint64_t, size_t> index_;  // hash -> entry
  Stats stats_;
};

}  // namespace whyq

#endif  // WHYQ_MATCHER_MATCH_CONTEXT_H_
