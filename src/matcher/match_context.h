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
/// literal order never splits entries and only equal constants share one.
/// Lookup hashes the multiset order-independently and compares it against
/// the entry's sorted copy without building anything, so a hit allocates
/// nothing. Each set is materialized once as an ascending NodeId list plus
/// a bitmap over V. Every matching primitive (Matcher, MatchEngine,
/// DualSimulation, PathIndex::Probe) runs over a context: a candidacy test
/// is one O(1) bitmap probe, not an attr binary search plus literal
/// predicates, and root enumeration iterates the memoized list instead of
/// the label bucket.
///
/// Literal memo: a constraint not seen before is built as the word AND of
/// one bitmap per literal (label, attr, op, constant). Each literal bitmap
/// is memoized too, built once by one pass over the epoch's typed column of
/// (label, attr) (Graph::AttrColumnOf: a kind byte and a 64-bit payload per
/// bucket position, strings as ranks), with a loop typed for the column's
/// kind, and covers only the bucket's word span. The rewrites of one
/// question edit a few literals each (RxL/RmL/RfL/AddL), so most new
/// constraints are ANDs of bitmaps already held and scan nothing; the AND
/// itself becomes the set's bitmap and its list is read off with ctz.
/// Entries are never evicted; a context lives for one request and the
/// distinct constraints per request are bounded by the picky-operator
/// universe.
///
/// Support memo: for a candidate set, an edge label and a direction, the
/// bitmap over V of the nodes with at least one such edge into the set,
/// built once by one pass over the set's labeled adjacency and keyed by
/// the set's stable address. The matcher ANDs the supports of a plan's
/// root-adjacent steps into the root candidates before backtracking, so a
/// root with no anchor-label neighbour in some child's set is skipped
/// without a search (and counted in ctx_pruned). The check is
/// necessary-only (it ignores injectivity and the other edges), so the
/// surviving roots are searched in the same ascending order. Like the
/// literal bitmaps, supports live in the arena for the request only.
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

  /// The memoized candidate set of `qn`, built on first use from its
  /// literal bitmaps (see class comment). The reference stays valid for the
  /// context's lifetime. A hit allocates nothing.
  const CandidateSet& Lookup(const QueryNode& qn);

  /// Memoizes every node of `q` up front (e.g. right after parsing, while
  /// a request is still in its prepare stage).
  void Prime(const Query& q);

  /// The memoized support bitmap of `child` over `label` edges: bit v of
  /// the ceil(|V| / 64) words is set iff v has a `label` edge into `child`
  /// (v -> c for some c in it when `out`, c -> v otherwise). Built on
  /// first use; the words stay valid for the context's lifetime.
  const uint64_t* Support(const CandidateSet& child, SymbolId label,
                          bool out);

  /// Adds to the pruned-attempts counter: the matcher counts each
  /// label-bucket root that the memoized list or a support bitmap skips
  /// and each anchor-slice neighbor that a candidate bitmap rejects.
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

  // One memoized literal of one label: the bucket nodes satisfying it, as
  // the words [lo, lo + span) of a bitmap over V, where the label bucket
  // spans exactly those words.
  struct LiteralEntry {
    SymbolId label = kInvalidSymbol;
    Literal lit;
    const uint64_t* bits = nullptr;  // arena-resident, span words
  };

  // The key of one support bitmap: (child set, edge label, direction).
  struct SupportKey {
    const CandidateSet* child;
    SymbolId label;
    bool out;
    bool operator==(const SupportKey&) const = default;
  };
  struct SupportKeyHash {
    size_t operator()(const SupportKey& k) const;
  };

  // Builds (and memoizes) the set of a constraint not seen before.
  const CandidateSet& Insert(const QueryNode& qn, uint64_t hash);

  // The memoized bitmap of literal `l` on `label` (whose bucket is `bucket`,
  // spanning words [lo, lo + span)), read off the label's typed column of
  // l.attr on first use.
  const uint64_t* LiteralBitmap(SymbolId label, const Literal& l,
                                NodeSpan bucket, size_t lo, size_t span);

  // Memoizes `cand` as the set of the constraint (label, sorted_lits).
  const CandidateSet& AddEntry(SymbolId label,
                               std::vector<Literal> sorted_lits,
                               uint64_t hash, const CandidateSet* cand);

  // An arena-resident bitmap over V, all zero.
  uint64_t* ZeroedBitmap();

  // Freezes the bitmap `bits` over V, whose set bits all lie in words
  // [lo, lo + span), into an arena-resident CandidateSet: the bitmap itself
  // plus the ascending node list read off it.
  const CandidateSet* Freeze(const uint64_t* bits, size_t lo, size_t span);

  const Graph& g_;
  size_t words_ = 0;  // bitmap words per set: ceil(|V| / 64)
  Arena arena_;       // owns every CandidateSet payload
  std::vector<NodeId> scratch_;  // build-time node list, reused per Freeze
  std::vector<Entry> entries_;
  std::unordered_multimap<uint64_t, size_t> index_;  // hash -> entry
  std::vector<LiteralEntry> literals_;
  std::unordered_multimap<uint64_t, size_t> literal_index_;  // hash -> literal
  // Arena-resident support bitmaps over V.
  std::unordered_map<SupportKey, const uint64_t*, SupportKeyHash> supports_;
  Stats stats_;
};

}  // namespace whyq

#endif  // WHYQ_MATCHER_MATCH_CONTEXT_H_
