#ifndef WHYQ_GRAPH_LITERAL_STORE_H_
#define WHYQ_GRAPH_LITERAL_STORE_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/arena.h"
#include "common/mutex.h"
#include "common/value.h"
#include "graph/graph.h"

namespace whyq {

// --- implementation limit ---------------------------------------------------
//
// The store admits bitmaps until it holds this many full bitmaps' worth of
// words, a full bitmap being ceil(|V| / 64) words. A literal's bitmap covers
// only its label bucket's word span, so the store holds at least this many
// literals, and usually several times more.
//
// Why a cap: the distinct literals of an epoch come from the queries its
// requests name and the picky operators their searches generate, not from
// the graph. A client naming a fresh constant per request would otherwise
// grow the store, and with it the epoch, without bound.
//
// Why this size: it bounds the store's bitmaps at 1 KiB per node, and it is
// 2.5 times the busiest epoch of the benchmark (BSBM-500 `exact`, seeds 58
// and 91: 14,091 literals in 3,259 full bitmaps' worth of words, 1.2 MB,
// on the epoch that serves the timed requests and then the answer checks).
// Past the cap a request still gets a correct bitmap: it scans into its own
// arena, for the one set build that needs it (LiteralStore::Bitmap).
inline constexpr size_t kLiteralStoreFullBitmaps = 8192;

/// Fills the words [lo, lo + span) of `bits` (zeroed by the caller, where
/// the label bucket `bucket` spans exactly those words) with the bucket
/// nodes whose `attr` value satisfies `op constant` (Value::Satisfies), read
/// off the label's typed column `col` of that attribute in one pass.
void ScanColumn(const AttrColumn& col, NodeSpan bucket, CompareOp op,
                const Value& constant, size_t lo, uint64_t* bits);

/// The splitmix64 finalizer, the mixing step of the literal and
/// candidate-set hashes.
uint64_t MixHash(uint64_t x);

/// Hash of one literal (attr op constant). Values that compare equal
/// (Value::operator==) hash equally: 0.0 and -0.0 are one key, and so are
/// all NaNs.
uint64_t LiteralHash(SymbolId attr, CompareOp op, const Value& constant);

/// One graph epoch's literal bitmaps, shared by every request on it.
///
/// A literal bitmap is a function of the epoch, the label and the literal
/// (attr, op, constant) alone, and an epoch never changes once published.
/// So the store is append-only: the first context that needs a bitmap scans
/// the label's typed column (ScanColumn) into the store's arena, and every
/// later context on the epoch reads the same words. Each Graph owns one
/// (Graph::literal_store); ApplyUpdate and snapshot loads produce a new
/// Graph and with it an empty store, and whoever pins the graph pins its
/// store. Nothing here is persisted.
///
/// Candidate sets (the ANDs of a constraint's literals) and support bitmaps
/// are not kept here: they stay per request, in the MatchContext.
///
/// Thread-safety: every method may be called from any thread. Lookups and
/// inserts run under one mutex; a returned word pointer stays valid, and
/// its words unchanged, for the store's lifetime, so readers use it without
/// the lock.
class LiteralStore {
 public:
  LiteralStore() = default;
  LiteralStore(const LiteralStore&) = delete;
  LiteralStore& operator=(const LiteralStore&) = delete;

  /// The bitmap of the literal (attr op constant) over `label`'s bucket in
  /// `g`: the words [lo, lo + span) of a bitmap over V, where the bucket
  /// spans exactly those words (lo is the word of its first node). `g` must
  /// be the graph this store belongs to. On first use the bitmap is scanned
  /// into the store, or, once the store holds WordCap(g) words, into
  /// `overflow`, where it lives only as long as that arena's contents.
  /// `*scanned` tells whether this call did the scan.
  const uint64_t* Bitmap(const Graph& g, SymbolId label, SymbolId attr,
                         CompareOp op, const Value& constant, Arena& overflow,
                         bool* scanned) WHYQ_EXCLUDES(mu_);

  /// Words the store admits for `g`: kLiteralStoreFullBitmaps full bitmaps.
  static size_t WordCap(const Graph& g);

  /// Bitmaps held and their words.
  size_t size() const WHYQ_EXCLUDES(mu_);
  size_t words() const WHYQ_EXCLUDES(mu_);

 private:
  struct Entry {
    SymbolId label;
    SymbolId attr;
    CompareOp op;
    Value constant;
    const uint64_t* bits;  // arena_-resident
  };

  mutable Mutex mu_;
  Arena arena_ WHYQ_GUARDED_BY(mu_);
  std::vector<Entry> entries_ WHYQ_GUARDED_BY(mu_);
  std::unordered_multimap<uint64_t, uint32_t> index_ WHYQ_GUARDED_BY(mu_);
  size_t words_ WHYQ_GUARDED_BY(mu_) = 0;
};

}  // namespace whyq

#endif  // WHYQ_GRAPH_LITERAL_STORE_H_
