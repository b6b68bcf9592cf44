#include "matcher/match_context.h"

#include <algorithm>
#include <new>
#include <utility>

#include "graph/literal_store.h"

namespace whyq {

namespace {

// The order entries keep their literals in: attribute, operator, then the
// constant's Value::operator< (kind first). Equivalence under it is
// Literal::operator==.
bool LiteralLess(const Literal& a, const Literal& b) {
  if (a.attr != b.attr) return a.attr < b.attr;
  if (a.op != b.op) return a.op < b.op;
  return a.constant < b.constant;
}

// Order-independent: the label's hash plus the sum of the literal hashes.
uint64_t ConstraintHash(const QueryNode& qn) {
  uint64_t h = MixHash(qn.label);
  for (const Literal& l : qn.literals) {
    h += LiteralHash(l.attr, l.op, l.constant);
  }
  return h;
}

std::vector<Literal> SortedLiterals(const QueryNode& qn) {
  std::vector<Literal> lits = qn.literals;
  std::sort(lits.begin(), lits.end(), LiteralLess);
  return lits;
}

// True iff `any` (in any order) and `sorted` are the same multiset.
bool SameMultiset(const std::vector<Literal>& sorted,
                  const std::vector<Literal>& any) {
  if (sorted.size() != any.size()) return false;
  for (const Literal& l : any) {
    auto [lo, hi] =
        std::equal_range(sorted.begin(), sorted.end(), l, LiteralLess);
    if (static_cast<size_t>(hi - lo) !=
        static_cast<size_t>(std::count(any.begin(), any.end(), l))) {
      return false;
    }
  }
  return true;
}

}  // namespace

MatchContext::MatchContext(const Graph& g)
    : g_(g), words_((g.node_count() + 63) / 64) {}

const MatchContext::CandidateSet* MatchContext::Freeze(const uint64_t* bits,
                                                       size_t lo,
                                                       size_t span) {
  scratch_.clear();
  for (size_t w = lo; w < lo + span; ++w) {
    for (uint64_t word = bits[w]; word != 0; word &= word - 1) {
      scratch_.push_back(static_cast<NodeId>(w * 64 + __builtin_ctzll(word)));
    }
  }
  NodeId* list = arena_.AllocateArray<NodeId>(scratch_.size());
  std::copy(scratch_.begin(), scratch_.end(), list);
  void* slot = arena_.Allocate(sizeof(CandidateSet), alignof(CandidateSet));
  return new (slot) CandidateSet{list, scratch_.size(), bits};
}

uint64_t* MatchContext::ZeroedBitmap() {
  uint64_t* bits = arena_.AllocateArray<uint64_t>(words_);
  std::fill_n(bits, words_, 0);
  return bits;
}

const uint64_t* MatchContext::LiteralBitmap(SymbolId label,
                                            const Literal& l) {
  bool scanned = false;
  const uint64_t* bits = g_.literal_store().Bitmap(
      g_, label, l.attr, l.op, l.constant, arena_, &scanned);
  ++(scanned ? stats_.literal_scans : stats_.literal_hits);
  return bits;
}

const MatchContext::Entry* MatchContext::Find(const QueryNode& qn,
                                              uint64_t hash) const {
  auto [it, end] = index_.equal_range(hash);
  for (; it != end; ++it) {
    const Entry& e = entries_[it->second];
    if (e.label == qn.label && SameMultiset(e.lits, qn.literals)) return &e;
  }
  return nullptr;
}

const MatchContext::CandidateSet& MatchContext::Lookup(const QueryNode& qn) {
  uint64_t hash = ConstraintHash(qn);
  if (const Entry* e = Find(qn, hash)) {
    ++stats_.hits;
    return *e->cand;
  }
  return Insert(qn, hash);
}

const MatchContext::CandidateSet& MatchContext::Insert(const QueryNode& qn,
                                                       uint64_t hash) {
  std::vector<Literal> lits = SortedLiterals(qn);
  // Every set lies in the label bucket's word span, so only those words
  // are scanned, ANDed and read back; the rest of the bitmap stays zero.
  NodeSpan bucket = g_.NodesWithLabel(qn.label);
  const size_t lo = bucket.empty() ? 0 : bucket[0] >> 6;
  const size_t span =
      bucket.empty() ? 0 : (bucket[bucket.size() - 1] >> 6) - lo + 1;
  uint64_t* bits = ZeroedBitmap();
  uint64_t* out = bits + lo;
  const uint64_t scans = stats_.literal_scans;
  if (lits.empty()) {
    for (NodeId v : bucket) bits[v >> 6] |= uint64_t{1} << (v & 63);
  } else {
    std::copy_n(LiteralBitmap(qn.label, lits[0]), span, out);
    for (size_t i = 1; i < lits.size(); ++i) {
      if (lits[i] == lits[i - 1]) continue;  // a repeat changes nothing
      const uint64_t* b = LiteralBitmap(qn.label, lits[i]);
      for (size_t w = 0; w < span; ++w) out[w] &= b[w];
    }
  }
  if (lits.empty() || stats_.literal_scans != scans) {
    ++stats_.misses;
  } else {
    ++stats_.delta_builds;
  }
  return AddEntry(qn.label, std::move(lits), hash, Freeze(bits, lo, span));
}

const MatchContext::CandidateSet& MatchContext::AddEntry(
    SymbolId label, std::vector<Literal> sorted_lits, uint64_t hash,
    const CandidateSet* cand) {
  index_.emplace(hash, entries_.size());
  entries_.push_back(Entry{label, std::move(sorted_lits), cand});
  return *cand;
}

size_t MatchContext::SupportKeyHash::operator()(const SupportKey& k) const {
  return MixHash(reinterpret_cast<uintptr_t>(k.child) ^
                 (uint64_t{k.label} << 1 | uint64_t{k.out}));
}

const uint64_t* MatchContext::Support(const CandidateSet& child,
                                      SymbolId label, bool out) {
  auto [it, inserted] = supports_.try_emplace(SupportKey{&child, label, out});
  if (!inserted) return it->second;
  // v -> c edges are c's in-slice, c -> v edges its out-slice.
  uint64_t* bits = ZeroedBitmap();
  for (NodeId c : child) {
    for (NodeId v : out ? g_.LabeledInNeighbors(c, label)
                        : g_.LabeledOutNeighbors(c, label)) {
      bits[v >> 6] |= uint64_t{1} << (v & 63);
    }
  }
  it->second = bits;
  return bits;
}

void MatchContext::Prime(const Query& q) {
  for (QNodeId u = 0; u < q.node_count(); ++u) {
    Lookup(q.node(u));
  }
}

}  // namespace whyq
