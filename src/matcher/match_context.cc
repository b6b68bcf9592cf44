#include "matcher/match_context.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <new>
#include <utility>

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

uint64_t Mix(uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Equal Values hash equally: 0.0 and -0.0 are one key, as are all NaNs.
uint64_t ValueHash(const Value& v) {
  if (v.is_int()) return Mix(static_cast<uint64_t>(v.as_int()));
  if (v.is_double()) {
    double d = v.as_double();
    if (d == 0.0) d = 0.0;
    if (std::isnan(d)) d = std::nan("");
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    return Mix(bits ^ 0x1);
  }
  return Mix(std::hash<std::string>{}(v.as_string()) ^ 0x2);
}

uint64_t LiteralHash(const Literal& l) {
  return Mix(ValueHash(l.constant) ^
             (uint64_t{l.attr} << 8 | static_cast<uint64_t>(l.op)));
}

// Order-independent: the label's hash plus the sum of the literal hashes.
uint64_t ConstraintHash(const QueryNode& qn) {
  uint64_t h = Mix(qn.label);
  for (const Literal& l : qn.literals) h += LiteralHash(l);
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

// Stores bit v - 64 * lo of `bits` for every bucket position i (node
// v = bucket[i]) that `holds(i)` accepts. The bucket ascends, so each word
// is accumulated in a register and stored once.
template <typename Holds>
void FillWords(NodeSpan bucket, size_t lo, uint64_t* bits, Holds holds) {
  const size_t n = bucket.size();
  for (size_t i = 0; i < n;) {
    const size_t w = bucket[i] >> 6;
    uint64_t word = 0;
    do {
      word |= uint64_t{holds(i)} << (bucket[i] & 63);
    } while (++i < n && (bucket[i] >> 6) == w);
    bits[w - lo] = word;
  }
}

// The bucket nodes satisfying `l`, as IsCandidate decides them
// (Value::Satisfies), read off the label's typed column of l.attr. Bit
// cmp + 1 of `mask` is CompareHolds(op, cmp). A column holding one
// comparable kind takes a loop typed for it; a column mixing ints and
// doubles switches per row. Strings compare by rank on a doubled axis: row
// rank r sits at 2r + 1, and the constant at 2r + 1 when it is the
// column's r-th string, or at 2r when r strings sort below it and it is
// absent. The axis is computed unsigned, so rows of other kinds (whose
// payload is not a rank) wrap harmlessly before the kind test drops them.
void ScanColumn(const AttrColumn& col, NodeSpan bucket, const Literal& l,
                size_t lo, uint64_t* bits) {
  const unsigned mask = CompareHolds(l.op, -1) |
                        CompareHolds(l.op, 0) << 1 |
                        CompareHolds(l.op, 1) << 2;
  const uint8_t* kind = col.kinds.data();
  auto holds = [mask](int cmp) { return (mask >> (cmp + 1)) & 1u; };
  // One loop for the rows of kind `k`, each compared by `cmp(i)`.
  auto fill = [&](AttrColumn::Kind k, auto cmp) {
    FillWords(bucket, lo, bits, [&](size_t i) {
      return static_cast<unsigned>(kind[i] == k) & holds(cmp(i));
    });
  };
  if (l.constant.is_string()) {
    if (!col.has(AttrColumn::kString)) return;
    const std::string& c = l.constant.as_string();
    auto it = std::lower_bound(col.strings.begin(), col.strings.end(), c);
    const int64_t at = 2 * (it - col.strings.begin()) +
                       (it != col.strings.end() && *it == c ? 1 : 0);
    fill(AttrColumn::kString, [&](size_t i) {
      return CompareNumeric(static_cast<int64_t>(2 * col.payload[i] + 1), at);
    });
    return;
  }
  const bool ints = col.has(AttrColumn::kInt);
  const bool doubles = col.has(AttrColumn::kDouble);
  const bool int_constant = l.constant.is_int();
  const int64_t ci = int_constant ? l.constant.as_int() : 0;
  const double cd = l.constant.numeric();
  if (ints && doubles) {
    FillWords(bucket, lo, bits, [&](size_t i) {
      switch (kind[i]) {
        case AttrColumn::kInt:
          return holds(int_constant
                           ? CompareNumeric(col.int_at(i), ci)
                           : CompareNumeric(
                                 static_cast<double>(col.int_at(i)), cd));
        case AttrColumn::kDouble:
          return holds(CompareNumeric(col.double_at(i), cd));
        default:
          return 0u;
      }
    });
  } else if (ints && int_constant) {
    fill(AttrColumn::kInt,
         [&](size_t i) { return CompareNumeric(col.int_at(i), ci); });
  } else if (ints) {
    fill(AttrColumn::kInt, [&](size_t i) {
      return CompareNumeric(static_cast<double>(col.int_at(i)), cd);
    });
  } else if (doubles) {
    fill(AttrColumn::kDouble,
         [&](size_t i) { return CompareNumeric(col.double_at(i), cd); });
  }
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

const uint64_t* MatchContext::LiteralBitmap(SymbolId label, const Literal& l,
                                            NodeSpan bucket, size_t lo,
                                            size_t span) {
  uint64_t hash = Mix(label) + LiteralHash(l);
  auto [it, end] = literal_index_.equal_range(hash);
  for (; it != end; ++it) {
    const LiteralEntry& e = literals_[it->second];
    if (e.label == label && e.lit == l) return e.bits;
  }
  ++stats_.literal_scans;
  uint64_t* bits = arena_.AllocateArray<uint64_t>(span);
  std::fill_n(bits, span, 0);
  if (const AttrColumn* col = g_.AttrColumnOf(label, l.attr)) {
    ScanColumn(*col, bucket, l, lo, bits);
  }
  literal_index_.emplace(hash, literals_.size());
  literals_.push_back(LiteralEntry{label, l, bits});
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
    std::copy_n(LiteralBitmap(qn.label, lits[0], bucket, lo, span), span,
                out);
    for (size_t i = 1; i < lits.size(); ++i) {
      if (lits[i] == lits[i - 1]) continue;  // a repeat changes nothing
      const uint64_t* b = LiteralBitmap(qn.label, lits[i], bucket, lo, span);
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
  return Mix(reinterpret_cast<uintptr_t>(k.child) ^
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
