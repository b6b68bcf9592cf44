#include "matcher/match_context.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <new>
#include <utility>

#include "matcher/candidates.h"

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

// Order-independent: the label's hash plus the sum of the literal hashes.
uint64_t ConstraintHash(const QueryNode& qn) {
  uint64_t h = Mix(qn.label);
  for (const Literal& l : qn.literals) {
    h += Mix(ValueHash(l.constant) ^
             (uint64_t{l.attr} << 8 | static_cast<uint64_t>(l.op)));
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

const MatchContext::CandidateSet* MatchContext::Freeze(
    const std::vector<NodeId>& nodes) {
  NodeId* list = arena_.AllocateArray<NodeId>(nodes.size());
  std::copy(nodes.begin(), nodes.end(), list);
  uint64_t* bits = arena_.AllocateArray<uint64_t>(words_);
  std::fill_n(bits, words_, 0);
  for (NodeId v : nodes) {
    bits[v >> 6] |= uint64_t{1} << (v & 63);
  }
  void* slot = arena_.Allocate(sizeof(CandidateSet), alignof(CandidateSet));
  return new (slot) CandidateSet{list, nodes.size(), bits};
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
  scratch_.clear();

  // Delta reuse: the largest cached strict-subset constraint on the same
  // label (ties: earliest insertion). Its node list already survived the
  // shared literals, so only the extras need re-checking — this is the
  // Lemma 1 monotonicity of refinement applied to the cache.
  const Entry* parent = nullptr;
  for (const Entry& e : entries_) {
    if (e.label != qn.label || e.lits.size() >= lits.size()) continue;
    if (parent != nullptr && e.lits.size() <= parent->lits.size()) continue;
    if (std::includes(lits.begin(), lits.end(), e.lits.begin(),
                      e.lits.end(), LiteralLess)) {
      parent = &e;
    }
  }

  if (parent != nullptr) {
    ++stats_.delta_builds;
    // Multiset difference over the sorted literals: child literals without
    // a matching parent literal are the extras to filter with.
    std::vector<const Literal*> extras;
    size_t pi = 0;
    for (const Literal& l : lits) {
      if (pi < parent->lits.size() && parent->lits[pi] == l) {
        ++pi;
        continue;
      }
      extras.push_back(&l);
    }
    for (NodeId v : *parent->cand) {
      bool ok = true;
      for (const Literal* l : extras) {
        if (!SatisfiesLiteral(g_, v, *l)) {
          ok = false;
          break;
        }
      }
      if (ok) scratch_.push_back(v);
    }
  } else {
    ++stats_.misses;
    for (NodeId v : g_.NodesWithLabel(qn.label)) {
      if (IsCandidate(g_, v, qn)) scratch_.push_back(v);
    }
  }
  return AddEntry(qn.label, std::move(lits), hash, Freeze(scratch_));
}

const MatchContext::CandidateSet& MatchContext::AddEntry(
    SymbolId label, std::vector<Literal> sorted_lits, uint64_t hash,
    const CandidateSet* cand) {
  index_.emplace(hash, entries_.size());
  entries_.push_back(Entry{label, std::move(sorted_lits), cand});
  return *cand;
}

void MatchContext::Prime(const Query& q) {
  for (QNodeId u = 0; u < q.node_count(); ++u) {
    Lookup(q.node(u));
  }
}

void MatchContext::Seed(const QueryNode& qn,
                        const std::vector<NodeId>& nodes) {
  uint64_t hash = ConstraintHash(qn);
  if (Find(qn, hash) != nullptr) return;
  ++stats_.misses;  // the full scan happened, just outside the context
  AddEntry(qn.label, SortedLiterals(qn), hash, Freeze(nodes));
}

}  // namespace whyq
