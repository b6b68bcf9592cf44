#include "graph/literal_store.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <string>

namespace whyq {

namespace {

// Equal Values hash equally: 0.0 and -0.0 are one key, as are all NaNs.
uint64_t ValueHash(const Value& v) {
  if (v.is_int()) return MixHash(static_cast<uint64_t>(v.as_int()));
  if (v.is_double()) {
    double d = v.as_double();
    if (d == 0.0) d = 0.0;
    if (std::isnan(d)) d = std::nan("");
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    return MixHash(bits ^ 0x1);
  }
  return MixHash(std::hash<std::string>{}(v.as_string()) ^ 0x2);
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

}  // namespace

uint64_t MixHash(uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t LiteralHash(SymbolId attr, CompareOp op, const Value& constant) {
  return MixHash(ValueHash(constant) ^
                 (uint64_t{attr} << 8 | static_cast<uint64_t>(op)));
}

// Bit cmp + 1 of `mask` is CompareHolds(op, cmp). A column holding one
// comparable kind takes a loop typed for it; a column mixing ints and
// doubles switches per row. Strings compare by rank on a doubled axis: row
// rank r sits at 2r + 1, and the constant at 2r + 1 when it is the
// column's r-th string, or at 2r when r strings sort below it and it is
// absent. The axis is computed unsigned, so rows of other kinds (whose
// payload is not a rank) wrap harmlessly before the kind test drops them.
void ScanColumn(const AttrColumn& col, NodeSpan bucket, CompareOp op,
                const Value& constant, size_t lo, uint64_t* bits) {
  const unsigned mask = CompareHolds(op, -1) | CompareHolds(op, 0) << 1 |
                        CompareHolds(op, 1) << 2;
  const uint8_t* kind = col.kinds.data();
  auto holds = [mask](int cmp) { return (mask >> (cmp + 1)) & 1u; };
  // One loop for the rows of kind `k`, each compared by `cmp(i)`.
  auto fill = [&](AttrColumn::Kind k, auto cmp) {
    FillWords(bucket, lo, bits, [&](size_t i) {
      return static_cast<unsigned>(kind[i] == k) & holds(cmp(i));
    });
  };
  if (constant.is_string()) {
    if (!col.has(AttrColumn::kString)) return;
    const std::string& c = constant.as_string();
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
  const bool int_constant = constant.is_int();
  const int64_t ci = int_constant ? constant.as_int() : 0;
  const double cd = constant.numeric();
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

size_t LiteralStore::WordCap(const Graph& g) {
  return kLiteralStoreFullBitmaps * ((g.node_count() + 63) / 64);
}

const uint64_t* LiteralStore::Bitmap(const Graph& g, SymbolId label,
                                     SymbolId attr, CompareOp op,
                                     const Value& constant, Arena& overflow,
                                     bool* scanned) {
  const uint64_t hash = MixHash(label) + LiteralHash(attr, op, constant);
  const NodeSpan bucket = g.NodesWithLabel(label);
  const size_t lo = bucket.empty() ? 0 : bucket[0] >> 6;
  const size_t span =
      bucket.empty() ? 0 : (bucket[bucket.size() - 1] >> 6) - lo + 1;
  const AttrColumn* col = g.AttrColumnOf(label, attr);
  auto scan_into = [&](Arena& arena) {
    uint64_t* bits = arena.AllocateArray<uint64_t>(span);
    std::fill_n(bits, span, 0);
    if (col != nullptr) ScanColumn(*col, bucket, op, constant, lo, bits);
    return bits;
  };
  *scanned = true;
  {
    MutexLock lock(mu_);
    auto [it, end] = index_.equal_range(hash);
    for (; it != end; ++it) {
      const Entry& e = entries_[it->second];
      if (e.label == label && e.attr == attr && e.op == op &&
          e.constant == constant) {
        *scanned = false;
        return e.bits;
      }
    }
    if (words_ + span <= WordCap(g)) {
      const uint64_t* bits = scan_into(arena_);
      words_ += span;
      index_.emplace(hash, static_cast<uint32_t>(entries_.size()));
      entries_.push_back(Entry{label, attr, op, constant, bits});
      return bits;
    }
  }
  // Past the cap: a private bitmap, scanned outside the lock.
  return scan_into(overflow);
}

size_t LiteralStore::size() const {
  MutexLock lock(mu_);
  return entries_.size();
}

size_t LiteralStore::words() const {
  MutexLock lock(mu_);
  return words_;
}

}  // namespace whyq
