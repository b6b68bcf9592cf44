#include "graph/graph_stats.h"

#include <algorithm>
#include <bit>
#include <sstream>
#include <unordered_set>

namespace whyq {

std::string GraphStats::ToString() const {
  std::ostringstream os;
  os << "|V|=" << nodes << " |E|=" << edges << " labels=" << node_labels
     << "/" << edge_labels << " attrs=" << attributes
     << " avg_attrs/node=" << avg_attrs_per_node
     << " avg_deg=" << avg_out_degree << " max_deg=" << max_out_degree;
  return os.str();
}

GraphStats ComputeStats(const Graph& g) {
  GraphStats s;
  s.nodes = g.node_count();
  s.edges = g.edge_count();
  std::unordered_set<SymbolId> nlabels;
  std::unordered_set<SymbolId> elabels;
  std::unordered_set<SymbolId> anames;
  size_t attr_entries = 0;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    nlabels.insert(g.label(v));
    attr_entries += g.attrs(v).size();
    for (const AttrEntry& e : g.attrs(v)) anames.insert(e.attr);
    for (const HalfEdge& e : g.out_edges(v)) elabels.insert(e.label);
    s.max_out_degree = std::max(s.max_out_degree, g.out_edges(v).size());
  }
  s.node_labels = nlabels.size();
  s.edge_labels = elabels.size();
  s.attributes = anames.size();
  if (s.nodes > 0) {
    s.avg_attrs_per_node =
        static_cast<double>(attr_entries) / static_cast<double>(s.nodes);
    s.avg_out_degree =
        static_cast<double>(s.edges) / static_cast<double>(s.nodes);
  }
  return s;
}

std::vector<uint32_t> ActiveDomains::Ranks(const Graph& g,
                                           const AttrColumn* col,
                                           NodeSpan nodes, size_t cap) {
  std::vector<uint32_t> out;
  if (col == nullptr) return out;
  const size_t words = (col->rank_count() + 63) / 64;
  if (bits_.size() < words) bits_.resize(words, 0);
  size_t lo = words;
  size_t hi = 0;
  for (NodeId v : nodes) {
    uint32_t r = col->ranks[g.BucketPosition(v)];
    if (r == AttrColumn::kNoRank) continue;
    bits_[r / 64] |= uint64_t{1} << (r % 64);
    lo = std::min<size_t>(lo, r / 64);
    hi = std::max<size_t>(hi, r / 64 + 1);
  }
  size_t n = 0;
  for (size_t w = lo; w < hi; ++w) n += std::popcount(bits_[w]);
  // With the cap biting, the k-th present rank is kept when k is the next
  // spread position.
  const bool capped = cap > 0 && n > cap;
  auto next_kept = [&]() {
    return cap == 1 ? 0 : out.size() * (n - 1) / (cap - 1);
  };
  out.reserve(capped ? cap : n);
  size_t k = 0;
  for (size_t w = lo; w < hi; ++w) {
    for (uint64_t word = bits_[w]; word != 0; word &= word - 1, ++k) {
      if (capped && (out.size() == cap || k != next_kept())) continue;
      out.push_back(static_cast<uint32_t>(w * 64 + std::countr_zero(word)));
    }
    bits_[w] = 0;
  }
  return out;
}

}  // namespace whyq
