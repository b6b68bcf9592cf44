#include "graph/graph.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace whyq {

namespace graph_internal {

bool HalfEdgeLess(const HalfEdge& a, const HalfEdge& b) {
  return a.other != b.other ? a.other < b.other : a.label < b.label;
}

void FoldAttrRange(std::vector<AttrRange>& ranges, SymbolId attr,
                   const Value& value) {
  if (static_cast<size_t>(attr) >= ranges.size()) {
    ranges.resize(attr + 1);
  }
  AttrRange& r = ranges[attr];
  if (value.is_numeric()) {
    double x = value.numeric();
    if (r.count == 0 || !r.numeric) {
      if (r.count == 0) {
        r.min = r.max = x;
        r.numeric = 1;
      }
      // A previously-string attribute stays non-numeric.
    } else {
      r.min = std::min(r.min, x);
      r.max = std::max(r.max, x);
    }
  } else {
    r.numeric = 0;
  }
  ++r.count;
}

void PartitionAdjacency(const HalfEdge* adj, size_t count,
                        std::vector<HalfEdge>& scratch,
                        std::vector<NodeId>& nbrs,
                        std::vector<Graph::LabelSlice>& slices) {
  scratch.assign(adj, adj + count);
  std::stable_sort(scratch.begin(), scratch.end(),
                   [](const HalfEdge& a, const HalfEdge& b) {
                     return a.label < b.label;
                   });
  for (size_t i = 0; i < scratch.size();) {
    Graph::LabelSlice s;
    s.label = scratch[i].label;
    s.begin = nbrs.size();
    for (; i < scratch.size() && scratch[i].label == s.label; ++i) {
      nbrs.push_back(scratch[i].other);
    }
    s.end = nbrs.size();
    slices.push_back(s);
  }
}

uint64_t NextGraphIdentity() {
  static std::atomic<uint64_t> counter{0};
  return ++counter;
}

}  // namespace graph_internal

namespace {

using graph_internal::HalfEdgeLess;

}  // namespace

const Value* Graph::GetAttr(NodeId v, SymbolId attr) const {
  AttrSpan tuple = attrs(v);
  auto it = std::lower_bound(
      tuple.begin(), tuple.end(), attr,
      [](const AttrEntry& e, SymbolId a) { return e.attr < a; });
  if (it == tuple.end() || it->attr != attr) return nullptr;
  return &it->value;
}

bool Graph::HasEdge(NodeId u, NodeId v, SymbolId label) const {
  EdgeSpan adj = out_edges(u);
  HalfEdge probe{v, label};
  return std::binary_search(adj.begin(), adj.end(), probe, HalfEdgeLess);
}

NodeSpan Graph::NodesWithLabel(SymbolId label) const {
  if (static_cast<size_t>(label) + 1 >= bucket_range_.size()) {
    return NodeSpan{};
  }
  uint64_t b = bucket_range_[label];
  return NodeSpan{bucket_nodes_.data() + b, bucket_range_[label + 1] - b};
}

const AttrRange* Graph::RangeOf(SymbolId attr) const {
  if (static_cast<size_t>(attr) >= attr_ranges_.size()) return nullptr;
  const AttrRange& r = attr_ranges_[attr];
  return r.count == 0 ? nullptr : &r;
}

const AttrColumn* Graph::AttrColumnOf(SymbolId label, SymbolId attr) const {
  if (static_cast<size_t>(label) >= attr_columns_.size() ||
      attr_columns_[label] == nullptr) {
    return nullptr;
  }
  const LabelColumns& cols = *attr_columns_[label];
  auto it = std::lower_bound(cols.attrs.begin(), cols.attrs.end(), attr);
  if (it == cols.attrs.end() || *it != attr) return nullptr;
  return &cols.columns[it - cols.attrs.begin()];
}

ConstSpan<SymbolId> Graph::AttrsOfLabel(SymbolId label) const {
  if (static_cast<size_t>(label) >= attr_columns_.size() ||
      attr_columns_[label] == nullptr) {
    return {};
  }
  const std::vector<SymbolId>& attrs = attr_columns_[label]->attrs;
  return ConstSpan<SymbolId>(attrs.data(), attrs.size());
}

namespace {

// A double's bits with ±0.0 made +0.0 and every NaN the quiet NaN: the
// representatives of the ranks those values share (see AttrColumn).
uint64_t CanonicalDoubleBits(uint64_t bits) {
  double d = std::bit_cast<double>(bits);
  if (d == 0.0) return 0;
  if (std::isnan(d)) {
    return std::bit_cast<uint64_t>(std::numeric_limits<double>::quiet_NaN());
  }
  return bits;
}

// Value::operator< on canonical doubles: by value, NaN last.
bool DoubleBitsLess(uint64_t a, uint64_t b) {
  double x = std::bit_cast<double>(a);
  double y = std::bit_cast<double>(b);
  if (std::isnan(x) || std::isnan(y)) return !std::isnan(x) && std::isnan(y);
  return x < y;
}

// Fills c.numbers, c.ints and c.ranks from the kinds, payloads and sorted
// strings.
void BuildRanks(AttrColumn& c) {
  std::vector<uint64_t> doubles;
  for (size_t i = 0; i < c.kinds.size(); ++i) {
    if (c.kinds[i] == AttrColumn::kInt) c.numbers.push_back(c.payload[i]);
    if (c.kinds[i] == AttrColumn::kDouble) {
      doubles.push_back(CanonicalDoubleBits(c.payload[i]));
    }
  }
  auto int_less = [](uint64_t a, uint64_t b) {
    return static_cast<int64_t>(a) < static_cast<int64_t>(b);
  };
  std::sort(c.numbers.begin(), c.numbers.end(), int_less);
  c.numbers.erase(std::unique(c.numbers.begin(), c.numbers.end()),
                  c.numbers.end());
  c.ints = static_cast<uint32_t>(c.numbers.size());
  std::sort(doubles.begin(), doubles.end(), DoubleBitsLess);
  doubles.erase(std::unique(doubles.begin(), doubles.end()), doubles.end());
  c.numbers.insert(c.numbers.end(), doubles.begin(), doubles.end());
  const auto ints_end = c.numbers.begin() + c.ints;
  c.ranks.assign(c.kinds.size(), AttrColumn::kNoRank);
  for (size_t i = 0; i < c.kinds.size(); ++i) {
    switch (c.kinds[i]) {
      case AttrColumn::kInt:
        c.ranks[i] = static_cast<uint32_t>(
            std::lower_bound(c.numbers.begin(), ints_end, c.payload[i],
                             int_less) -
            c.numbers.begin());
        break;
      case AttrColumn::kDouble:
        c.ranks[i] = static_cast<uint32_t>(
            std::lower_bound(ints_end, c.numbers.end(),
                             CanonicalDoubleBits(c.payload[i]),
                             DoubleBitsLess) -
            c.numbers.begin());
        break;
      case AttrColumn::kString:
        c.ranks[i] = static_cast<uint32_t>(c.numbers.size() + c.payload[i]);
        break;
      default:
        break;
    }
  }
}

}  // namespace

// One pass over the members' tuples fills every column, then each
// column's strings are sorted, deduplicated and their rows rewritten from
// first-seen index to rank.
std::shared_ptr<const Graph::LabelColumns> Graph::BuildLabelColumns(
    NodeSpan bucket) const {
  auto out = std::make_shared<LabelColumns>();
  for (NodeId v : bucket) {
    for (const AttrEntry& e : attrs(v)) out->attrs.push_back(e.attr);
  }
  std::sort(out->attrs.begin(), out->attrs.end());
  out->attrs.erase(std::unique(out->attrs.begin(), out->attrs.end()),
                   out->attrs.end());
  out->columns.resize(out->attrs.size());
  for (AttrColumn& c : out->columns) {
    c.kinds.assign(bucket.size(), AttrColumn::kAbsent);
    c.payload.assign(bucket.size(), 0);
  }
  std::vector<std::vector<const std::string*>> seen(out->attrs.size());
  for (size_t i = 0; i < bucket.size(); ++i) {
    for (const AttrEntry& e : attrs(bucket[i])) {
      size_t k = std::lower_bound(out->attrs.begin(), out->attrs.end(),
                                  e.attr) -
                 out->attrs.begin();
      AttrColumn& c = out->columns[k];
      AttrColumn::Kind kind = AttrColumn::kString;
      if (e.value.is_int()) {
        kind = AttrColumn::kInt;
        c.payload[i] = static_cast<uint64_t>(e.value.as_int());
      } else if (e.value.is_double()) {
        kind = AttrColumn::kDouble;
        c.payload[i] = std::bit_cast<uint64_t>(e.value.as_double());
      } else {
        c.payload[i] = seen[k].size();
        seen[k].push_back(&e.value.as_string());
      }
      c.kinds[i] = kind;
      c.present |= static_cast<uint8_t>(1u << kind);
    }
  }
  for (size_t k = 0; k < out->columns.size(); ++k) {
    AttrColumn& c = out->columns[k];
    if (!seen[k].empty()) {
      for (const std::string* str : seen[k]) c.strings.push_back(*str);
      std::sort(c.strings.begin(), c.strings.end());
      c.strings.erase(std::unique(c.strings.begin(), c.strings.end()),
                      c.strings.end());
      for (size_t i = 0; i < bucket.size(); ++i) {
        if (c.kinds[i] != AttrColumn::kString) continue;
        const std::string& str = *seen[k][c.payload[i]];
        c.payload[i] = static_cast<uint64_t>(
            std::lower_bound(c.strings.begin(), c.strings.end(), str) -
            c.strings.begin());
      }
    }
    BuildRanks(c);
  }
  return out;
}

void Graph::FinalizeAttrColumns(const Graph* prev,
                                const std::vector<SymbolId>& touched) {
  const size_t labels = bucket_range_.empty() ? 0 : bucket_range_.size() - 1;
  attr_columns_.assign(labels, nullptr);
  bucket_pos_.assign(node_count(), 0);
  for (size_t l = 0; l < labels; ++l) {
    const SymbolId label = static_cast<SymbolId>(l);
    NodeSpan members = NodesWithLabel(label);
    for (size_t i = 0; i < members.size(); ++i) {
      bucket_pos_[members[i]] = static_cast<uint32_t>(i);
    }
    if (prev != nullptr && l < prev->attr_columns_.size() &&
        !std::binary_search(touched.begin(), touched.end(), label)) {
      attr_columns_[l] = prev->attr_columns_[l];
      continue;
    }
    if (!members.empty()) attr_columns_[l] = BuildLabelColumns(members);
  }
}

std::string Graph::NodeLabelName(SymbolId id) const {
  if (id < node_labels_.size()) return node_labels_.NameOf(id);
  return NumberedName("#", id);
}

std::string Graph::EdgeLabelName(SymbolId id) const {
  if (id < edge_labels_.size()) return edge_labels_.NameOf(id);
  return NumberedName("#", id);
}

std::string Graph::AttrName(SymbolId id) const {
  if (id < attr_names_.size()) return attr_names_.NameOf(id);
  return NumberedName("#", id);
}

NodeId GraphBuilder::AddNode(std::string_view label) {
  return AddNodeById(node_labels_.Intern(label));
}

NodeId GraphBuilder::AddNodeById(SymbolId label) {
  NodeId id = static_cast<NodeId>(labels_.size());
  labels_.push_back(label);
  attrs_.emplace_back();
  out_.emplace_back();
  in_.emplace_back();
  return id;
}

void GraphBuilder::SetAttr(NodeId v, std::string_view name, Value value) {
  SetAttrById(v, attr_names_.Intern(name), std::move(value));
}

void GraphBuilder::SetAttrById(NodeId v, SymbolId attr, Value value) {
  WHYQ_CHECK(v < attrs_.size());
  for (AttrEntry& e : attrs_[v]) {
    if (e.attr == attr) {
      e.value = std::move(value);
      return;
    }
  }
  attrs_[v].push_back(AttrEntry{attr, std::move(value)});
}

void GraphBuilder::AddEdge(NodeId u, NodeId v, std::string_view label) {
  AddEdgeById(u, v, edge_labels_.Intern(label));
}

void GraphBuilder::AddEdgeById(NodeId u, NodeId v, SymbolId label) {
  WHYQ_CHECK(u < out_.size() && v < out_.size());
  out_[u].push_back(HalfEdge{v, label});
  in_[v].push_back(HalfEdge{u, label});
}

Graph GraphBuilder::Build() {
  size_t n = labels_.size();
  Graph g;
  size_t edges = 0;

  // Flattened columns, assembled node by node then frozen into the Graph.
  std::vector<AttrEntry> attr_pool;
  std::vector<uint64_t> attr_range(1, 0);
  std::vector<HalfEdge> out_pool;
  std::vector<HalfEdge> in_pool;
  std::vector<uint64_t> out_range(1, 0);
  std::vector<uint64_t> in_range(1, 0);
  std::vector<NodeId> out_nbrs;
  std::vector<NodeId> in_nbrs;
  std::vector<Graph::LabelSlice> out_slices;
  std::vector<Graph::LabelSlice> in_slices;
  std::vector<uint64_t> out_slice_range(1, 0);
  std::vector<uint64_t> in_slice_range(1, 0);

  size_t label_space = node_labels_.size();
  for (SymbolId l : labels_) {
    label_space = std::max(label_space, static_cast<size_t>(l) + 1);
  }
  std::vector<uint64_t> bucket_count(label_space, 0);
  std::vector<AttrRange> attr_ranges;

  // Label-partitioned mirrors of the adjacency, appended node by node. A
  // stable sort by label over the (other, label)-sorted lists keeps each
  // label's run in ascending-NodeId order, so a label slice enumerates the
  // same neighbors in the same order as a filtered full-adjacency scan.
  // The partition step is shared with the incremental updater, which must
  // reproduce this exact layout (src/graph/update.cc).
  std::vector<HalfEdge> by_label;
  auto partition = [&by_label](const std::vector<HalfEdge>& adj,
                               std::vector<NodeId>& nbrs,
                               std::vector<Graph::LabelSlice>& slices,
                               std::vector<uint64_t>& range) {
    graph_internal::PartitionAdjacency(adj.data(), adj.size(), by_label, nbrs,
                                       slices);
    range.push_back(slices.size());
  };

  for (size_t v = 0; v < n; ++v) {
    auto dedupe = [](std::vector<HalfEdge>& adj) {
      std::sort(adj.begin(), adj.end(), HalfEdgeLess);
      adj.erase(std::unique(adj.begin(), adj.end()), adj.end());
    };
    dedupe(out_[v]);
    dedupe(in_[v]);
    edges += out_[v].size();
    out_pool.insert(out_pool.end(), out_[v].begin(), out_[v].end());
    in_pool.insert(in_pool.end(), in_[v].begin(), in_[v].end());
    out_range.push_back(out_pool.size());
    in_range.push_back(in_pool.size());
    partition(out_[v], out_nbrs, out_slices, out_slice_range);
    partition(in_[v], in_nbrs, in_slices, in_slice_range);

    std::vector<AttrEntry>& tuple = attrs_[v];
    std::sort(tuple.begin(), tuple.end(),
              [](const AttrEntry& a, const AttrEntry& b) {
                return a.attr < b.attr;
              });

    ++bucket_count[labels_[v]];

    for (const AttrEntry& e : tuple) {
      graph_internal::FoldAttrRange(attr_ranges, e.attr, e.value);
    }

    for (AttrEntry& e : tuple) attr_pool.push_back(std::move(e));
    attr_range.push_back(attr_pool.size());
  }

  // Dense label buckets via counting sort: node ids are appended in
  // ascending order, so every bucket stays ascending.
  std::vector<uint64_t> bucket_range(label_space + 1, 0);
  for (size_t l = 0; l < label_space; ++l) {
    bucket_range[l + 1] = bucket_range[l] + bucket_count[l];
  }
  std::vector<NodeId> bucket_nodes(n);
  std::vector<uint64_t> cursor(bucket_range.begin(), bucket_range.end() - 1);
  for (size_t v = 0; v < n; ++v) {
    bucket_nodes[cursor[labels_[v]]++] = static_cast<NodeId>(v);
  }

  g.node_label_.Own(std::move(labels_));
  attr_pool.shrink_to_fit();
  g.attr_pool_ =
      std::make_shared<const std::vector<AttrEntry>>(std::move(attr_pool));
  g.attr_range_.Own(std::move(attr_range));
  g.out_pool_.Own(std::move(out_pool));
  g.in_pool_.Own(std::move(in_pool));
  g.out_range_.Own(std::move(out_range));
  g.in_range_.Own(std::move(in_range));
  g.out_nbrs_.Own(std::move(out_nbrs));
  g.in_nbrs_.Own(std::move(in_nbrs));
  g.out_slices_.Own(std::move(out_slices));
  g.in_slices_.Own(std::move(in_slices));
  g.out_slice_range_.Own(std::move(out_slice_range));
  g.in_slice_range_.Own(std::move(in_slice_range));
  g.bucket_nodes_.Own(std::move(bucket_nodes));
  g.bucket_range_.Own(std::move(bucket_range));
  g.attr_ranges_.Own(std::move(attr_ranges));
  g.edge_count_ = edges;
  g.node_labels_ = std::move(node_labels_);
  g.edge_labels_ = std::move(edge_labels_);
  g.attr_names_ = std::move(attr_names_);
  g.identity_ = graph_internal::NextGraphIdentity();
  g.FinalizeAttrColumns();

  labels_ = std::vector<SymbolId>();
  attrs_.clear();
  out_.clear();
  in_.clear();
  node_labels_ = Dictionary();
  edge_labels_ = Dictionary();
  attr_names_ = Dictionary();
  return g;
}

}  // namespace whyq
