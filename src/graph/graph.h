#ifndef WHYQ_GRAPH_GRAPH_H_
#define WHYQ_GRAPH_GRAPH_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/dictionary.h"
#include "common/value.h"

namespace whyq {

/// Dense node identifier within one Graph.
using NodeId = uint32_t;

inline constexpr NodeId kInvalidNode = UINT32_MAX;

/// One (attribute, value) entry of a node's attribute tuple F_A(v).
struct AttrEntry {
  SymbolId attr = kInvalidSymbol;
  Value value;
};

/// One directed adjacency entry: the far endpoint plus the edge label.
/// Fixed 8-byte layout with no padding — rows are stored verbatim in the
/// frozen snapshot image (docs/SNAPSHOT_FORMAT.md).
struct HalfEdge {
  NodeId other = kInvalidNode;
  SymbolId label = kInvalidSymbol;

  bool operator==(const HalfEdge& rhs) const {
    return other == rhs.other && label == rhs.label;
  }
};

/// A borrowed contiguous view over Graph-owned storage. Cheap to copy;
/// valid as long as the owning Graph (and, for snapshot-backed graphs, its
/// mapped image) lives — never store one as a long-lived member outside
/// src/graph/ (whyq-lint rule nodespan-member).
template <typename T>
struct ConstSpan {
  const T* ptr = nullptr;
  size_t count = 0;

  ConstSpan() = default;
  ConstSpan(const T* p, size_t n) : ptr(p), count(n) {}

  const T* data() const { return ptr; }
  const T* begin() const { return ptr; }
  const T* end() const { return ptr + count; }
  size_t size() const { return count; }
  bool empty() const { return count == 0; }
  const T& operator[](size_t i) const { return ptr[i]; }
};

/// A borrowed contiguous run of node ids (e.g. one label's slice of a
/// node's adjacency, or a whole label bucket).
using NodeSpan = ConstSpan<NodeId>;
/// A borrowed run of adjacency entries (one node's full out/in list).
using EdgeSpan = ConstSpan<HalfEdge>;
/// A borrowed run of attribute entries (one node's tuple F_A(v)).
using AttrSpan = ConstSpan<AttrEntry>;

/// Numeric span of an attribute's active domain D(A) over the whole graph;
/// range(D(A)) = max - min feeds the weighted edit-cost model. Fixed
/// 32-byte padding-free layout (rows are snapshot sections).
struct AttrRange {
  double min = 0.0;
  double max = 0.0;
  uint64_t numeric = 0;  // nonzero unless A carries string values
  uint64_t count = 0;    // number of nodes carrying A
};

/// One frozen column of trivially-copyable rows. Either owns heap storage
/// (graphs assembled by GraphBuilder), shares another column's heap storage
/// (copy-on-write update epochs, src/graph/update.cc), or borrows a
/// read-only region that must outlive the Graph (snapshot-backed graphs,
/// where the rows live in the mmap'ed image — see docs/SNAPSHOT_FORMAT.md).
template <typename T>
class Column {
 public:
  Column() = default;

  void Own(std::vector<T>&& rows) {
    rows.shrink_to_fit();
    owned_ = std::make_shared<const std::vector<T>>(std::move(rows));
    ptr_ = owned_->data();
    count_ = owned_->size();
  }
  void Borrow(const T* rows, size_t count) {
    owned_.reset();
    ptr_ = rows;
    count_ = count;
  }
  /// Aliases `other`'s rows, sharing ownership of its heap storage: the
  /// backbone of copy-on-write update epochs — every column an update batch
  /// does not touch is shared, not copied, and the storage lives until the
  /// last sharing epoch dies. Sharing from a Borrow()ed column propagates
  /// the borrow (same external region, same lifetime requirement).
  void ShareFrom(const Column& other) {
    owned_ = other.owned_;
    ptr_ = other.ptr_;
    count_ = other.count_;
  }

  const T* data() const { return ptr_; }
  const T* begin() const { return ptr_; }
  const T* end() const { return ptr_ + count_; }
  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  const T& operator[](size_t i) const { return ptr_[i]; }
  ConstSpan<T> span() const { return ConstSpan<T>(ptr_, count_); }
  bool borrowed() const { return ptr_ != nullptr && owned_ == nullptr; }

 private:
  std::shared_ptr<const std::vector<T>> owned_;
  const T* ptr_ = nullptr;
  size_t count_ = 0;
};

/// One attribute's typed column over one label bucket: row i describes
/// NodesWithLabel(label)[i].A (see Graph::BucketPosition) as a kind byte
/// plus a 64-bit payload (the int64, the double's bits, or the string's
/// rank among the column's sorted distinct strings, so string order is
/// integer order). Literal bitmaps are one pass over it (ScanColumn,
/// src/graph/literal_store.h).
///
/// Each row also carries a dense value rank in Value::operator< order:
/// kind first (ints, then doubles, then strings), then value. ±0.0 share
/// one rank and so do all NaNs, which rank after every other double, so
/// two rows share a rank iff their Values are operator==. ValueAt(r)
/// materializes rank r's Value; the shared ranks materialize as +0.0 and
/// as the quiet NaN. Active domains over a node list are one pass over the
/// ranks with no Value sorted (ActiveDomains, src/graph/graph_stats.h).
struct AttrColumn {
  enum Kind : uint8_t { kAbsent = 0, kInt = 1, kDouble = 2, kString = 3 };
  static constexpr uint32_t kNoRank = UINT32_MAX;  // rank of absent rows

  std::vector<uint8_t> kinds;        // one Kind per bucket position
  std::vector<uint64_t> payload;     // one row per bucket position
  std::vector<std::string> strings;  // sorted, distinct
  uint8_t present = 0;               // bit (1 << kind) per kind present
  std::vector<uint32_t> ranks;       // one per bucket position
  // The numeric ranks' payloads: the distinct ints ascending, then the
  // distinct doubles ascending. String rank ints + doubles + k is
  // strings[k].
  std::vector<uint64_t> numbers;
  uint32_t ints = 0;  // how many of `numbers` are ints

  bool has(Kind k) const { return (present >> k) & 1u; }
  int64_t int_at(size_t i) const { return static_cast<int64_t>(payload[i]); }
  double double_at(size_t i) const {
    return std::bit_cast<double>(payload[i]);
  }
  size_t rank_count() const { return numbers.size() + strings.size(); }
  bool numeric_rank(uint32_t rank) const { return rank < numbers.size(); }
  Value ValueAt(uint32_t rank) const {
    if (rank < ints) return Value(static_cast<int64_t>(numbers[rank]));
    if (rank < numbers.size()) {
      return Value(std::bit_cast<double>(numbers[rank]));
    }
    return Value(strings[rank - numbers.size()]);
  }
};

class LiteralStore;
struct UpdateBatch;
struct UpdateResult;

/// A directed multi-attributed graph G = (V, E, L, F_A): labeled nodes and
/// edges, each node carrying a tuple of typed attribute values (Section II).
///
/// Construction goes through GraphBuilder; a built Graph is immutable, with
/// sorted adjacency (O(log d) labeled-edge probes), a label->nodes index and
/// per-attribute numeric ranges. All index structures are flat CSR-style
/// columns (payload array + offset array), so a built graph can be frozen
/// verbatim into the snapshot image and later re-opened by borrowing the
/// mapped bytes instead of rebuilding (src/graph/snapshot.h).
///
/// The typed attribute columns (AttrColumnOf), with their value ranks, and
/// the bucket positions (BucketPosition) are finalized per epoch, by
/// Build(), GraphSnapshot::Load() and ApplyUpdate(), from the same buckets
/// and tuples; they live in memory only and are never persisted, so the
/// snapshot bytes do not depend on them.
///
/// Thread-safety: immutable after construction, shared across workers. The
/// label index, attribute ranges and attribute columns are finalized with
/// the epoch, and their read accessors take no lock, so any number of
/// threads may query one Graph concurrently — the invariant the service's
/// shared-graph architecture rests on. The one lazily built state is the
/// epoch's literal-bitmap store (literal_store()): an append-only memo of
/// pure functions of the epoch, filled under its own mutex, whose bitmaps
/// never change once handed out. Updates never mutate in place: ApplyUpdate()
/// produces a NEW Graph value (the next epoch) that shares untouched
/// columns copy-on-write, so readers pinned on the old epoch keep a fully
/// consistent view (docs/ARCHITECTURE.md "Mutable graphs & epochs").
class Graph {
 public:
  Graph();
  ~Graph();

  Graph(const Graph&) = delete;
  Graph& operator=(const Graph&) = delete;
  Graph(Graph&&);
  Graph& operator=(Graph&&);

  size_t node_count() const { return node_label_.size(); }
  size_t edge_count() const { return edge_count_; }

  SymbolId label(NodeId v) const { return node_label_[v]; }

  /// The attribute tuple F_A(v), sorted by attribute id.
  AttrSpan attrs(NodeId v) const {
    uint64_t b = attr_range_[v];
    return AttrSpan(attr_pool_->data() + b, attr_range_[v + 1] - b);
  }

  /// Value of v.A, or nullptr when v does not carry attribute A.
  const Value* GetAttr(NodeId v, SymbolId attr) const;

  EdgeSpan out_edges(NodeId v) const {
    uint64_t b = out_range_[v];
    return EdgeSpan(out_pool_.data() + b, out_range_[v + 1] - b);
  }
  EdgeSpan in_edges(NodeId v) const {
    uint64_t b = in_range_[v];
    return EdgeSpan(in_pool_.data() + b, in_range_[v + 1] - b);
  }

  /// True iff edge (u -> v) with label `label` exists.
  bool HasEdge(NodeId u, NodeId v, SymbolId label) const;

  /// Label-partitioned adjacency (CSR-style, finalized in Build()): the out-
  /// (resp. in-) neighbors of v reachable through edges labeled `label`, in
  /// ascending NodeId order — the same neighbors, in the same order, that a
  /// full out_edges(v)/in_edges(v) scan filtered on `label` would yield.
  /// O(log k) in the number of distinct labels on v's adjacency; empty span
  /// for labels absent there. Lets the matcher's Extend() touch exactly the
  /// anchor-label slice instead of skipping over every other label.
  NodeSpan LabeledOutNeighbors(NodeId v, SymbolId label) const {
    return LabeledSlice(out_nbrs_, out_slices_, out_slice_range_, v, label);
  }
  NodeSpan LabeledInNeighbors(NodeId v, SymbolId label) const {
    return LabeledSlice(in_nbrs_, in_slices_, in_slice_range_, v, label);
  }

  /// All nodes with label `label`, ascending (empty for unused labels).
  NodeSpan NodesWithLabel(SymbolId label) const;

  /// v's position in NodesWithLabel(label(v)), which is also its row in
  /// that label's attribute columns. O(1).
  size_t BucketPosition(NodeId v) const { return bucket_pos_[v]; }

  /// Graph-wide numeric range of attribute A; nullptr if A never appears.
  const AttrRange* RangeOf(SymbolId attr) const;

  /// The typed column of attribute `attr` over label `label`'s bucket, or
  /// nullptr when no node of the label carries it.
  const AttrColumn* AttrColumnOf(SymbolId label, SymbolId attr) const;

  /// The attributes some node of `label` carries, ascending: the keys of
  /// the label's AttrColumnOf columns (empty for unused labels).
  ConstSpan<SymbolId> AttrsOfLabel(SymbolId label) const;

  /// This epoch's literal bitmaps, shared by every MatchContext on it
  /// (graph/literal_store.h). Every Graph value starts with an empty store,
  /// so a new epoch never sees its predecessor's bitmaps. Internally
  /// synchronized, hence reachable from a const Graph.
  LiteralStore& literal_store() const { return *literal_store_; }

  /// Symbol tables. Node labels, edge labels and attribute names live in
  /// separate id spaces.
  const Dictionary& node_labels() const { return node_labels_; }
  const Dictionary& edge_labels() const { return edge_labels_; }
  const Dictionary& attr_names() const { return attr_names_; }

  /// Display helpers (fall back to the raw id when a symbol is stale).
  std::string NodeLabelName(SymbolId id) const;
  std::string EdgeLabelName(SymbolId id) const;
  std::string AttrName(SymbolId id) const;

  /// Stable identity of the logical graph this epoch chain descends from:
  /// process-unique for built graphs, the content fingerprint for
  /// snapshot-backed graphs. Folded (with generation()) into prepared-query
  /// cache keys so one graph's entries can never serve another.
  uint64_t identity() const { return identity_; }

  /// Update epoch: 0 for a freshly built or loaded graph, bumped once per
  /// ApplyUpdate(). The pair (identity, generation) names one immutable
  /// graph value.
  uint64_t generation() const { return generation_; }

  /// True for snapshot-backed graphs whose columns borrow the read-only
  /// mapped image: they cannot be updated (ApplyUpdate reports kFrozen
  /// instead of faulting on the PROT_READ pages).
  bool frozen() const { return frozen_; }

  /// Applies `batch` incrementally (src/graph/update.cc): on success fills
  /// `*out` with the next-epoch graph — only touched column groups rebuilt,
  /// untouched ones shared copy-on-write, generation bumped — and returns
  /// true. On failure returns false with result->status/error set and *out
  /// untouched. This graph itself is never modified either way.
  bool ApplyUpdate(const UpdateBatch& batch, Graph* out,
                   UpdateResult* result) const;

  // One label's run inside a node's slice of the partitioned neighbor
  // array; per-node runs are sorted by label (binary-searched on lookup).
  // Fixed 24-byte padding-free layout: rows are stored verbatim in the
  // snapshot image (docs/SNAPSHOT_FORMAT.md).
  struct LabelSlice {
    SymbolId label = kInvalidSymbol;
    uint32_t reserved = 0;  // explicit padding, written as zero
    uint64_t begin = 0;
    uint64_t end = 0;
  };

 private:
  friend class GraphBuilder;
  friend class GraphSnapshot;
  friend class GraphUpdater;

  // Shared lookup for LabeledOutNeighbors / LabeledInNeighbors. Inline:
  // the matcher's Extend() fetches a slice per backtracking step, and the
  // call frames showed up in profiles. Nodes carry a handful of distinct
  // labels, so a forward scan of the sorted runs beats std::lower_bound's
  // branchy bisection there; genuinely label-diverse nodes still bisect.
  static NodeSpan LabeledSlice(const Column<NodeId>& nbrs,
                               const Column<LabelSlice>& slices,
                               const Column<uint64_t>& range, NodeId v,
                               SymbolId label) {
    const LabelSlice* begin = slices.data() + range[v];
    const LabelSlice* end = slices.data() + range[v + 1];
    if (end - begin > 16) {
      auto it = std::lower_bound(
          begin, end, label,
          [](const LabelSlice& s, SymbolId l) { return s.label < l; });
      if (it == end || it->label != label) return NodeSpan{};
      return NodeSpan{nbrs.data() + it->begin, it->end - it->begin};
    }
    for (const LabelSlice* it = begin; it != end; ++it) {
      if (it->label >= label) {
        if (it->label != label) break;
        return NodeSpan{nbrs.data() + it->begin, it->end - it->begin};
      }
    }
    return NodeSpan{};
  }

  // Node labels, one SymbolId per node.
  Column<SymbolId> node_label_;

  // Attribute tuples: per-node runs of attr_pool_ delimited by attr_range_
  // (node_count + 1 offsets). The pool is always heap-owned — AttrEntry
  // holds a Value (possibly a string), so snapshot loads materialize it
  // from the interned on-disk attribute column — but the offsets column is
  // borrowable. Held by shared_ptr so update epochs that leave every
  // attribute untouched alias the pool instead of deep-copying its strings.
  std::shared_ptr<const std::vector<AttrEntry>> attr_pool_ =
      std::make_shared<const std::vector<AttrEntry>>();
  Column<uint64_t> attr_range_;

  // Full adjacency: per-node runs of (other, label) rows sorted by
  // HalfEdgeLess, delimited by node_count + 1 offsets.
  Column<HalfEdge> out_pool_;
  Column<HalfEdge> in_pool_;
  Column<uint64_t> out_range_;
  Column<uint64_t> in_range_;
  size_t edge_count_ = 0;

  // Label-partitioned adjacency: per direction, all neighbors concatenated
  // grouped by (node, label) with ascending ids within a group; `*_slices_`
  // holds each node's label runs and `*_slice_range_` (n + 1 entries) each
  // node's run window. Built in Build(); adds ~4 bytes per half-edge.
  Column<NodeId> out_nbrs_;
  Column<NodeId> in_nbrs_;
  Column<LabelSlice> out_slices_;
  Column<LabelSlice> in_slices_;
  Column<uint64_t> out_slice_range_;
  Column<uint64_t> in_slice_range_;

  // Label buckets: dense CSR indexed by node-label SymbolId — bucket l is
  // bucket_nodes_[bucket_range_[l] .. bucket_range_[l + 1]), ascending.
  Column<NodeId> bucket_nodes_;
  Column<uint64_t> bucket_range_;

  // Attribute domain ranges, dense by attribute SymbolId (count == 0 rows
  // mean "attribute never appears").
  Column<AttrRange> attr_ranges_;

  // The typed columns of one label: one per attribute some bucket node
  // carries, in ascending attribute id.
  struct LabelColumns {
    std::vector<SymbolId> attrs;
    std::vector<AttrColumn> columns;
  };

  // Typed attribute columns, dense by node-label SymbolId (null for empty
  // buckets). Shared per label, so an update epoch aliases every label
  // whose bucket and member tuples it left alone.
  std::vector<std::shared_ptr<const LabelColumns>> attr_columns_;

  // Each node's position in its label bucket (bucket_nodes_ inverted).
  std::vector<uint32_t> bucket_pos_;

  // Builds attr_columns_ and bucket_pos_ from the final buckets and
  // tuples. With `prev` (the previous epoch), only the labels in `touched`
  // (sorted) get new columns; the rest alias prev's columns.
  void FinalizeAttrColumns(const Graph* prev = nullptr,
                           const std::vector<SymbolId>& touched = {});

  // The typed columns of the label whose bucket is `bucket`.
  std::shared_ptr<const LabelColumns> BuildLabelColumns(NodeSpan bucket) const;

  Dictionary node_labels_;
  Dictionary edge_labels_;
  Dictionary attr_names_;

  // Behind a pointer so the Graph stays movable (the store holds a mutex).
  std::unique_ptr<LiteralStore> literal_store_;

  // Epoch bookkeeping (see identity()/generation()/frozen()). Stamped by
  // GraphBuilder::Build(), GraphSnapshot::Load() and ApplyUpdate().
  uint64_t identity_ = 0;
  uint64_t generation_ = 0;
  bool frozen_ = false;
};

/// Incrementally assembles a Graph. Duplicate edges (same endpoints + label)
/// are collapsed; attribute tuples are sorted and de-duplicated by attribute
/// (last write wins). Per-node growable state lives in the builder; Build()
/// flattens it into the Graph's frozen columns.
class GraphBuilder {
 public:
  GraphBuilder() = default;

  /// Adds a node with the given label name; returns its id.
  NodeId AddNode(std::string_view label);

  /// Sets (or overwrites) attribute `name` of node v.
  void SetAttr(NodeId v, std::string_view name, Value value);

  /// Adds directed edge u -> v with the given label name.
  void AddEdge(NodeId u, NodeId v, std::string_view label);

  /// Id-based variants for callers that pre-intern symbols.
  NodeId AddNodeById(SymbolId label);
  void SetAttrById(NodeId v, SymbolId attr, Value value);
  void AddEdgeById(NodeId u, NodeId v, SymbolId label);

  Dictionary& node_labels() { return node_labels_; }
  Dictionary& edge_labels() { return edge_labels_; }
  Dictionary& attr_names() { return attr_names_; }

  size_t node_count() const { return labels_.size(); }

  /// Finalizes: sorts adjacency, drops duplicate edges, builds the label
  /// index and attribute ranges. The builder is left empty.
  Graph Build();

 private:
  Dictionary node_labels_;
  Dictionary edge_labels_;
  Dictionary attr_names_;
  std::vector<SymbolId> labels_;
  std::vector<std::vector<AttrEntry>> attrs_;
  std::vector<std::vector<HalfEdge>> out_;
  std::vector<std::vector<HalfEdge>> in_;
};

namespace graph_internal {

/// Canonical adjacency order: by far endpoint, then edge label. Every
/// per-node adjacency run (builder output and incremental-update overlays
/// alike) is sorted by this predicate.
bool HalfEdgeLess(const HalfEdge& a, const HalfEdge& b);

/// Folds one attribute value into the per-attribute domain ranges, growing
/// `ranges` on demand. GraphBuilder::Build() and the incremental updater
/// (src/graph/update.cc) share this fold so a rescanned range is bit-equal
/// to a rebuilt one — the fold is order-dependent for attributes mixing
/// string and numeric values, so rescans must visit nodes in id order.
void FoldAttrRange(std::vector<AttrRange>& ranges, SymbolId attr,
                   const Value& value);

/// Appends the label-partitioned mirror of one node's (other, label)-sorted
/// adjacency run: neighbors grouped by label (stable, so each label's run
/// stays ascending by NodeId) into `nbrs`, one LabelSlice per distinct
/// label into `slices`. `scratch` is caller-provided to amortize the
/// per-node sort buffer. Shared by Build() and the incremental updater.
void PartitionAdjacency(const HalfEdge* adj, size_t count,
                        std::vector<HalfEdge>& scratch,
                        std::vector<NodeId>& nbrs,
                        std::vector<Graph::LabelSlice>& slices);

/// Next process-unique graph identity (used by GraphBuilder::Build()).
uint64_t NextGraphIdentity();

}  // namespace graph_internal

}  // namespace whyq

#endif  // WHYQ_GRAPH_GRAPH_H_
