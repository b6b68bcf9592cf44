#include "graph/update.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "common/check.h"

namespace whyq {

namespace {

using graph_internal::FoldAttrRange;
using graph_internal::HalfEdgeLess;
using graph_internal::PartitionAdjacency;

/// Inserts `he` into an (other, label)-sorted run; false if already present.
bool InsertEdgeSorted(std::vector<HalfEdge>& adj, HalfEdge he) {
  auto it = std::lower_bound(adj.begin(), adj.end(), he, HalfEdgeLess);
  if (it != adj.end() && *it == he) return false;
  adj.insert(it, he);
  return true;
}

/// Erases `he` from an (other, label)-sorted run; false if absent.
bool EraseEdgeSorted(std::vector<HalfEdge>& adj, HalfEdge he) {
  auto it = std::lower_bound(adj.begin(), adj.end(), he, HalfEdgeLess);
  if (it == adj.end() || !(*it == he)) return false;
  adj.erase(it);
  return true;
}

/// Any symbol common to two sorted unique id lists?
bool AnyCommonSymbol(const std::vector<SymbolId>& a,
                     const std::vector<SymbolId>& b) {
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      return true;
    }
  }
  return false;
}

std::vector<SymbolId> SortedIds(const std::set<SymbolId>& ids) {
  return std::vector<SymbolId>(ids.begin(), ids.end());
}

}  // namespace

UpdateOp UpdateOp::AddNode(std::string_view label) {
  UpdateOp op;
  op.kind = kAddNode;
  op.name = std::string(label);
  return op;
}

UpdateOp UpdateOp::DeleteNode(NodeId v) {
  UpdateOp op;
  op.kind = kDeleteNode;
  op.node = v;
  return op;
}

UpdateOp UpdateOp::AddEdge(NodeId u, NodeId v, std::string_view label) {
  UpdateOp op;
  op.kind = kAddEdge;
  op.node = u;
  op.other = v;
  op.name = std::string(label);
  return op;
}

UpdateOp UpdateOp::DeleteEdge(NodeId u, NodeId v, std::string_view label) {
  UpdateOp op;
  op.kind = kDeleteEdge;
  op.node = u;
  op.other = v;
  op.name = std::string(label);
  return op;
}

UpdateOp UpdateOp::SetAttr(NodeId v, std::string_view attr, Value value) {
  UpdateOp op;
  op.kind = kSetAttr;
  op.node = v;
  op.name = std::string(attr);
  op.value = std::move(value);
  return op;
}

UpdateOp UpdateOp::DelAttr(NodeId v, std::string_view attr) {
  UpdateOp op;
  op.kind = kDelAttr;
  op.node = v;
  op.name = std::string(attr);
  return op;
}

const char* UpdateStatusName(UpdateStatus s) {
  switch (s) {
    case UpdateStatus::kOk:
      return "ok";
    case UpdateStatus::kFrozen:
      return "frozen";
    case UpdateStatus::kNoSuchNode:
      return "no-such-node";
    case UpdateStatus::kNoSuchEdge:
      return "no-such-edge";
    case UpdateStatus::kNoSuchAttr:
      return "no-such-attr";
    case UpdateStatus::kBadOp:
      return "bad-op";
  }
  return "unknown";
}

std::string UpdateDelta::ToString() const {
  std::ostringstream os;
  os << "+" << nodes_added << "/-" << nodes_deleted << " nodes, "
     << "+" << edges_added << "/-" << edges_deleted << " edges, "
     << "+" << attrs_set << "/-" << attrs_deleted << " attrs"
     << " (labels touched: " << node_labels.size() << " node, "
     << edge_labels.size() << " edge, " << attrs.size() << " attr)";
  return os.str();
}

bool SymbolFootprint::Intersects(const UpdateDelta& delta) const {
  return AnyCommonSymbol(node_labels, delta.node_labels) ||
         AnyCommonSymbol(edge_labels, delta.edge_labels) ||
         AnyCommonSymbol(attrs, delta.attrs);
}

/// Stages one batch against a base graph, then materializes the next epoch
/// either incrementally (touched columns rebuilt, untouched ones shared
/// copy-on-write) or through a full GraphBuilder rebuild. Both materializers
/// read the same staged logical state, so op semantics and validation cannot
/// diverge between them — the equivalence suite then pins that their OUTPUT
/// (snapshot bytes, fingerprints, answers) is identical too.
class GraphUpdater {
 public:
  explicit GraphUpdater(const Graph& g)
      : g_(g),
        n0_(g.node_count()),
        node_labels_(g.node_labels()),
        edge_labels_(g.edge_labels()),
        attr_names_(g.attr_names()) {
    if (auto tomb = node_labels_.Find(kTombstoneLabel)) tomb_ = *tomb;
  }

  bool Stage(const UpdateBatch& batch, UpdateResult* result);
  void MaterializeIncremental(Graph* out);
  void MaterializeByRebuild(Graph* out);

 private:
  // Per-attribute domain-range maintenance plan. A batch that only ADDS
  // numeric values to an attribute extends the existing range in O(adds);
  // anything else (overwrite, delete, string add, tombstone clear) forces a
  // rescan of the attribute's final values in node-id order, because the
  // Build() fold is order-dependent for mixed string/numeric domains.
  struct RangePlan {
    bool rescan = false;
    std::vector<Value> added;  // numeric values, fold-extended when !rescan
  };

  size_t NewCount() const { return new_labels_.size(); }
  size_t FinalCount() const { return n0_ + new_labels_.size(); }

  SymbolId FinalLabel(NodeId v) const {
    if (v >= n0_) return new_labels_[v - n0_];
    auto it = relabel_.find(v);
    return it != relabel_.end() ? it->second : g_.label(v);
  }
  bool Tombstoned(NodeId v) const {
    return tomb_ != kInvalidSymbol && FinalLabel(v) == tomb_;
  }
  bool ValidLiveNode(NodeId v) const { return v < FinalCount() && !Tombstoned(v); }

  // Lazy adjacency / attribute overlays: first touch copies the base run.
  std::vector<HalfEdge>& TouchOut(NodeId v) {
    auto it = out_over_.find(v);
    if (it == out_over_.end()) {
      EdgeSpan s = g_.out_edges(v);
      it = out_over_.emplace(v, std::vector<HalfEdge>(s.begin(), s.end())).first;
    }
    return it->second;
  }
  std::vector<HalfEdge>& TouchIn(NodeId v) {
    auto it = in_over_.find(v);
    if (it == in_over_.end()) {
      EdgeSpan s = g_.in_edges(v);
      it = in_over_.emplace(v, std::vector<HalfEdge>(s.begin(), s.end())).first;
    }
    return it->second;
  }
  std::vector<AttrEntry>& TouchAttrs(NodeId v) {
    auto it = attr_over_.find(v);
    if (it == attr_over_.end()) {
      AttrSpan s = g_.attrs(v);
      it = attr_over_.emplace(v, std::vector<AttrEntry>(s.begin(), s.end()))
               .first;
    }
    return it->second;
  }

  // Current (mid-batch) views, overlay-or-base.
  EdgeSpan CurOut(NodeId v) const {
    auto it = out_over_.find(v);
    if (it != out_over_.end()) return EdgeSpan(it->second.data(), it->second.size());
    return g_.out_edges(v);
  }
  EdgeSpan CurIn(NodeId v) const {
    auto it = in_over_.find(v);
    if (it != in_over_.end()) return EdgeSpan(it->second.data(), it->second.size());
    return g_.in_edges(v);
  }
  AttrSpan CurAttrs(NodeId v) const {
    auto it = attr_over_.find(v);
    if (it != attr_over_.end()) return AttrSpan(it->second.data(), it->second.size());
    return g_.attrs(v);
  }
  bool CurHasEdge(NodeId u, NodeId v, SymbolId label) const {
    EdgeSpan adj = CurOut(u);
    HalfEdge probe{v, label};
    return std::binary_search(adj.begin(), adj.end(), probe, HalfEdgeLess);
  }
  const Value* CurAttr(NodeId v, SymbolId attr) const {
    AttrSpan tuple = CurAttrs(v);
    auto it = std::lower_bound(
        tuple.begin(), tuple.end(), attr,
        [](const AttrEntry& e, SymbolId a) { return e.attr < a; });
    if (it == tuple.end() || it->attr != attr) return nullptr;
    return &it->value;
  }

  void NoteRemovedEdge(SymbolId label) {
    d_edge_labels_.insert(label);
    ++delta_.edges_deleted;
    edges_changed_ = true;
  }

  bool Fail(UpdateResult* result, UpdateStatus status, size_t op_index,
            const std::string& msg) {
    result->status = status;
    result->failed_op = op_index;
    result->error = "op " + std::to_string(op_index) + ": " + msg;
    return false;
  }

  const Graph& g_;
  const size_t n0_;

  // Dictionaries evolve as the batch interns new symbols, in op order — the
  // rebuild path is handed the same tables, so ids match across paths.
  Dictionary node_labels_;
  Dictionary edge_labels_;
  Dictionary attr_names_;
  SymbolId tomb_ = kInvalidSymbol;

  std::vector<SymbolId> new_labels_;        // labels of nodes >= n0_
  std::map<NodeId, SymbolId> relabel_;      // tombstoned pre-existing nodes
  std::map<NodeId, std::vector<HalfEdge>> out_over_;
  std::map<NodeId, std::vector<HalfEdge>> in_over_;
  std::map<NodeId, std::vector<AttrEntry>> attr_over_;
  std::map<SymbolId, RangePlan> range_plan_;

  bool edges_changed_ = false;
  bool attrs_changed_ = false;

  UpdateDelta delta_;
  std::set<SymbolId> d_node_labels_;
  std::set<SymbolId> d_edge_labels_;
  std::set<SymbolId> d_attrs_;
};

bool GraphUpdater::Stage(const UpdateBatch& batch, UpdateResult* result) {
  if (g_.frozen()) {
    result->status = UpdateStatus::kFrozen;
    result->failed_op = 0;
    result->error =
        "graph is frozen (snapshot-backed, columns alias the read-only "
        "mapped image); re-load it from text form to update";
    return false;
  }

  for (size_t i = 0; i < batch.ops.size(); ++i) {
    const UpdateOp& op = batch.ops[i];
    switch (op.kind) {
      case UpdateOp::kAddNode: {
        if (op.name.empty()) {
          return Fail(result, UpdateStatus::kBadOp, i, "empty node label");
        }
        if (op.name == kTombstoneLabel) {
          return Fail(result, UpdateStatus::kBadOp, i,
                      "label '" + std::string(kTombstoneLabel) +
                          "' is reserved for deleted nodes");
        }
        SymbolId l = node_labels_.Intern(op.name);
        NodeId id = static_cast<NodeId>(FinalCount());
        new_labels_.push_back(l);
        out_over_[id];
        in_over_[id];
        attr_over_[id];
        d_node_labels_.insert(l);
        ++delta_.nodes_added;
        break;
      }
      case UpdateOp::kDeleteNode: {
        NodeId v = op.node;
        if (v >= FinalCount() || Tombstoned(v)) {
          return Fail(result, UpdateStatus::kNoSuchNode, i,
                      "delete of invalid or already-deleted node " +
                          std::to_string(v));
        }
        if (tomb_ == kInvalidSymbol) tomb_ = node_labels_.Intern(kTombstoneLabel);

        // Cascade: remove every incident edge, then clear the tuple. Out
        // edges first (this also consumes self-loops from the in list), then
        // whatever remains inbound.
        std::vector<HalfEdge> outs(CurOut(v).begin(), CurOut(v).end());
        for (const HalfEdge& he : outs) {
          WHYQ_CHECK(EraseEdgeSorted(TouchIn(he.other), HalfEdge{v, he.label}));
          NoteRemovedEdge(he.label);
        }
        TouchOut(v).clear();
        std::vector<HalfEdge> ins(CurIn(v).begin(), CurIn(v).end());
        for (const HalfEdge& he : ins) {
          WHYQ_CHECK(EraseEdgeSorted(TouchOut(he.other), HalfEdge{v, he.label}));
          NoteRemovedEdge(he.label);
        }
        TouchIn(v).clear();

        for (const AttrEntry& e : CurAttrs(v)) {
          range_plan_[e.attr].rescan = true;
          d_attrs_.insert(e.attr);
          ++delta_.attrs_deleted;
          attrs_changed_ = true;
        }
        TouchAttrs(v).clear();

        SymbolId old_label = FinalLabel(v);
        if (v >= n0_) {
          new_labels_[v - n0_] = tomb_;
        } else {
          relabel_[v] = tomb_;
        }
        d_node_labels_.insert(old_label);
        d_node_labels_.insert(tomb_);
        ++delta_.nodes_deleted;
        break;
      }
      case UpdateOp::kAddEdge: {
        if (op.name.empty()) {
          return Fail(result, UpdateStatus::kBadOp, i, "empty edge label");
        }
        if (!ValidLiveNode(op.node) || !ValidLiveNode(op.other)) {
          return Fail(result, UpdateStatus::kNoSuchNode, i,
                      "edge endpoint invalid or deleted (" +
                          std::to_string(op.node) + " -> " +
                          std::to_string(op.other) + ")");
        }
        SymbolId l = edge_labels_.Intern(op.name);
        if (CurHasEdge(op.node, op.other, l)) break;  // duplicate: no-op
        WHYQ_CHECK(InsertEdgeSorted(TouchOut(op.node), HalfEdge{op.other, l}));
        WHYQ_CHECK(InsertEdgeSorted(TouchIn(op.other), HalfEdge{op.node, l}));
        d_edge_labels_.insert(l);
        ++delta_.edges_added;
        edges_changed_ = true;
        break;
      }
      case UpdateOp::kDeleteEdge: {
        if (!ValidLiveNode(op.node) || !ValidLiveNode(op.other)) {
          return Fail(result, UpdateStatus::kNoSuchNode, i,
                      "edge endpoint invalid or deleted (" +
                          std::to_string(op.node) + " -> " +
                          std::to_string(op.other) + ")");
        }
        std::optional<SymbolId> l = edge_labels_.Find(op.name);
        if (!l || !CurHasEdge(op.node, op.other, *l)) {
          return Fail(result, UpdateStatus::kNoSuchEdge, i,
                      "edge " + std::to_string(op.node) + " -[" + op.name +
                          "]-> " + std::to_string(op.other) +
                          " does not exist");
        }
        WHYQ_CHECK(EraseEdgeSorted(TouchOut(op.node), HalfEdge{op.other, *l}));
        WHYQ_CHECK(EraseEdgeSorted(TouchIn(op.other), HalfEdge{op.node, *l}));
        NoteRemovedEdge(*l);
        break;
      }
      case UpdateOp::kSetAttr: {
        if (op.name.empty()) {
          return Fail(result, UpdateStatus::kBadOp, i, "empty attribute name");
        }
        if (!ValidLiveNode(op.node)) {
          return Fail(result, UpdateStatus::kNoSuchNode, i,
                      "set-attr on invalid or deleted node " +
                          std::to_string(op.node));
        }
        SymbolId a = attr_names_.Intern(op.name);
        RangePlan& plan = range_plan_[a];
        std::vector<AttrEntry>& tuple = TouchAttrs(op.node);
        auto it = std::lower_bound(
            tuple.begin(), tuple.end(), a,
            [](const AttrEntry& e, SymbolId id) { return e.attr < id; });
        if (it != tuple.end() && it->attr == a) {
          it->value = op.value;  // overwrite: old value leaves the domain
          plan.rescan = true;
        } else {
          tuple.insert(it, AttrEntry{a, op.value});
          // A pure numeric add extends the range in O(1); a string add can
          // flip the domain non-numeric at this node's position, which is
          // order-dependent — rescan.
          if (op.value.is_numeric() && !plan.rescan) {
            plan.added.push_back(op.value);
          } else {
            plan.rescan = true;
          }
        }
        d_attrs_.insert(a);
        ++delta_.attrs_set;
        attrs_changed_ = true;
        break;
      }
      case UpdateOp::kDelAttr: {
        if (!ValidLiveNode(op.node)) {
          return Fail(result, UpdateStatus::kNoSuchNode, i,
                      "del-attr on invalid or deleted node " +
                          std::to_string(op.node));
        }
        std::optional<SymbolId> a = attr_names_.Find(op.name);
        if (!a || CurAttr(op.node, *a) == nullptr) {
          return Fail(result, UpdateStatus::kNoSuchAttr, i,
                      "node " + std::to_string(op.node) +
                          " does not carry attribute '" + op.name + "'");
        }
        std::vector<AttrEntry>& tuple = TouchAttrs(op.node);
        auto it = std::lower_bound(
            tuple.begin(), tuple.end(), *a,
            [](const AttrEntry& e, SymbolId id) { return e.attr < id; });
        tuple.erase(it);
        range_plan_[*a].rescan = true;
        d_attrs_.insert(*a);
        ++delta_.attrs_deleted;
        attrs_changed_ = true;
        break;
      }
    }
  }

  delta_.node_labels = SortedIds(d_node_labels_);
  delta_.edge_labels = SortedIds(d_edge_labels_);
  delta_.attrs = SortedIds(d_attrs_);
  result->status = UpdateStatus::kOk;
  result->error.clear();
  result->failed_op = 0;
  result->delta = delta_;
  return true;
}

void GraphUpdater::MaterializeIncremental(Graph* out) {
  const size_t n_new = FinalCount();
  Graph g;

  // --- Node labels -------------------------------------------------------
  if (relabel_.empty() && new_labels_.empty()) {
    g.node_label_.ShareFrom(g_.node_label_);
  } else {
    std::vector<SymbolId> labels(g_.node_label_.begin(), g_.node_label_.end());
    for (const auto& [v, l] : relabel_) labels[v] = l;
    labels.insert(labels.end(), new_labels_.begin(), new_labels_.end());
    g.node_label_.Own(std::move(labels));
  }

  // Extends an offsets column from n0_+1 to n_new+1 rows (new nodes carry
  // empty runs), or shares it outright when the node count is unchanged.
  auto extend_offsets = [&](Column<uint64_t>& dst, const Column<uint64_t>& src) {
    if (n_new == n0_) {
      dst.ShareFrom(src);
      return;
    }
    std::vector<uint64_t> offsets(src.begin(), src.end());
    offsets.resize(n_new + 1, offsets.back());
    dst.Own(std::move(offsets));
  };

  // --- Attribute tuples --------------------------------------------------
  if (!attrs_changed_) {
    g.attr_pool_ = g_.attr_pool_;
    extend_offsets(g.attr_range_, g_.attr_range_);
  } else {
    std::vector<AttrEntry> pool;
    std::vector<uint64_t> range(1, 0);
    for (NodeId v = 0; v < n_new; ++v) {
      AttrSpan tuple = CurAttrs(v);
      pool.insert(pool.end(), tuple.begin(), tuple.end());
      range.push_back(pool.size());
    }
    pool.shrink_to_fit();
    g.attr_pool_ =
        std::make_shared<const std::vector<AttrEntry>>(std::move(pool));
    g.attr_range_.Own(std::move(range));
  }

  // --- Adjacency (full + label-partitioned) ------------------------------
  if (!edges_changed_) {
    g.out_pool_.ShareFrom(g_.out_pool_);
    g.in_pool_.ShareFrom(g_.in_pool_);
    g.out_nbrs_.ShareFrom(g_.out_nbrs_);
    g.in_nbrs_.ShareFrom(g_.in_nbrs_);
    g.out_slices_.ShareFrom(g_.out_slices_);
    g.in_slices_.ShareFrom(g_.in_slices_);
    extend_offsets(g.out_range_, g_.out_range_);
    extend_offsets(g.in_range_, g_.in_range_);
    extend_offsets(g.out_slice_range_, g_.out_slice_range_);
    extend_offsets(g.in_slice_range_, g_.in_slice_range_);
  } else {
    // Splice: touched nodes re-partitioned from their overlay runs, every
    // untouched node's rows block-copied with slice offsets shifted. The
    // nbr window of node v coincides with its pool window (both append the
    // same per-node edge count in id order).
    std::vector<HalfEdge> scratch;
    auto splice = [&](const std::map<NodeId, std::vector<HalfEdge>>& over,
                      const Column<HalfEdge>& base_pool,
                      const Column<uint64_t>& base_range,
                      const Column<NodeId>& base_nbrs,
                      const Column<Graph::LabelSlice>& base_slices,
                      const Column<uint64_t>& base_slice_range,
                      Column<HalfEdge>& out_pool, Column<uint64_t>& out_range,
                      Column<NodeId>& out_nbrs,
                      Column<Graph::LabelSlice>& out_slices,
                      Column<uint64_t>& out_slice_range) {
      std::vector<HalfEdge> pool;
      std::vector<uint64_t> range(1, 0);
      std::vector<NodeId> nbrs;
      std::vector<Graph::LabelSlice> slices;
      std::vector<uint64_t> slice_range(1, 0);
      for (NodeId v = 0; v < n_new; ++v) {
        auto it = over.find(v);
        if (it == over.end()) {
          uint64_t b = base_range[v];
          uint64_t e = base_range[v + 1];
          pool.insert(pool.end(), base_pool.data() + b, base_pool.data() + e);
          // Untouched rows keep their relative layout; only the absolute
          // slice offsets shift by this node's new window start.
          int64_t shift = static_cast<int64_t>(nbrs.size()) -
                          static_cast<int64_t>(b);
          nbrs.insert(nbrs.end(), base_nbrs.data() + b, base_nbrs.data() + e);
          uint64_t sb = base_slice_range[v];
          uint64_t se = base_slice_range[v + 1];
          for (uint64_t s = sb; s < se; ++s) {
            Graph::LabelSlice row = base_slices[s];
            row.begin = static_cast<uint64_t>(
                static_cast<int64_t>(row.begin) + shift);
            row.end =
                static_cast<uint64_t>(static_cast<int64_t>(row.end) + shift);
            slices.push_back(row);
          }
        } else {
          const std::vector<HalfEdge>& adj = it->second;
          pool.insert(pool.end(), adj.begin(), adj.end());
          PartitionAdjacency(adj.data(), adj.size(), scratch, nbrs, slices);
        }
        range.push_back(pool.size());
        slice_range.push_back(slices.size());
      }
      out_pool.Own(std::move(pool));
      out_range.Own(std::move(range));
      out_nbrs.Own(std::move(nbrs));
      out_slices.Own(std::move(slices));
      out_slice_range.Own(std::move(slice_range));
    };
    splice(out_over_, g_.out_pool_, g_.out_range_, g_.out_nbrs_,
           g_.out_slices_, g_.out_slice_range_, g.out_pool_, g.out_range_,
           g.out_nbrs_, g.out_slices_, g.out_slice_range_);
    splice(in_over_, g_.in_pool_, g_.in_range_, g_.in_nbrs_, g_.in_slices_,
           g_.in_slice_range_, g.in_pool_, g.in_range_, g.in_nbrs_,
           g.in_slices_, g.in_slice_range_);
  }
  g.edge_count_ = g_.edge_count_ + delta_.edges_added - delta_.edges_deleted;

  // --- Label buckets -----------------------------------------------------
  if (relabel_.empty() && new_labels_.empty()) {
    g.bucket_nodes_.ShareFrom(g_.bucket_nodes_);
    g.bucket_range_.ShareFrom(g_.bucket_range_);
  } else {
    size_t label_space = node_labels_.size();
    for (NodeId v = 0; v < n_new; ++v) {
      label_space =
          std::max(label_space, static_cast<size_t>(FinalLabel(v)) + 1);
    }
    // Per-label membership deltas, both id-ascending: relabel_ and the new
    // node range are iterated in id order, and new ids exceed old ones.
    std::map<SymbolId, std::vector<NodeId>> removes;
    std::map<SymbolId, std::vector<NodeId>> adds;
    for (const auto& [v, l] : relabel_) {
      removes[g_.label(v)].push_back(v);
      adds[l].push_back(v);
    }
    for (size_t i = 0; i < new_labels_.size(); ++i) {
      adds[new_labels_[i]].push_back(static_cast<NodeId>(n0_ + i));
    }
    std::vector<NodeId> nodes;
    std::vector<uint64_t> range(1, 0);
    std::vector<NodeId> merged;
    size_t old_space = g_.bucket_range_.size() ? g_.bucket_range_.size() - 1 : 0;
    for (size_t l = 0; l < label_space; ++l) {
      NodeSpan base = l < old_space
                          ? NodeSpan(g_.bucket_nodes_.data() +
                                         g_.bucket_range_[l],
                                     g_.bucket_range_[l + 1] -
                                         g_.bucket_range_[l])
                          : NodeSpan();
      auto rit = removes.find(static_cast<SymbolId>(l));
      auto ait = adds.find(static_cast<SymbolId>(l));
      if (rit == removes.end() && ait == adds.end()) {
        nodes.insert(nodes.end(), base.begin(), base.end());
      } else {
        merged.clear();
        if (rit != removes.end()) {
          std::set_difference(base.begin(), base.end(), rit->second.begin(),
                              rit->second.end(), std::back_inserter(merged));
        } else {
          merged.assign(base.begin(), base.end());
        }
        size_t mid = nodes.size();
        nodes.insert(nodes.end(), merged.begin(), merged.end());
        if (ait != adds.end()) {
          size_t end = nodes.size();
          nodes.insert(nodes.end(), ait->second.begin(), ait->second.end());
          std::inplace_merge(nodes.begin() + mid, nodes.begin() + end,
                             nodes.end());
        }
      }
      range.push_back(nodes.size());
    }
    g.bucket_nodes_.Own(std::move(nodes));
    g.bucket_range_.Own(std::move(range));
  }

  // --- Attribute domain ranges -------------------------------------------
  if (range_plan_.empty()) {
    g.attr_ranges_.ShareFrom(g_.attr_ranges_);
  } else {
    std::vector<AttrRange> ranges(g_.attr_ranges_.begin(),
                                  g_.attr_ranges_.end());
    // The rebuild fold sizes the vector to the maximum attribute id present
    // in the final graph; match that (an update deleting the largest-id
    // attribute everywhere shrinks the column).
    size_t final_size = 0;
    for (NodeId v = 0; v < n_new; ++v) {
      for (const AttrEntry& e : CurAttrs(v)) {
        final_size = std::max(final_size, static_cast<size_t>(e.attr) + 1);
      }
    }
    ranges.resize(final_size);
    std::vector<bool> rescan(final_size, false);
    bool any_rescan = false;
    for (const auto& [a, plan] : range_plan_) {
      // The O(adds) extend is sound only onto an empty or still-numeric
      // base domain: folding a numeric value into a non-numeric domain is a
      // position-dependent no-op on min/max, so the rebuild fold (node-id
      // order) and an append-at-the-end extend would disagree.
      bool base_numeric_or_empty =
          static_cast<size_t>(a) >= g_.attr_ranges_.size() ||
          g_.attr_ranges_[a].count == 0 || g_.attr_ranges_[a].numeric != 0;
      if (plan.rescan || !base_numeric_or_empty) {
        if (static_cast<size_t>(a) < final_size) {
          ranges[a] = AttrRange{};
          rescan[a] = true;
          any_rescan = true;
        }
      } else {
        for (const Value& v : plan.added) FoldAttrRange(ranges, a, v);
      }
    }
    if (any_rescan) {
      // One pass over the final tuples in node-id order — the same order
      // (and therefore the same fold result) as a full rebuild.
      for (NodeId v = 0; v < n_new; ++v) {
        for (const AttrEntry& e : CurAttrs(v)) {
          if (rescan[e.attr]) FoldAttrRange(ranges, e.attr, e.value);
        }
      }
    }
    g.attr_ranges_.Own(std::move(ranges));
  }

  // --- Typed attribute columns ------------------------------------------
  // Rebuilt for the labels whose bucket or member tuples changed; every
  // other label aliases the previous epoch's columns.
  std::set<SymbolId> touched(new_labels_.begin(), new_labels_.end());
  for (const auto& [v, l] : relabel_) {
    touched.insert(g_.label(v));
    touched.insert(l);
  }
  for (const auto& entry : attr_over_) touched.insert(FinalLabel(entry.first));
  g.FinalizeAttrColumns(&g_, SortedIds(touched));

  // --- Symbol tables & epoch stamp ---------------------------------------
  g.node_labels_ = std::move(node_labels_);
  g.edge_labels_ = std::move(edge_labels_);
  g.attr_names_ = std::move(attr_names_);
  g.identity_ = g_.identity_;
  g.generation_ = g_.generation_ + 1;
  g.frozen_ = false;
  *out = std::move(g);
}

void GraphUpdater::MaterializeByRebuild(Graph* out) {
  const size_t n_new = FinalCount();
  GraphBuilder b;
  b.node_labels() = node_labels_;
  b.edge_labels() = edge_labels_;
  b.attr_names() = attr_names_;
  for (NodeId v = 0; v < n_new; ++v) b.AddNodeById(FinalLabel(v));
  for (NodeId v = 0; v < n_new; ++v) {
    for (const AttrEntry& e : CurAttrs(v)) b.SetAttrById(v, e.attr, e.value);
    for (const HalfEdge& he : CurOut(v)) b.AddEdgeById(v, he.other, he.label);
  }
  Graph g = b.Build();
  g.identity_ = g_.identity_;
  g.generation_ = g_.generation_ + 1;
  g.frozen_ = false;
  *out = std::move(g);
}

bool Graph::ApplyUpdate(const UpdateBatch& batch, Graph* out,
                        UpdateResult* result) const {
  GraphUpdater updater(*this);
  if (!updater.Stage(batch, result)) return false;
  updater.MaterializeIncremental(out);
  return true;
}

bool ApplyUpdateByRebuild(const Graph& g, const UpdateBatch& batch, Graph* out,
                          UpdateResult* result) {
  GraphUpdater updater(g);
  if (!updater.Stage(batch, result)) return false;
  updater.MaterializeByRebuild(out);
  return true;
}

}  // namespace whyq
