#include "why/picky.h"

#include <algorithm>
#include <bit>
#include <memory>
#include <tuple>
#include <unordered_map>

#include "common/check.h"
#include "graph/graph_stats.h"
#include "matcher/path_index.h"
#include "rewrite/cost_model.h"
#include "why/mbs.h"

namespace whyq {

namespace {

// Stamp marks over the graph's nodes, shared by every neighborhood BFS and
// membership set of one generation: each costs its own size, and the
// universe-sized array is allocated once.
class Marks {
 public:
  explicit Marks(size_t universe) : stamp_(universe, 0) {}

  // A fresh, empty set.
  uint32_t Fresh() { return ++current_; }
  // Adds v to set `s`; false when it was there already.
  bool Insert(uint32_t s, NodeId v) {
    WHYQ_CHECK(v < stamp_.size());
    if (stamp_[v] == s) return false;
    stamp_[v] = s;
    return true;
  }
  bool Contains(uint32_t s, NodeId v) const {
    WHYQ_CHECK(v < stamp_.size());
    return stamp_[v] == s;
  }

  // Adds v to set `s` at position `at` unless it is there already; Pos(v)
  // is its position while it stays in `s`. The positions are written only
  // for members, so their array is allocated on first use and never
  // cleared.
  bool Insert(uint32_t s, NodeId v, uint32_t at) {
    if (!Insert(s, v)) return false;
    if (pos_ == nullptr) {
      pos_ = std::make_unique_for_overwrite<uint32_t[]>(stamp_.size());
    }
    pos_[v] = at;
    return true;
  }
  uint32_t Pos(NodeId v) const { return pos_[v]; }

 private:
  std::vector<uint32_t> stamp_;
  std::unique_ptr<uint32_t[]> pos_;
  uint32_t current_ = 0;
};

// Q's output component, from one BFS over Q: each node's undirected
// distance to the output, the component's nodes ascending, and the
// output's eccentricity.
struct OutputDistances {
  explicit OutputDistances(const Query& q) : dist(q.DistancesToOutput()) {
    for (QNodeId u = 0; u < dist.size(); ++u) {
      if (dist[u] == Query::kUnreachable) continue;
      component.push_back(u);
      depth = std::max(depth, dist[u]);
    }
  }

  std::vector<size_t> dist;  // d(u, u_o), kUnreachable off the component
  std::vector<QNodeId> component;
  // The deepest level any Filter reads: N(V, u) keeps the nodes within
  // d(u, u_o) of V, so every neighborhood BFS stops here. It is at most
  // Q's diameter d_Q, the paper's N_d depth.
  size_t depth = 0;
};

// A d-hop neighborhood N_d(seeds) grouped by label. Each label's nodes are
// kept in BFS discovery order, which is nondecreasing depth, so the nodes
// of one label within depth d are a prefix of its run.
class Layered {
 public:
  Layered() = default;

  // A BFS over both edge directions: seeds first, then out- and
  // in-neighbors of each node in discovery order, up to depth max_depth.
  // Every node within depth D is discovered before any node at depth D is
  // expanded, so a deeper bound would only append nodes: each label's
  // prefix within max_depth is the same whatever the bound.
  Layered(const Graph& g, const std::vector<NodeId>& seeds, size_t max_depth,
          Marks& marks) {
    const uint32_t seen = marks.Fresh();
    std::vector<NodeId> order;
    std::vector<uint32_t> depth;
    for (NodeId s : seeds) {
      if (marks.Insert(seen, s)) {
        order.push_back(s);
        depth.push_back(0);
      }
    }
    for (size_t head = 0; head < order.size(); ++head) {
      const uint32_t next = depth[head] + 1;
      if (depth[head] == max_depth) continue;
      auto visit = [&](EdgeSpan adj) {
        for (const HalfEdge& e : adj) {
          if (marks.Insert(seen, e.other)) {
            order.push_back(e.other);
            depth.push_back(next);
          }
        }
      };
      visit(g.out_edges(order[head]));
      visit(g.in_edges(order[head]));
    }
    // Stable counting sort by label.
    SymbolId top = 0;
    for (NodeId v : order) top = std::max(top, g.label(v));
    begin_.assign(static_cast<size_t>(top) + 2, 0);
    for (NodeId v : order) ++begin_[g.label(v) + 1];
    for (size_t l = 1; l < begin_.size(); ++l) begin_[l] += begin_[l - 1];
    std::vector<uint32_t> fill(begin_.begin(), begin_.end() - 1);
    nodes_.resize(order.size());
    depth_.resize(order.size());
    for (size_t i = 0; i < order.size(); ++i) {
      uint32_t at = fill[g.label(order[i])]++;
      nodes_[at] = order[i];
      depth_[at] = depth[i];
    }
  }

  // The nodes of `label` within depth `max_depth`, in BFS order.
  NodeSpan Filter(SymbolId label, size_t max_depth) const {
    if (static_cast<size_t>(label) + 1 >= begin_.size()) return {};
    auto first = depth_.begin() + begin_[label];
    auto last = std::upper_bound(first, depth_.begin() + begin_[label + 1],
                                 max_depth);
    return NodeSpan(nodes_.data() + begin_[label],
                    static_cast<size_t>(last - first));
  }

 private:
  std::vector<NodeId> nodes_;    // grouped by label, BFS order within one
  std::vector<uint32_t> depth_;  // aligned with nodes_
  std::vector<uint32_t> begin_;  // label l's run: [begin_[l], begin_[l+1])
};

// Attribute facts about one label's node lists, read from the label's
// columns (a row per node via Graph::BucketPosition), and their capped
// active domains by rank.
class Domains {
 public:
  Domains(const Graph& g, size_t cap) : g_(g), cap_(cap) {}

  // The capped dom(A, nodes) of a `label` node list, ascending by rank.
  std::vector<uint32_t> Capped(SymbolId label, SymbolId attr,
                               NodeSpan nodes) {
    return domains_.Ranks(g_, g_.AttrColumnOf(label, attr), nodes, cap_);
  }

  // Distinct attribute names present on any node of `nodes` (all of
  // `label`), ascending: the label's columns some node has a row in.
  std::vector<SymbolId> AttrsOn(SymbolId label, NodeSpan nodes) const {
    std::vector<SymbolId> out;
    for (SymbolId attr : g_.AttrsOfLabel(label)) {
      if (CarriesAttr(label, attr, nodes)) out.push_back(attr);
    }
    return out;
  }

  bool CarriesAttr(SymbolId label, SymbolId attr, NodeSpan nodes) const {
    const AttrColumn* col = g_.AttrColumnOf(label, attr);
    if (col == nullptr) return false;
    for (NodeId v : nodes) {
      if (col->kinds[g_.BucketPosition(v)] != AttrColumn::kAbsent) {
        return true;
      }
    }
    return false;
  }

  // Does any node of `nodes` carry attr with a value of another rank than
  // `rank` (or lack attr)?
  bool SomeDiffersFrom(SymbolId label, SymbolId attr, NodeSpan nodes,
                       uint32_t rank) const {
    const AttrColumn* col = g_.AttrColumnOf(label, attr);
    for (NodeId v : nodes) {
      if (col == nullptr || col->ranks[g_.BucketPosition(v)] != rank) {
        return true;
      }
    }
    return false;
  }

 private:
  const Graph& g_;
  size_t cap_;
  ActiveDomains domains_;
};

// The capped domains of one side of one query node (its neighborhood in
// one layer), each attribute's computed once.
class SideDomains {
 public:
  SideDomains(const Graph& g, Domains& dom, const Layered& layer,
              SymbolId label, size_t depth)
      : g_(g), dom_(dom), layer_(layer), label_(label), depth_(depth) {
    // One entry per column of the label at most, so the references Capped
    // hands out stay valid.
    memo_.reserve(g.AttrsOfLabel(label).size());
  }

  // dom.Capped(label, attr, layer.Filter(label, depth)).
  const std::vector<uint32_t>& Capped(SymbolId attr) {
    for (const auto& [a, ranks] : memo_) {
      if (a == attr) return ranks;
    }
    if (g_.AttrColumnOf(label_, attr) == nullptr) return none_;
    return memo_
        .emplace_back(attr,
                      dom_.Capped(label_, attr, layer_.Filter(label_, depth_)))
        .second;
  }

 private:
  const Graph& g_;
  Domains& dom_;
  const Layered& layer_;
  SymbolId label_;
  size_t depth_;
  std::vector<std::pair<SymbolId, std::vector<uint32_t>>> memo_;
  const std::vector<uint32_t> none_;
};

void PushOp(std::vector<EditOp>& ops, EditOp op, size_t cap) {
  if (ops.size() >= cap) return;
  ops.push_back(std::move(op));
}

Literal MakeLiteral(SymbolId attr, CompareOp op, Value c) {
  Literal l;
  l.attr = attr;
  l.op = op;
  l.constant = std::move(c);
  return l;
}

void DedupOps(std::vector<EditOp>& ops) {
  std::vector<EditOp> out;
  for (EditOp& op : ops) {
    bool dup = false;
    for (const EditOp& seen : out) {
      if (seen == op) {
        dup = true;
        break;
      }
    }
    if (!dup) out.push_back(std::move(op));
  }
  ops = std::move(out);
}

}  // namespace

std::vector<EditOp> GenPickyWhy(const Graph& g, const Query& q,
                                const std::vector<NodeId>& answers,
                                const std::vector<NodeId>& unexpected,
                                const AnswerConfig& cfg,
                                const PickyLimits& limits) {
  std::vector<EditOp> ops;
  const size_t cap = cfg.max_picky_ops;
  if (unexpected.empty()) return ops;
  const OutputDistances reach(q);
  const std::vector<size_t>& dist = reach.dist;
  const std::vector<QNodeId>& component = reach.component;

  Marks marks(g.node_count());
  const uint32_t unexpected_set = marks.Fresh();
  for (NodeId v : unexpected) marks.Insert(unexpected_set, v);
  std::vector<NodeId> desired;
  for (NodeId v : answers) {
    if (!marks.Contains(unexpected_set, v)) desired.push_back(v);
  }

  Layered picky_layer(g, unexpected, reach.depth, marks);
  Layered desired_layer =
      desired.empty() ? Layered() : Layered(g, desired, reach.depth, marks);
  Layered answer_layer(g, answers, reach.depth, marks);
  Domains dom(g, limits.max_domain_values);

  // AddE operators are assembled separately and appended after the node
  // operators: when the picky cap bites, the cheap-and-usually-pickier
  // literal operators survive (the paper's generation order is AddE-first,
  // but order only matters under truncation; see DESIGN.md).
  std::vector<EditOp> edge_ops;

  // ---- AddE ----
  // (a) Between two existing query nodes: insert (u1 -> u2, l) when a data
  // edge with that label runs from u1's answer-side neighborhood into
  // u2's. Each node of some u2's neighborhood carries a mask with a bit
  // per such u2 (by component index), so one pass over u1's out-edges
  // tests every u2 at once. Each u2's labels are appended in component
  // order, each u2's in the order its first edge was scanned.
  const size_t words = (component.size() + 63) / 64;
  const uint32_t in_sides = marks.Fresh();
  std::vector<uint64_t> masks;  // `words` per member of in_sides
  for (size_t k = 0; k < component.size(); ++k) {
    QNodeId u = component[k];
    for (NodeId v : answer_layer.Filter(q.node(u).label, dist[u])) {
      if (marks.Insert(in_sides, v,
                       static_cast<uint32_t>(masks.size() / words))) {
        masks.resize(masks.size() + words, 0);
      }
      masks[marks.Pos(v) * words + k / 64] |= uint64_t{1} << (k % 64);
    }
  }
  std::vector<std::vector<SymbolId>> labels_to(component.size());
  for (size_t k1 = 0; k1 < component.size(); ++k1) {
    QNodeId u1 = component[k1];
    for (std::vector<SymbolId>& labels : labels_to) labels.clear();
    for (NodeId v1 : answer_layer.Filter(q.node(u1).label, dist[u1])) {
      for (const HalfEdge& e : g.out_edges(v1)) {
        if (!marks.Contains(in_sides, e.other)) continue;
        const uint64_t* mask = &masks[marks.Pos(e.other) * words];
        for (size_t w = 0; w < words; ++w) {
          for (uint64_t bits = mask[w]; bits != 0; bits &= bits - 1) {
            size_t k2 = w * 64 + static_cast<size_t>(std::countr_zero(bits));
            if (k2 == k1) continue;
            std::vector<SymbolId>& labels = labels_to[k2];
            if (std::find(labels.begin(), labels.end(), e.label) ==
                labels.end()) {
              labels.push_back(e.label);
            }
          }
        }
      }
    }
    for (size_t k2 = 0; k2 < component.size(); ++k2) {
      QNodeId u2 = component[k2];
      for (SymbolId label : labels_to[k2]) {
        // Skip edges already in Q (duplicates are never picky).
        QueryEdge probe{u1, u2, label};
        if (std::find(q.edges().begin(), q.edges().end(), probe) !=
            q.edges().end()) {
          continue;
        }
        EditOp op;
        op.kind = OpKind::kAddE;
        op.u = u1;
        op.v = u2;
        op.edge_label = label;
        PushOp(edge_ops, std::move(op), cap);
      }
    }
  }

  // (b) To a fresh node: group data edges leaving the answer-side
  // neighborhood of u1 by (direction, edge label, neighbor label); each
  // group yields a bare structural operator plus one-literal composites
  // resolved against the picky/desired sides (the paper's template
  // resolution).
  struct Group {
    bool forward = true;
    SymbolId elabel = kInvalidSymbol;
    SymbolId nlabel = kInvalidSymbol;
    std::vector<NodeId> desired_nbrs;  // neighbors of non-picky side
    std::vector<NodeId> picky_nbrs;    // neighbors of picky side
  };
  std::vector<Group> groups;
  // Per direction: (edge label, neighbor label), packed -> index in groups.
  std::unordered_map<uint64_t, size_t> group_at[2];
  std::vector<size_t> group_order;
  for (QNodeId u1 : component) {
    size_t d1 = dist[u1];
    SymbolId l1 = q.node(u1).label;
    const uint32_t picky1 = marks.Fresh();
    for (NodeId v : picky_layer.Filter(l1, d1)) marks.Insert(picky1, v);

    // One flat group per key, in first-seen order, visited below in key
    // order (direction, edge label, neighbor label), so the label cap keeps
    // the same groups whatever order they were seen in.
    groups.clear();
    group_at[0].clear();
    group_at[1].clear();
    constexpr size_t kMaxNbrSamples = 256;
    for (NodeId v1 : answer_layer.Filter(l1, d1)) {
      bool from_picky = marks.Contains(picky1, v1);
      auto scan = [&](EdgeSpan adj, bool forward) {
        for (const HalfEdge& e : adj) {
          SymbolId nlabel = g.label(e.other);
          auto [it, fresh] = group_at[forward].try_emplace(
              (uint64_t{e.label} << 32) | nlabel, groups.size());
          if (fresh) groups.push_back(Group{forward, e.label, nlabel, {}, {}});
          Group& grp = groups[it->second];
          std::vector<NodeId>& bucket =
              from_picky ? grp.picky_nbrs : grp.desired_nbrs;
          if (bucket.size() < kMaxNbrSamples) bucket.push_back(e.other);
        }
      };
      scan(g.out_edges(v1), true);
      scan(g.in_edges(v1), false);
    }
    group_order.resize(groups.size());
    for (size_t i = 0; i < groups.size(); ++i) group_order[i] = i;
    std::sort(group_order.begin(), group_order.end(),
              [&](size_t a, size_t b) {
                const Group& x = groups[a];
                const Group& y = groups[b];
                return std::tie(x.forward, x.elabel, x.nlabel) <
                       std::tie(y.forward, y.elabel, y.nlabel);
              });
    size_t labels_used = 0;
    for (size_t gi : group_order) {
      if (labels_used >= limits.max_new_node_labels) break;
      const Group& grp = groups[gi];
      const bool forward = grp.forward;
      const SymbolId elabel = grp.elabel;
      const SymbolId nlabel = grp.nlabel;
      // Skip when Q already constrains u1 by such an edge.
      bool already = false;
      for (const QueryEdge& e : q.edges()) {
        QNodeId other = kInvalidQNode;
        if (forward && e.src == u1) other = e.dst;
        if (!forward && e.dst == u1) other = e.src;
        if (other != kInvalidQNode && e.label == elabel &&
            q.node(other).label == nlabel) {
          already = true;
          break;
        }
      }
      if (already) continue;
      ++labels_used;

      EditOp base;
      base.kind = OpKind::kAddE;
      base.u = u1;
      base.edge_label = elabel;
      base.edge_forward = forward;
      base.new_node = NewNodeSpec{nlabel, {}};
      PushOp(edge_ops, base, cap);
      size_t variants = 0;
      constexpr size_t kMaxVariantsPerGroup = 8;

      // One-literal composites over attributes of the adjacent nodes.
      NodeSpan desired_nbrs(grp.desired_nbrs.data(), grp.desired_nbrs.size());
      NodeSpan picky_nbrs(grp.picky_nbrs.data(), grp.picky_nbrs.size());
      for (SymbolId attr : dom.AttrsOn(nlabel, desired_nbrs)) {
        const AttrColumn& col = *g.AttrColumnOf(nlabel, attr);
        std::vector<uint32_t> dom_desired =
            dom.Capped(nlabel, attr, desired_nbrs);
        std::vector<uint32_t> dom_picky = dom.Capped(nlabel, attr, picky_nbrs);
        for (uint32_t a : dom_desired) {
          if (variants >= kMaxVariantsPerGroup) break;
          if (!dom.SomeDiffersFrom(nlabel, attr, picky_nbrs, a)) continue;
          EditOp op = base;
          op.new_node->literals.push_back(
              MakeLiteral(attr, CompareOp::kEq, col.ValueAt(a)));
          PushOp(edge_ops, std::move(op), cap);
          ++variants;
        }
        for (uint32_t a : dom_picky) {
          if (variants >= kMaxVariantsPerGroup) break;
          if (!col.numeric_rank(a)) continue;
          EditOp lt = base;
          lt.new_node->literals.push_back(
              MakeLiteral(attr, CompareOp::kLt, col.ValueAt(a)));
          PushOp(edge_ops, std::move(lt), cap);
          EditOp gt = base;
          gt.new_node->literals.push_back(
              MakeLiteral(attr, CompareOp::kGt, col.ValueAt(a)));
          PushOp(edge_ops, std::move(gt), cap);
          variants += 2;
        }
      }
    }
  }

  // ---- AddL and RfL on existing query nodes ----
  for (QNodeId u : component) {
    SymbolId lbl = q.node(u).label;
    NodeSpan picky_n = picky_layer.Filter(lbl, dist[u]);
    NodeSpan desired_n = desired_layer.Filter(lbl, dist[u]);
    if (picky_n.empty()) continue;
    SideDomains picky_dom(g, dom, picky_layer, lbl, dist[u]);
    SideDomains desired_dom(g, dom, desired_layer, lbl, dist[u]);
    // The materialized values of a capped domain's ranks.
    auto values = [&](SymbolId attr, const std::vector<uint32_t>& ranks) {
      const AttrColumn* col = g.AttrColumnOf(lbl, attr);
      std::vector<Value> out;
      out.reserve(ranks.size());
      for (uint32_t r : ranks) out.push_back(col->ValueAt(r));
      return out;
    };

    // RfL on existing literals (dom over the picky side).
    for (const Literal& l : q.node(u).literals) {
      std::vector<Value> dom_picky = values(l.attr, picky_dom.Capped(l.attr));
      if (IsUpperBound(l.op)) {
        for (const Value& a : dom_picky) {
          std::optional<int> cmp = l.constant.Compare(a);
          if (!cmp.has_value() || *cmp < 0) continue;  // need c >= a
          Literal after = MakeLiteral(l.attr, CompareOp::kLt, a);
          if (after == l) continue;
          EditOp op;
          op.kind = OpKind::kRfL;
          op.u = u;
          op.before = l;
          op.after = after;
          PushOp(ops, std::move(op), cap);
        }
      } else if (IsLowerBound(l.op)) {
        for (const Value& a : dom_picky) {
          std::optional<int> cmp = l.constant.Compare(a);
          if (!cmp.has_value() || *cmp > 0) continue;  // need c <= a
          Literal after = MakeLiteral(l.attr, CompareOp::kGt, a);
          if (after == l) continue;
          EditOp op;
          op.kind = OpKind::kRfL;
          op.u = u;
          op.before = l;
          op.after = after;
          PushOp(ops, std::move(op), cap);
        }
      }
      // Deviation from the paper: its RfL rule for '=' literals re-targets
      // the equality to another answer-side value, but that is a lateral
      // move, not a refinement — it can ADD answers, contradicting Lemma 1
      // (whose monotonicity this implementation's guard-aware enumeration
      // and Aff()-based estimation rely on). Equality literals are already
      // maximally tight, so no RfL is generated for them (see DESIGN.md).
    }

    // AddL, case 1 — pairing constraints: a bounded literal on a common
    // attribute with no opposite bound gets its pair, resolved over the
    // picky-side domain (Example 5: Price <= 650 pairs with Price > 120).
    for (const Literal& l : q.node(u).literals) {
      bool common = dom.CarriesAttr(lbl, l.attr, picky_n) &&
                    dom.CarriesAttr(lbl, l.attr, desired_n);
      if (!common) continue;
      bool has_upper = false;
      bool has_lower = false;
      for (const Literal& other : q.node(u).literals) {
        if (other.attr != l.attr) continue;
        has_upper |= IsUpperBound(other.op);
        has_lower |= IsLowerBound(other.op);
      }
      std::vector<Value> dom_picky = values(l.attr, picky_dom.Capped(l.attr));
      if (IsLowerBound(l.op) && !has_upper) {
        for (const Value& a : dom_picky) {
          EditOp op;
          op.kind = OpKind::kAddL;
          op.u = u;
          op.after = MakeLiteral(l.attr, CompareOp::kLt, a);
          PushOp(ops, std::move(op), cap);
        }
      }
      if (IsUpperBound(l.op) && !has_lower) {
        for (const Value& a : dom_picky) {
          EditOp op;
          op.kind = OpKind::kAddL;
          op.u = u;
          op.after = MakeLiteral(l.attr, CompareOp::kGt, a);
          PushOp(ops, std::move(op), cap);
        }
      }
    }

    // AddL, case 2 — differential attributes: carried on the desired side
    // but absent from the picky side; requiring them (with a desired-side
    // tolerant bound) prunes picky candidates wholesale.
    std::vector<SymbolId> desired_attrs = dom.AttrsOn(lbl, desired_n);
    for (SymbolId attr : desired_attrs) {
      if (dom.CarriesAttr(lbl, attr, picky_n)) continue;  // not differential
      std::vector<Value> dom_desired = values(attr, desired_dom.Capped(attr));
      if (dom_desired.empty()) continue;
      if (dom_desired.front().is_numeric() &&
          dom_desired.back().is_numeric()) {
        EditOp ge;
        ge.kind = OpKind::kAddL;
        ge.u = u;
        ge.after = MakeLiteral(attr, CompareOp::kGe, dom_desired.front());
        PushOp(ops, std::move(ge), cap);
        EditOp le;
        le.kind = OpKind::kAddL;
        le.u = u;
        le.after = MakeLiteral(attr, CompareOp::kLe, dom_desired.back());
        PushOp(ops, std::move(le), cap);
      } else {
        for (const Value& a : dom_desired) {
          EditOp op;
          op.kind = OpKind::kAddL;
          op.u = u;
          op.after = MakeLiteral(attr, CompareOp::kEq, a);
          PushOp(ops, std::move(op), cap);
        }
      }
    }

    // AddL, case 3 — common attributes not yet constrained at u: equality
    // to a desired-side value some picky node misses, plus bounds cut at
    // picky-side values.
    for (SymbolId attr : desired_attrs) {
      if (!dom.CarriesAttr(lbl, attr, picky_n)) continue;
      bool constrained = false;
      for (const Literal& other : q.node(u).literals) {
        constrained |= other.attr == attr;
      }
      if (constrained) continue;
      const AttrColumn& col = *g.AttrColumnOf(lbl, attr);
      for (uint32_t a : desired_dom.Capped(attr)) {
        if (!dom.SomeDiffersFrom(lbl, attr, picky_n, a)) continue;
        EditOp op;
        op.kind = OpKind::kAddL;
        op.u = u;
        op.after = MakeLiteral(attr, CompareOp::kEq, col.ValueAt(a));
        PushOp(ops, std::move(op), cap);
      }
      for (uint32_t a : picky_dom.Capped(attr)) {
        if (!col.numeric_rank(a)) continue;
        EditOp lt;
        lt.kind = OpKind::kAddL;
        lt.u = u;
        lt.after = MakeLiteral(attr, CompareOp::kLt, col.ValueAt(a));
        PushOp(ops, std::move(lt), cap);
        EditOp gt;
        gt.kind = OpKind::kAddL;
        gt.u = u;
        gt.after = MakeLiteral(attr, CompareOp::kGt, col.ValueAt(a));
        PushOp(ops, std::move(gt), cap);
      }
    }
  }

  for (EditOp& op : edge_ops) PushOp(ops, std::move(op), cap);
  DedupOps(ops);
  return ops;
}

std::vector<EditOp> GenPickyWhyNot(const Graph& g, const Query& q,
                                   const std::vector<NodeId>& missing,
                                   const AnswerConfig& cfg,
                                   const PickyLimits& limits) {
  std::vector<EditOp> ops;
  const size_t cap = cfg.max_picky_ops;
  if (missing.empty()) return ops;
  const OutputDistances reach(q);
  Marks marks(g.node_count());
  Layered missing_layer(g, missing, reach.depth, marks);
  Domains dom(g, limits.max_domain_values);

  for (QNodeId u : reach.component) {
    SymbolId lbl = q.node(u).label;
    SideDomains near(g, dom, missing_layer, lbl, reach.dist[u]);

    for (const Literal& l : q.node(u).literals) {
      // RmL is always available.
      EditOp rm;
      rm.kind = OpKind::kRmL;
      rm.u = u;
      rm.before = l;
      PushOp(ops, std::move(rm), cap);

      // RxL over the missing-side active domain (common attributes only —
      // relaxing toward values nobody near V_C carries cannot help).
      const AttrColumn* col = g.AttrColumnOf(lbl, l.attr);
      for (uint32_t rank : near.Capped(l.attr)) {
        Value a = col->ValueAt(rank);
        std::optional<int> cmp = l.constant.Compare(a);
        if (!cmp.has_value()) continue;
        if ((IsUpperBound(l.op) || l.op == CompareOp::kEq) && *cmp <= 0) {
          Literal after = MakeLiteral(l.attr, CompareOp::kLe, a);
          if (!(after == l)) {
            EditOp op;
            op.kind = OpKind::kRxL;
            op.u = u;
            op.before = l;
            op.after = after;
            PushOp(ops, std::move(op), cap);
          }
        }
        if ((IsLowerBound(l.op) || l.op == CompareOp::kEq) && *cmp >= 0) {
          Literal after = MakeLiteral(l.attr, CompareOp::kGe, a);
          if (!(after == l)) {
            EditOp op;
            op.kind = OpKind::kRxL;
            op.u = u;
            op.before = l;
            op.after = after;
            PushOp(ops, std::move(op), cap);
          }
        }
      }
    }
  }

  for (const QueryEdge& e : q.edges()) {
    EditOp op;
    op.kind = OpKind::kRmE;
    op.u = e.src;
    op.v = e.dst;
    op.edge_label = e.label;
    PushOp(ops, std::move(op), cap);
  }

  DedupOps(ops);
  return ops;
}

void BudgetScreen(std::vector<EditOp> picky, const CostModel& cost,
                  double budget, std::vector<EditOp>* usable,
                  std::vector<double>* costs) {
  for (EditOp& op : picky) {
    double c = cost.Cost(op);
    if (c <= budget + kEps) {
      usable->push_back(std::move(op));
      costs->push_back(c);
    }
  }
}

const PathIndex& SearchPathIndex(const Query& q, const AnswerConfig& cfg,
                                 std::optional<PathIndex>* own) {
  if (cfg.path_index != nullptr) return *cfg.path_index;
  own->emplace(q, cfg.path_index_paths);
  return **own;
}

}  // namespace whyq
