#include "gen/query_gen.h"

#include <algorithm>
#include <unordered_map>

#include "matcher/matcher.h"

namespace whyq {

namespace {

// One selected template edge over data nodes.
struct TemplateEdge {
  size_t src;  // indices into the witness list
  size_t dst;
  SymbolId label;
};

// Can `to` be reached from `from` in the directed template (for the
// cyclic/acyclic extra-edge decision)?
bool Reaches(const std::vector<TemplateEdge>& edges, size_t n, size_t from,
             size_t to) {
  std::vector<uint8_t> seen(n, 0);
  std::vector<size_t> stack{from};
  seen[from] = 1;
  while (!stack.empty()) {
    size_t at = stack.back();
    stack.pop_back();
    if (at == to) return true;
    for (const TemplateEdge& e : edges) {
      if (e.src == at && !seen[e.dst]) {
        seen[e.dst] = 1;
        stack.push_back(e.dst);
      }
    }
  }
  return false;
}

}  // namespace

const char* QueryTopologyName(QueryTopology t) {
  switch (t) {
    case QueryTopology::kTree:
      return "tree";
    case QueryTopology::kAcyclic:
      return "acyclic";
    case QueryTopology::kCyclic:
      return "cyclic";
  }
  return "?";
}

std::optional<GeneratedQuery> GenerateQuery(const Graph& g,
                                            const QueryGenConfig& cfg,
                                            Rng& rng) {
  if (g.node_count() == 0) return std::nullopt;

  for (size_t attempt = 0; attempt < cfg.max_attempts; ++attempt) {
    // 1. Carve a connected template out of G by random expansion.
    size_t tree_edges = cfg.topology == QueryTopology::kTree
                            ? cfg.edges
                            : (cfg.edges > 1 ? cfg.edges - 1 : cfg.edges);
    std::vector<NodeId> witness;
    std::unordered_map<NodeId, size_t> index_of;
    std::vector<TemplateEdge> edges;

    NodeId seed = static_cast<NodeId>(rng.Index(g.node_count()));
    if (g.out_edges(seed).empty() && g.in_edges(seed).empty()) continue;
    witness.push_back(seed);
    index_of[seed] = 0;

    bool stuck = false;
    while (edges.size() < tree_edges) {
      bool expanded = false;
      for (size_t tries = 0; tries < 16 && !expanded; ++tries) {
        size_t at = rng.Index(witness.size());
        NodeId v = witness[at];
        const auto& out = g.out_edges(v);
        const auto& in = g.in_edges(v);
        size_t total = out.size() + in.size();
        if (total == 0) continue;
        size_t pick = rng.Index(total);
        bool forward = pick < out.size();
        const HalfEdge& he = forward ? out[pick] : in[pick - out.size()];
        if (index_of.count(he.other)) continue;  // need a fresh node
        size_t idx = witness.size();
        witness.push_back(he.other);
        index_of[he.other] = idx;
        if (forward) {
          edges.push_back(TemplateEdge{at, idx, he.label});
        } else {
          edges.push_back(TemplateEdge{idx, at, he.label});
        }
        expanded = true;
      }
      if (!expanded) {
        stuck = true;
        break;
      }
    }
    if (stuck) continue;

    // 2. Topology: add one extra witnessed edge for acyclic/cyclic shapes.
    if (cfg.topology != QueryTopology::kTree && cfg.edges > 1) {
      std::vector<TemplateEdge> options;
      for (size_t i = 0; i < witness.size(); ++i) {
        for (const HalfEdge& he : g.out_edges(witness[i])) {
          auto it = index_of.find(he.other);
          if (it == index_of.end()) continue;
          size_t j = it->second;
          if (i == j) continue;
          bool used = false;
          for (const TemplateEdge& e : edges) {
            if (e.src == i && e.dst == j && e.label == he.label) {
              used = true;
              break;
            }
          }
          if (used) continue;
          bool closes_cycle = Reaches(edges, witness.size(), j, i);
          if (cfg.topology == QueryTopology::kCyclic && closes_cycle) {
            options.push_back(TemplateEdge{i, j, he.label});
          }
          if (cfg.topology == QueryTopology::kAcyclic && !closes_cycle) {
            options.push_back(TemplateEdge{i, j, he.label});
          }
        }
      }
      if (options.empty()) continue;  // retry with a new template
      edges.push_back(options[rng.Index(options.size())]);
    }

    // 3. Build the query: labels from witnesses, literals satisfied by the
    // witness values (numeric bounds with slack; string equalities).
    Query q;
    for (NodeId v : witness) q.AddNode(g.label(v));
    for (const TemplateEdge& e : edges) {
      q.AddEdge(static_cast<QNodeId>(e.src), static_cast<QNodeId>(e.dst),
                e.label);
    }
    for (size_t i = 0; i < witness.size(); ++i) {
      const auto& attrs = g.attrs(witness[i]);
      if (attrs.empty()) continue;
      size_t want = std::min(cfg.literals_per_node, attrs.size());
      std::vector<size_t> picks = rng.SampleDistinct(attrs.size(), want);
      for (size_t k : picks) {
        const AttrEntry& a = attrs[k];
        Literal l;
        l.attr = a.attr;
        if (a.value.is_numeric()) {
          const AttrRange* r = g.RangeOf(a.attr);
          double span = (r != nullptr && r->numeric) ? (r->max - r->min)
                                                     : 100.0;
          double delta = cfg.slack * span * rng.Double();
          if (rng.Chance(0.5)) {
            l.op = CompareOp::kLe;
            l.constant = a.value.is_int()
                             ? Value(static_cast<int64_t>(
                                   a.value.numeric() + delta))
                             : Value(a.value.numeric() + delta);
          } else {
            l.op = CompareOp::kGe;
            l.constant = a.value.is_int()
                             ? Value(static_cast<int64_t>(
                                   a.value.numeric() - delta))
                             : Value(a.value.numeric() - delta);
          }
        } else {
          l.op = CompareOp::kEq;
          l.constant = a.value;
        }
        q.AddLiteral(static_cast<QNodeId>(i), std::move(l));
      }
    }

    // 4. Output node: prefer nodes whose label is shared widely enough to
    // make Why-not questions posable.
    std::vector<QNodeId> order(q.node_count());
    for (QNodeId u = 0; u < q.node_count(); ++u) order[u] = u;
    std::shuffle(order.begin(), order.end(), rng.engine());
    std::sort(order.begin(), order.end(), [&](QNodeId a, QNodeId b) {
      return g.NodesWithLabel(q.node(a).label).size() >
             g.NodesWithLabel(q.node(b).label).size();
    });
    q.SetOutput(order[0]);

    // 5. Accept only when the answer cardinality is in range. The attempts
    // match unrelated queries, so each gets a fresh context (a memo is
    // never evicted).
    std::vector<NodeId> answers = Matcher(g).MatchOutput(q);
    if (answers.size() < cfg.min_answers ||
        answers.size() > cfg.max_answers) {
      continue;
    }
    GeneratedQuery out;
    out.query = std::move(q);
    out.witness = std::move(witness);
    out.answers = std::move(answers);
    return out;
  }
  return std::nullopt;
}

}  // namespace whyq
