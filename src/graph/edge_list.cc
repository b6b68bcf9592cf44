#include "graph/edge_list.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "common/rng.h"

namespace whyq {

std::optional<Graph> ReadEdgeList(std::istream& is,
                                  const EdgeListOptions& options,
                                  std::string* error) {
  GraphBuilder b;
  SymbolId node_label = b.node_labels().Intern(options.node_label);
  SymbolId edge_label = b.edge_labels().Intern(options.edge_label);
  std::unordered_map<uint64_t, NodeId> id_map;
  auto intern_node = [&](uint64_t raw) {
    auto it = id_map.find(raw);
    if (it != id_map.end()) return it->second;
    NodeId v = b.AddNodeById(node_label);
    id_map.emplace(raw, v);
    return v;
  };

  std::string line;
  size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    uint64_t src = 0;
    uint64_t dst = 0;
    if (!(ls >> src >> dst)) {
      if (error) {
        *error = "line " + std::to_string(line_no) + ": expected 'src dst'";
      }
      return std::nullopt;
    }
    // Intern into locals first: both calls mutate the builder, and C++
    // argument evaluation order is unspecified.
    NodeId from = intern_node(src);
    NodeId to = intern_node(dst);
    if (options.drop_self_loops && src == dst) continue;  // node still added
    b.AddEdgeById(from, to, edge_label);
  }
  return b.Build();
}

std::optional<Graph> ReadEdgeListFromFile(const std::string& path,
                                          const EdgeListOptions& options,
                                          std::string* error) {
  std::ifstream is(path);
  if (!is) {
    if (error) *error = "cannot open " + path;
    return std::nullopt;
  }
  return ReadEdgeList(is, options, error);
}

Graph DecorateGraph(const Graph& g, const DecorationConfig& config) {
  Rng rng(config.seed);
  GraphBuilder b;
  // Preserve labels (same names, same order of first use).
  for (NodeId v = 0; v < g.node_count(); ++v) {
    NodeId nv = b.AddNode(g.NodeLabelName(g.label(v)));
    (void)nv;
    // Keep any existing attributes.
    for (const AttrEntry& e : g.attrs(v)) {
      b.SetAttr(v, g.AttrName(e.attr), e.value);
    }
    // Synthesize new ones (coarse leveled domains; see dataset profiles).
    size_t n_attrs = std::max<size_t>(
        1, static_cast<size_t>(
               std::lround(config.avg_attrs * (0.6 + 0.8 * rng.Double()))));
    n_attrs = std::min(n_attrs, config.attr_pool);
    for (size_t k = 0; k < n_attrs; ++k) {
      size_t slot = rng.Index(config.attr_pool);
      std::string name = NumberedName("a", slot);
      if (rng.Double() < config.numeric_frac) {
        int64_t levels = 4 + static_cast<int64_t>(slot % 13);
        int64_t step = 1 + static_cast<int64_t>(slot % 7) * 10;
        b.SetAttr(v, name, Value(rng.Uniform(0, levels) * step));
      } else {
        std::string value = NumberedName("v", slot);
        value += '_';
        value += std::to_string(rng.Zipf(20, 1.2));
        b.SetAttr(v, name, Value(std::move(value)));
      }
    }
  }
  for (NodeId v = 0; v < g.node_count(); ++v) {
    for (const HalfEdge& e : g.out_edges(v)) {
      b.AddEdge(v, e.other, g.EdgeLabelName(e.label));
    }
  }
  return b.Build();
}

}  // namespace whyq
