#include "rewrite_diff.h"

#include <algorithm>
#include <sstream>

namespace whyq {

namespace {

// DOT string literals need '"' and '\\' escaped.
std::string Escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

bool HasLiteral(const Query& q, QNodeId u, const Literal& l) {
  if (u >= q.node_count()) return false;
  const auto& lits = q.node(u).literals;
  return std::find(lits.begin(), lits.end(), l) != lits.end();
}

bool HasEdge(const Query& q, const QueryEdge& e) {
  const auto& es = q.edges();
  return std::find(es.begin(), es.end(), e) != es.end();
}

}  // namespace

std::string DiffQueries(const Graph& g, const Query& before,
                        const Query& after) {
  std::ostringstream os;
  size_t common_nodes = std::min(before.node_count(), after.node_count());
  for (QNodeId u = 0; u < common_nodes; ++u) {
    for (const Literal& l : before.node(u).literals) {
      const auto& lits = after.node(u).literals;
      if (std::find(lits.begin(), lits.end(), l) == lits.end()) {
        os << "- u" << u << ": " << l.ToString(g) << '\n';
      }
    }
    for (const Literal& l : after.node(u).literals) {
      const auto& lits = before.node(u).literals;
      if (std::find(lits.begin(), lits.end(), l) == lits.end()) {
        os << "+ u" << u << ": " << l.ToString(g) << '\n';
      }
    }
  }
  for (QNodeId u = static_cast<QNodeId>(common_nodes);
       u < after.node_count(); ++u) {
    os << "+ node u" << u << ' ' << g.NodeLabelName(after.node(u).label);
    for (const Literal& l : after.node(u).literals) {
      os << " [" << l.ToString(g) << ']';
    }
    os << '\n';
  }
  auto edge_str = [&](const QueryEdge& e) {
    std::ostringstream s;
    s << 'u' << e.src << " -" << g.EdgeLabelName(e.label) << "-> u" << e.dst;
    return s.str();
  };
  for (const QueryEdge& e : before.edges()) {
    const auto& es = after.edges();
    if (std::find(es.begin(), es.end(), e) == es.end()) {
      os << "- " << edge_str(e) << '\n';
    }
  }
  for (const QueryEdge& e : after.edges()) {
    const auto& es = before.edges();
    if (std::find(es.begin(), es.end(), e) == es.end()) {
      os << "+ " << edge_str(e) << '\n';
    }
  }
  return os.str();
}

std::string RewriteToDot(const Query& before, const Query& after,
                         const Graph& g, const std::string& graph_name) {
  std::ostringstream os;
  os << "digraph " << graph_name << " {\n"
     << "  node [shape=box, fontsize=10];\n";
  size_t max_nodes = std::max(before.node_count(), after.node_count());
  for (QNodeId u = 0; u < max_nodes; ++u) {
    bool in_before = u < before.node_count();
    bool in_after = u < after.node_count();
    // Node label: the after-side view (with per-literal diff colors done
    // via markers); nodes only in `after` are new (green), only in
    // `before` cannot happen (rewrites append).
    const Query& src = in_after ? after : before;
    std::ostringstream label;
    label << g.NodeLabelName(src.node(u).label);
    if (in_before && in_after) {
      for (const Literal& l : before.node(u).literals) {
        label << "\\n" << (HasLiteral(after, u, l) ? "" : "[-] ")
              << l.ToString(g);
      }
      for (const Literal& l : after.node(u).literals) {
        if (!HasLiteral(before, u, l)) {
          label << "\\n[+] " << l.ToString(g);
        }
      }
    } else {
      for (const Literal& l : src.node(u).literals) {
        label << "\\n" << l.ToString(g);
      }
    }
    os << "  u" << u << " [label=\"" << Escape(label.str()) << "\"";
    if (u == after.output()) os << ", peripheries=2";
    if (!in_before) os << ", color=green";
    os << "];\n";
  }
  for (const QueryEdge& e : before.edges()) {
    os << "  u" << e.src << " -> u" << e.dst << " [label=\""
       << Escape(g.EdgeLabelName(e.label)) << "\"";
    if (!HasEdge(after, e)) os << ", color=red, style=dashed";
    os << "];\n";
  }
  for (const QueryEdge& e : after.edges()) {
    if (HasEdge(before, e)) continue;
    os << "  u" << e.src << " -> u" << e.dst << " [label=\""
       << Escape(g.EdgeLabelName(e.label)) << "\", color=green];\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace whyq
