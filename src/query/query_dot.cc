#include "query/query_dot.h"

#include <sstream>

namespace whyq {

namespace {

// DOT string literals need '"' and '\' escaped.
std::string Escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

std::string NodeLabel(const Query& q, const Graph& g, QNodeId u) {
  std::ostringstream os;
  os << g.NodeLabelName(q.node(u).label);
  for (const Literal& l : q.node(u).literals) {
    os << "\\n" << l.ToString(g);
  }
  return Escape(os.str());
}

}  // namespace

std::string QueryToDot(const Query& q, const Graph& g,
                       const std::string& graph_name) {
  std::ostringstream os;
  os << "digraph " << graph_name << " {\n"
     << "  node [shape=box, fontsize=10];\n";
  for (QNodeId u = 0; u < q.node_count(); ++u) {
    os << "  u" << u << " [label=\"" << NodeLabel(q, g, u) << "\"";
    if (u == q.output()) os << ", peripheries=2";
    os << "];\n";
  }
  for (const QueryEdge& e : q.edges()) {
    os << "  u" << e.src << " -> u" << e.dst << " [label=\""
       << Escape(g.EdgeLabelName(e.label)) << "\"];\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace whyq
