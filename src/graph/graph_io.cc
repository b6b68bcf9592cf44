#include "graph/graph_io.h"

#include <charconv>
#include <fstream>
#include <ostream>
#include <sstream>
#include <vector>

namespace whyq {

namespace {

std::string LineError(size_t line_no, const std::string& what) {
  return "line " + std::to_string(line_no) + ": " + what;
}

std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream is(line);
  std::string tok;
  while (is >> tok) out.push_back(tok);
  return out;
}

}  // namespace

std::optional<Value> ParseTypedValue(const std::string& token) {
  if (token.size() < 2 || token[1] != ':') return std::nullopt;
  std::string body = token.substr(2);
  // Each Value is built inside the optional: moving a Value temporary into
  // it trips gcc 12's -Wmaybe-uninitialized under -fsanitize=address.
  switch (token[0]) {
    case 'i': {
      int64_t v = 0;
      auto [ptr, ec] =
          std::from_chars(body.data(), body.data() + body.size(), v);
      if (ec != std::errc() || ptr != body.data() + body.size()) {
        return std::nullopt;
      }
      return std::make_optional<Value>(v);
    }
    case 'd': {
      char* end = nullptr;
      double v = std::strtod(body.c_str(), &end);
      if (end != body.c_str() + body.size() || body.empty()) {
        return std::nullopt;
      }
      return std::make_optional<Value>(v);
    }
    case 's':
      return std::make_optional<Value>(std::move(body));
    default:
      return std::nullopt;
  }
}

std::string FormatTypedValue(const Value& v) {
  if (v.is_int()) return "i:" + v.ToString();
  if (v.is_double()) return "d:" + v.ToString();
  return "s:" + v.as_string();
}

void WriteGraph(const Graph& g, std::ostream& os) {
  os << "# whyq graph v1\n";
  for (NodeId v = 0; v < g.node_count(); ++v) {
    os << "N " << g.NodeLabelName(g.label(v));
    for (const AttrEntry& e : g.attrs(v)) {
      os << ' ' << g.AttrName(e.attr) << '=' << FormatTypedValue(e.value);
    }
    os << '\n';
  }
  for (NodeId v = 0; v < g.node_count(); ++v) {
    for (const HalfEdge& e : g.out_edges(v)) {
      os << "E " << v << ' ' << e.other << ' ' << g.EdgeLabelName(e.label)
         << '\n';
    }
  }
}

bool WriteGraphToFile(const Graph& g, const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  WriteGraph(g, os);
  return static_cast<bool>(os);
}

std::optional<Graph> ReadGraph(std::istream& is, std::string* error) {
  GraphBuilder builder;
  std::string line;
  size_t line_no = 0;
  // Edge lines may appear before all nodes exist only if they reference
  // already-declared ids; we buffer edges and apply them after all nodes.
  struct PendingEdge {
    NodeId src;
    NodeId dst;
    std::string label;
    size_t line_no;
  };
  std::vector<PendingEdge> edges;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::vector<std::string> toks = Tokenize(line);
    if (toks.empty()) continue;
    if (toks[0] == "N") {
      if (toks.size() < 2) {
        if (error) *error = LineError(line_no, "node line needs a label");
        return std::nullopt;
      }
      NodeId v = builder.AddNode(toks[1]);
      for (size_t i = 2; i < toks.size(); ++i) {
        size_t eq = toks[i].find('=');
        if (eq == std::string::npos || eq == 0) {
          if (error) *error = LineError(line_no, "bad attr " + toks[i]);
          return std::nullopt;
        }
        std::optional<Value> val = ParseTypedValue(toks[i].substr(eq + 1));
        if (!val.has_value()) {
          if (error) *error = LineError(line_no, "bad value " + toks[i]);
          return std::nullopt;
        }
        builder.SetAttr(v, toks[i].substr(0, eq), std::move(*val));
      }
    } else if (toks[0] == "E") {
      if (toks.size() != 4) {
        if (error) {
          *error = LineError(line_no, "edge line needs src dst label");
        }
        return std::nullopt;
      }
      PendingEdge e;
      e.src = static_cast<NodeId>(std::strtoul(toks[1].c_str(), nullptr, 10));
      e.dst = static_cast<NodeId>(std::strtoul(toks[2].c_str(), nullptr, 10));
      e.label = toks[3];
      e.line_no = line_no;
      edges.push_back(std::move(e));
    } else {
      if (error) *error = LineError(line_no, "unknown record " + toks[0]);
      return std::nullopt;
    }
  }
  for (const auto& e : edges) {
    if (e.src >= builder.node_count() || e.dst >= builder.node_count()) {
      if (error) *error = LineError(e.line_no, "edge endpoint out of range");
      return std::nullopt;
    }
    builder.AddEdge(e.src, e.dst, e.label);
  }
  return builder.Build();
}

std::optional<Graph> ReadGraphFromFile(const std::string& path,
                                       std::string* error) {
  std::ifstream is(path);
  if (!is) {
    if (error) *error = "cannot open " + path;
    return std::nullopt;
  }
  return ReadGraph(is, error);
}

namespace {

std::optional<NodeId> ParseNodeId(const std::string& tok) {
  uint32_t v = 0;
  auto [ptr, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), v);
  if (ec != std::errc() || ptr != tok.data() + tok.size()) return std::nullopt;
  return static_cast<NodeId>(v);
}

}  // namespace

void WriteUpdateBatch(const UpdateBatch& batch, std::ostream& os) {
  os << "# whyq update-batch v1\n";
  for (const UpdateOp& op : batch.ops) {
    switch (op.kind) {
      case UpdateOp::kAddNode:
        os << "AN " << op.name << '\n';
        break;
      case UpdateOp::kDeleteNode:
        os << "DN " << op.node << '\n';
        break;
      case UpdateOp::kAddEdge:
        os << "AE " << op.node << ' ' << op.other << ' ' << op.name << '\n';
        break;
      case UpdateOp::kDeleteEdge:
        os << "DE " << op.node << ' ' << op.other << ' ' << op.name << '\n';
        break;
      case UpdateOp::kSetAttr:
        os << "SA " << op.node << ' ' << op.name << '='
           << FormatTypedValue(op.value) << '\n';
        break;
      case UpdateOp::kDelAttr:
        os << "DA " << op.node << ' ' << op.name << '\n';
        break;
    }
  }
}

std::optional<UpdateBatch> ReadUpdateBatch(std::istream& is,
                                           std::string* error) {
  UpdateBatch batch;
  std::string line;
  size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::vector<std::string> toks = Tokenize(line);
    if (toks.empty()) continue;
    const std::string& kind = toks[0];
    if (kind == "AN") {
      if (toks.size() != 2) {
        if (error) *error = LineError(line_no, "AN needs a label");
        return std::nullopt;
      }
      batch.ops.push_back(UpdateOp::AddNode(toks[1]));
    } else if (kind == "DN") {
      std::optional<NodeId> v = toks.size() == 2 ? ParseNodeId(toks[1])
                                                 : std::nullopt;
      if (!v) {
        if (error) *error = LineError(line_no, "DN needs a node id");
        return std::nullopt;
      }
      batch.ops.push_back(UpdateOp::DeleteNode(*v));
    } else if (kind == "AE" || kind == "DE") {
      std::optional<NodeId> u =
          toks.size() == 4 ? ParseNodeId(toks[1]) : std::nullopt;
      std::optional<NodeId> v =
          toks.size() == 4 ? ParseNodeId(toks[2]) : std::nullopt;
      if (!u || !v) {
        if (error) {
          *error = LineError(line_no, kind + " needs src dst label");
        }
        return std::nullopt;
      }
      batch.ops.push_back(kind == "AE"
                              ? UpdateOp::AddEdge(*u, *v, toks[3])
                              : UpdateOp::DeleteEdge(*u, *v, toks[3]));
    } else if (kind == "SA") {
      std::optional<NodeId> v =
          toks.size() == 3 ? ParseNodeId(toks[1]) : std::nullopt;
      size_t eq = toks.size() == 3 ? toks[2].find('=') : std::string::npos;
      if (!v || eq == std::string::npos || eq == 0) {
        if (error) {
          *error = LineError(line_no, "SA needs node attr=typed-value");
        }
        return std::nullopt;
      }
      std::optional<Value> val = ParseTypedValue(toks[2].substr(eq + 1));
      if (!val) {
        if (error) *error = LineError(line_no, "bad value " + toks[2]);
        return std::nullopt;
      }
      batch.ops.push_back(
          UpdateOp::SetAttr(*v, toks[2].substr(0, eq), std::move(*val)));
    } else if (kind == "DA") {
      std::optional<NodeId> v =
          toks.size() == 3 ? ParseNodeId(toks[1]) : std::nullopt;
      if (!v) {
        if (error) *error = LineError(line_no, "DA needs node attr");
        return std::nullopt;
      }
      batch.ops.push_back(UpdateOp::DelAttr(*v, toks[2]));
    } else {
      if (error) *error = LineError(line_no, "unknown update op " + kind);
      return std::nullopt;
    }
  }
  return batch;
}

std::optional<UpdateBatch> ReadUpdateBatchFromFile(const std::string& path,
                                                   std::string* error) {
  std::ifstream is(path);
  if (!is) {
    if (error) *error = "cannot open " + path;
    return std::nullopt;
  }
  return ReadUpdateBatch(is, error);
}

}  // namespace whyq
