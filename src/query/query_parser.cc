#include "query/query_parser.h"

#include <sstream>
#include <unordered_map>
#include <vector>

#include "graph/graph_io.h"

namespace whyq {

namespace {

std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream is(line);
  std::string tok;
  while (is >> tok) out.push_back(tok);
  return out;
}

SymbolId ResolveOrInvalid(const Dictionary& dict, const std::string& name) {
  std::optional<SymbolId> id = dict.Find(name);
  return id.has_value() ? *id : kInvalidSymbol;
}

}  // namespace

std::optional<CompareOp> ParseCompareOp(const std::string& token) {
  if (token == "<") return CompareOp::kLt;
  if (token == "<=") return CompareOp::kLe;
  if (token == "=" || token == "==") return CompareOp::kEq;
  if (token == ">=") return CompareOp::kGe;
  if (token == ">") return CompareOp::kGt;
  return std::nullopt;
}

std::optional<Query> ParseQuery(const std::string& text, const Graph& g,
                                std::string* error) {
  Query q;
  std::unordered_map<std::string, QNodeId> names;
  std::istringstream is(text);
  std::string line;
  size_t line_no = 0;
  auto fail = [&](const std::string& what) {
    if (error) *error = "line " + std::to_string(line_no) + ": " + what;
  };
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::vector<std::string> toks = Tokenize(line);
    if (toks.empty()) continue;
    if (toks[0] == "node") {
      if (toks.size() < 3 || (toks.size() - 3) % 3 != 0) {
        fail("node needs: name label (attr op value)*");
        return std::nullopt;
      }
      if (names.count(toks[1])) {
        fail("duplicate node name " + toks[1]);
        return std::nullopt;
      }
      QNodeId u = q.AddNode(ResolveOrInvalid(g.node_labels(), toks[2]));
      names[toks[1]] = u;
      for (size_t i = 3; i + 2 < toks.size(); i += 3) {
        std::optional<CompareOp> op = ParseCompareOp(toks[i + 1]);
        std::optional<Value> val = ParseTypedValue(toks[i + 2]);
        if (!op.has_value() || !val.has_value()) {
          fail("bad literal at token " + toks[i]);
          return std::nullopt;
        }
        Literal l;
        l.attr = ResolveOrInvalid(g.attr_names(), toks[i]);
        l.op = *op;
        l.constant = std::move(*val);
        q.AddLiteral(u, std::move(l));
      }
    } else if (toks[0] == "edge") {
      if (toks.size() != 4) {
        fail("edge needs: src dst label");
        return std::nullopt;
      }
      auto s = names.find(toks[1]);
      auto d = names.find(toks[2]);
      if (s == names.end() || d == names.end()) {
        fail("edge references undeclared node");
        return std::nullopt;
      }
      q.AddEdge(s->second, d->second,
                ResolveOrInvalid(g.edge_labels(), toks[3]));
    } else if (toks[0] == "output") {
      if (toks.size() != 2) {
        fail("output needs exactly one node name");
        return std::nullopt;
      }
      if (q.output() != kInvalidQNode) {
        fail("second output declaration");
        return std::nullopt;
      }
      auto it = names.find(toks[1]);
      if (it == names.end()) {
        fail("output references undeclared node " + toks[1]);
        return std::nullopt;
      }
      q.SetOutput(it->second);
    } else {
      fail("unknown declaration " + toks[0]);
      return std::nullopt;
    }
  }
  std::string verr;
  if (!q.Validate(&verr)) {
    line_no = 0;
    fail(verr);
    return std::nullopt;
  }
  return q;
}

std::string WriteQuery(const Query& q, const Graph& g) {
  std::ostringstream os;
  for (QNodeId u = 0; u < q.node_count(); ++u) {
    os << "node n" << u << ' ' << g.NodeLabelName(q.node(u).label);
    for (const Literal& l : q.node(u).literals) {
      os << ' ' << g.AttrName(l.attr) << ' ' << CompareOpName(l.op) << ' '
         << FormatTypedValue(l.constant);
    }
    os << '\n';
  }
  for (const QueryEdge& e : q.edges()) {
    os << "edge n" << e.src << " n" << e.dst << ' '
       << g.EdgeLabelName(e.label) << '\n';
  }
  os << "output n" << q.output() << '\n';
  return os.str();
}

}  // namespace whyq
