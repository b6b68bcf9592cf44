#include "query/query.h"

#include <algorithm>
#include <sstream>

#include "common/check.h"

namespace whyq {

std::string Literal::ToString(const Graph& g) const {
  std::ostringstream os;
  os << g.AttrName(attr) << ' ' << CompareOpName(op) << ' '
     << constant.ToString();
  return os.str();
}

QNodeId Query::AddNode(SymbolId label) {
  nodes_.push_back(QueryNode{label, {}});
  return static_cast<QNodeId>(nodes_.size() - 1);
}

void Query::AddLiteral(QNodeId u, Literal l) {
  WHYQ_CHECK(u < nodes_.size());
  nodes_[u].literals.push_back(std::move(l));
}

void Query::AddEdge(QNodeId src, QNodeId dst, SymbolId label) {
  WHYQ_CHECK(src < nodes_.size() && dst < nodes_.size());
  edges_.push_back(QueryEdge{src, dst, label});
}

void Query::SetOutput(QNodeId u) {
  WHYQ_CHECK(u < nodes_.size());
  output_ = u;
}

bool Query::RemoveEdge(QNodeId src, QNodeId dst, SymbolId label) {
  QueryEdge probe{src, dst, label};
  auto it = std::find(edges_.begin(), edges_.end(), probe);
  if (it == edges_.end()) return false;
  edges_.erase(it);
  return true;
}

bool Query::RemoveLiteral(QNodeId u, const Literal& l) {
  WHYQ_CHECK(u < nodes_.size());
  auto& lits = nodes_[u].literals;
  auto it = std::find(lits.begin(), lits.end(), l);
  if (it == lits.end()) return false;
  lits.erase(it);
  return true;
}

bool Query::ReplaceLiteral(QNodeId u, const Literal& before,
                           const Literal& replacement) {
  WHYQ_CHECK(u < nodes_.size());
  auto& lits = nodes_[u].literals;
  auto it = std::find(lits.begin(), lits.end(), before);
  if (it == lits.end()) return false;
  *it = replacement;
  return true;
}

size_t Query::Size() const {
  size_t literals = 0;
  for (const QueryNode& n : nodes_) literals += n.literals.size();
  return literals + edges_.size();
}

std::vector<size_t> Query::BfsFrom(QNodeId start) const {
  std::vector<size_t> dist(nodes_.size(), kUnreachable);
  if (start >= nodes_.size()) return dist;
  // Build undirected adjacency once per call; queries are tiny.
  std::vector<std::vector<QNodeId>> adj(nodes_.size());
  for (const QueryEdge& e : edges_) {
    adj[e.src].push_back(e.dst);
    adj[e.dst].push_back(e.src);
  }
  std::vector<QNodeId> frontier{start};
  dist[start] = 0;
  for (size_t head = 0; head < frontier.size(); ++head) {
    QNodeId u = frontier[head];
    for (QNodeId w : adj[u]) {
      if (dist[w] == kUnreachable) {
        dist[w] = dist[u] + 1;
        frontier.push_back(w);
      }
    }
  }
  return dist;
}

bool Query::IsConnected() const {
  if (nodes_.empty()) return true;
  std::vector<size_t> dist = BfsFrom(output_ == kInvalidQNode ? 0 : output_);
  for (size_t d : dist) {
    if (d == kUnreachable) return false;
  }
  return true;
}

bool Query::Validate(std::string* error) const {
  if (nodes_.empty()) {
    if (error) *error = "query has no nodes";
    return false;
  }
  if (output_ == kInvalidQNode || output_ >= nodes_.size()) {
    if (error) *error = "query has no valid output node";
    return false;
  }
  for (const QueryEdge& e : edges_) {
    if (e.src >= nodes_.size() || e.dst >= nodes_.size()) {
      if (error) *error = "edge references unknown node";
      return false;
    }
  }
  return true;
}

std::vector<size_t> Query::DistancesToOutput() const {
  return BfsFrom(output_);
}

size_t Query::Diameter() const {
  // Eccentricity max over the output's component (disconnected rewrites keep
  // the diameter of the evaluated component).
  size_t best = 0;
  std::vector<size_t> from_output = BfsFrom(output_);
  for (QNodeId u = 0; u < nodes_.size(); ++u) {
    if (from_output[u] == kUnreachable) continue;
    std::vector<size_t> d = BfsFrom(u);
    for (QNodeId w = 0; w < nodes_.size(); ++w) {
      if (from_output[w] == kUnreachable) continue;
      if (d[w] != kUnreachable) best = std::max(best, d[w]);
    }
  }
  return best;
}

std::vector<QNodeId> Query::OutputComponent() const {
  std::vector<QNodeId> out;
  std::vector<size_t> dist = BfsFrom(output_);
  for (QNodeId u = 0; u < nodes_.size(); ++u) {
    if (dist[u] != kUnreachable) out.push_back(u);
  }
  return out;
}

std::string Query::ToString(const Graph& g) const {
  std::ostringstream os;
  for (QNodeId u = 0; u < nodes_.size(); ++u) {
    os << "  u" << u << (u == output_ ? "*" : " ") << ' '
       << g.NodeLabelName(nodes_[u].label);
    for (const Literal& l : nodes_[u].literals) {
      os << " [" << l.ToString(g) << ']';
    }
    os << '\n';
  }
  for (const QueryEdge& e : edges_) {
    os << "  u" << e.src << " -" << g.EdgeLabelName(e.label) << "-> u"
       << e.dst << '\n';
  }
  return os.str();
}

}  // namespace whyq
