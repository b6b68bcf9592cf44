#include "matcher/path_index.h"

#include <algorithm>
#include <sstream>

#include "matcher/candidates.h"

namespace whyq {

namespace {

// True iff `rewritten` still contains the directed, labeled edge the step
// was built from.
bool StepEdgePresent(const Query& q, const PathIndex::Step& s) {
  QueryEdge probe;
  probe.label = s.edge_label;
  if (s.forward) {
    probe.src = s.from;
    probe.dst = s.to;
  } else {
    probe.src = s.to;
    probe.dst = s.from;
  }
  const auto& edges = q.edges();
  return std::find(edges.begin(), edges.end(), probe) != edges.end();
}

}  // namespace

PathIndex PathIndex::FromPaths(std::vector<std::vector<Step>> paths) {
  PathIndex index;
  index.paths_ = std::move(paths);
  return index;
}

PathIndex::PathIndex(const Query& q, size_t max_paths) {
  if (q.output() == kInvalidQNode || q.node_count() == 0) return;
  // DFS from the output node over undirected edges, collecting maximal
  // simple paths (a path is emitted when it cannot be extended to an
  // unvisited node). Deterministic: edges are scanned in declaration order.
  std::vector<Step> current;
  std::vector<uint8_t> visited(q.node_count(), 0);

  // Iterative DFS with explicit recursion to honor the max_paths cap.
  struct Frame {
    QNodeId at;
    size_t next_edge;
    bool extended;
  };
  std::vector<Frame> stack;
  visited[q.output()] = 1;
  stack.push_back(Frame{q.output(), 0, false});

  while (!stack.empty() && paths_.size() < max_paths) {
    Frame& f = stack.back();
    bool pushed = false;
    while (f.next_edge < q.edges().size()) {
      const QueryEdge& e = q.edges()[f.next_edge];
      ++f.next_edge;
      QNodeId other = kInvalidQNode;
      bool forward = true;
      if (e.src == f.at && !visited[e.dst]) {
        other = e.dst;
        forward = true;
      } else if (e.dst == f.at && !visited[e.src]) {
        other = e.src;
        forward = false;
      } else {
        continue;
      }
      Step s;
      s.from = f.at;
      s.to = other;
      s.edge_label = e.label;
      s.forward = forward;
      current.push_back(s);
      visited[other] = 1;
      f.extended = true;
      stack.push_back(Frame{other, 0, false});
      pushed = true;
      break;
    }
    if (pushed) continue;
    // No extension from this frame: emit if it terminates a maximal path.
    if (!f.extended && !current.empty()) {
      paths_.push_back(current);
    }
    visited[f.at] = 0;
    stack.pop_back();
    if (!current.empty()) current.pop_back();
  }
  // Single-node queries or caps may leave no paths; Passes() then reduces
  // to the candidate test on the output node.
}

PathIndex::Probe::Probe(const PathIndex& idx, const Graph& g,
                        const Query& rewritten, MatchContext* ctx)
    : idx_(idx), g_(g), rw_(rewritten), ctx_(ctx) {
  if (ctx_ != nullptr) cand_.assign(rw_.node_count(), nullptr);
  live_.reserve(idx_.paths_.size());
  for (const std::vector<Step>& path : idx_.paths_) {
    // A step whose query edge the rewrite removed (or whose node it does
    // not have) ends the path: the tail is no longer connected through
    // this path, so it constrains nothing.
    size_t live = 0;
    while (live < path.size() && path[live].to < rw_.node_count() &&
           StepEdgePresent(rw_, path[live])) {
      ++live;
    }
    live_.push_back(live);
  }
}

bool PathIndex::Probe::IsCand(QNodeId u, NodeId v) {
  if (ctx_ == nullptr) return IsCandidate(g_, v, rw_.node(u));
  const MatchContext::CandidateSet*& cand = cand_[u];
  if (cand == nullptr) cand = &ctx_->Lookup(rw_.node(u));
  return cand->Test(v);
}

bool PathIndex::Probe::WalkMatches(const std::vector<Step>& path,
                                   size_t live, size_t pos, NodeId at) {
  if (pos == live) return true;
  const Step& s = path[pos];
  // The label-partitioned slice visits exactly the step's edge label. The
  // walk's outcome is existential, so the (per-label ascending) visit order
  // cannot change the result.
  NodeSpan span = s.forward ? g_.LabeledOutNeighbors(at, s.edge_label)
                            : g_.LabeledInNeighbors(at, s.edge_label);
  for (NodeId other : span) {
    if (IsCand(s.to, other) && WalkMatches(path, live, pos + 1, other)) {
      return true;
    }
  }
  return false;
}

bool PathIndex::Probe::Passes(NodeId v) {
  if (!IsCand(rw_.output(), v)) return false;
  for (size_t p = 0; p < idx_.paths_.size(); ++p) {
    if (!WalkMatches(idx_.paths_[p], live_[p], 0, v)) return false;
  }
  return true;
}

double PathIndex::Probe::PassFraction(NodeId v) {
  size_t total = 1 + idx_.paths_.size();
  size_t passed = IsCand(rw_.output(), v) ? 1 : 0;
  for (size_t p = 0; p < idx_.paths_.size(); ++p) {
    if (WalkMatches(idx_.paths_[p], live_[p], 0, v)) ++passed;
  }
  return static_cast<double>(passed) / static_cast<double>(total);
}

std::string PathIndex::ToString(const Graph& g) const {
  std::ostringstream os;
  for (const auto& path : paths_) {
    os << "u" << (path.empty() ? 0 : path[0].from);
    for (const Step& s : path) {
      os << (s.forward ? " -" : " <-") << g.EdgeLabelName(s.edge_label)
         << (s.forward ? "-> " : "- ") << 'u' << s.to;
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace whyq
