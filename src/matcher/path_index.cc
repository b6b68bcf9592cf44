#include "matcher/path_index.h"

#include <algorithm>
#include <sstream>

#include "common/check.h"

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

// Equal constraints select equal candidate sets (MatchContext::Lookup).
bool SameConstraint(const QueryNode& a, const QueryNode& b) {
  return a.label == b.label && a.literals == b.literals;
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

PathIndex::Probe::Probe(const PathIndex& idx, MatchContext& ctx,
                        const Query& rewritten)
    : idx_(idx),
      ctx_(ctx),
      g_(ctx.graph()),
      rw_(rewritten),
      cand_(rewritten.node_count(), nullptr) {
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
  const MatchContext::CandidateSet*& cand = cand_[u];
  if (cand == nullptr) cand = &ctx_.Lookup(rw_.node(u));
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

bool PathIndex::Probe::PassesCheck(size_t c, NodeId v) {
  if (c == 0) return IsCand(rw_.output(), v);
  return WalkMatches(idx_.paths_[c - 1], live_[c - 1], 0, v);
}

bool PathIndex::Probe::Passes(NodeId v, CheckMask checks) {
  for (size_t c = 0; c < check_count(); ++c) {
    if (c < kMaskChecks && ((checks >> c) & 1) == 0) continue;
    if (!PassesCheck(c, v)) return false;
  }
  return true;
}

PathIndex::Probe::CheckMask PathIndex::Probe::FailedChecks(NodeId v,
                                                           CheckMask among) {
  CheckMask failed = 0;
  const size_t masked = std::min(check_count(), kMaskChecks);
  for (size_t c = 0; c < masked; ++c) {
    if (((among >> c) & 1) != 0 && !PassesCheck(c, v)) {
      failed |= CheckMask{1} << c;
    }
  }
  return failed;
}

PathIndex::Probe::CheckMask PathIndex::Probe::ChangedChecks(
    const Probe& base) const {
  WHYQ_CHECK(&idx_ == &base.idx_);
  const Query& b = base.rw_;
  CheckMask changed = 0;
  if (rw_.output() != b.output() ||
      !SameConstraint(rw_.node(rw_.output()), b.node(b.output()))) {
    changed |= 1;
  }
  const size_t masked = std::min(check_count(), kMaskChecks);
  for (size_t c = 1; c < masked; ++c) {
    const std::vector<Step>& path = idx_.paths_[c - 1];
    const size_t live = live_[c - 1];
    bool same = live == base.live_[c - 1];
    for (size_t pos = 0; same && pos < live; ++pos) {
      same = SameConstraint(rw_.node(path[pos].to), b.node(path[pos].to));
    }
    if (!same) changed |= CheckMask{1} << c;
  }
  return changed;
}

double PathIndex::Probe::PassFraction(NodeId v) {
  size_t passed = 0;
  for (size_t c = 0; c < check_count(); ++c) {
    if (PassesCheck(c, v)) ++passed;
  }
  return static_cast<double>(passed) / static_cast<double>(check_count());
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
