#include "matcher/candidates.h"

#include <algorithm>

#include "common/thread_pool.h"

namespace whyq {

namespace {

// Below this bucket size the per-chunk fork/join overhead outweighs the
// label+literal checks; measured crossover is a few thousand nodes.
constexpr size_t kParallelBucketCutoff = 4096;

// True iff v carries the literal's attribute and the comparison holds.
bool SatisfiesLiteral(const Graph& g, NodeId v, const Literal& l) {
  const Value* val = g.GetAttr(v, l.attr);
  if (val == nullptr) return false;
  return val->Satisfies(l.op, l.constant);
}

}  // namespace

bool IsCandidate(const Graph& g, NodeId v, const QueryNode& qn) {
  if (g.label(v) != qn.label) return false;
  for (const Literal& l : qn.literals) {
    if (!SatisfiesLiteral(g, v, l)) return false;
  }
  return true;
}

std::vector<NodeId> Candidates(const Graph& g, const Query& q, QNodeId u) {
  std::vector<NodeId> out;
  const QueryNode& qn = q.node(u);
  for (NodeId v : g.NodesWithLabel(qn.label)) {
    if (IsCandidate(g, v, qn)) out.push_back(v);
  }
  return out;
}

std::vector<NodeId> Candidates(const Graph& g, const Query& q, QNodeId u,
                               size_t threads) {
  const QueryNode& qn = q.node(u);
  NodeSpan bucket = g.NodesWithLabel(qn.label);
  const size_t width = ResolveParallelWidth(threads);
  if (width <= 1 || bucket.size() < kParallelBucketCutoff) {
    return Candidates(g, q, u);
  }
  // Chunked filter + in-order concatenation preserves the serial output.
  const size_t chunks = width * 4;
  const size_t chunk_len = (bucket.size() + chunks - 1) / chunks;
  std::vector<std::vector<NodeId>> parts(chunks);
  ThreadPool::Shared().ParallelFor(chunks, width, [&](size_t c, size_t) {
    size_t begin = c * chunk_len;
    size_t end = std::min(bucket.size(), begin + chunk_len);
    for (size_t i = begin; i < end; ++i) {
      if (IsCandidate(g, bucket[i], qn)) parts[c].push_back(bucket[i]);
    }
  });
  std::vector<NodeId> out;
  for (const std::vector<NodeId>& p : parts) {
    out.insert(out.end(), p.begin(), p.end());
  }
  return out;
}

}  // namespace whyq
