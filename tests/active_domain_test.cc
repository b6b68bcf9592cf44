// Rank-based active domains (ActiveDomains over AttrColumn ranks) against
// the Value-sorting reference they replaced: copy every v.A, sort the
// Values, drop duplicates, then subsample to the cap. Checked on all four
// ways a graph epoch gets its columns: GraphBuilder::Build(),
// GraphSnapshot::Load(), and both ApplyUpdate paths.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "graph/graph.h"
#include "graph/graph_stats.h"
#include "graph/snapshot.h"
#include "graph/update.h"

namespace whyq {
namespace {

// The reference: dom(A, V) by copying and sorting Values.
std::vector<Value> ActiveDomain(const Graph& g, SymbolId attr,
                                const std::vector<NodeId>& nodes) {
  std::vector<Value> out;
  for (NodeId v : nodes) {
    const Value* val = g.GetAttr(v, attr);
    if (val != nullptr) out.push_back(*val);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// The reference cap: `cap` spread-out values of a sorted domain.
std::vector<Value> CapDomain(std::vector<Value> dom, size_t cap) {
  if (dom.size() <= cap || cap == 0) return dom;
  if (cap == 1) return {dom.front()};
  std::vector<Value> out;
  for (size_t i = 0; i < cap; ++i) {
    out.push_back(dom[i * (dom.size() - 1) / (cap - 1)]);
  }
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<Value> RankDomain(const Graph& g, ActiveDomains& domains,
                              SymbolId label, SymbolId attr,
                              const std::vector<NodeId>& nodes, size_t cap) {
  const AttrColumn* col = g.AttrColumnOf(label, attr);
  std::vector<Value> out;
  for (uint32_t r :
       domains.Ranks(g, col, NodeSpan(nodes.data(), nodes.size()), cap)) {
    out.push_back(col->ValueAt(r));
  }
  return out;
}

TEST(ActiveDomainTest, DistinctSortedValues) {
  GraphBuilder b;
  for (int i = 0; i < 4; ++i) {
    NodeId v = b.AddNode("A");
    b.SetAttr(v, "p", Value(int64_t{i % 2}));  // values {0,1}
  }
  b.AddNode("A");  // no attribute: contributes nothing
  Graph g = b.Build();
  std::vector<NodeId> all{0, 1, 2, 3, 4};
  ActiveDomains domains;
  std::vector<Value> dom =
      RankDomain(g, domains, *g.node_labels().Find("A"),
                 *g.attr_names().Find("p"), all, 0);
  ASSERT_EQ(dom.size(), 2u);
  EXPECT_EQ(dom[0].as_int(), 0);
  EXPECT_EQ(dom[1].as_int(), 1);
}

// The value pool: int and double mixes with NaNs of both signs, ±0.0,
// ±inf, INT64_MIN/MAX and 2^53 ± 1 (which doubles cannot tell apart), and
// strings.
std::vector<Value> ValuePool() {
  const int64_t p53 = int64_t{1} << 53;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  return {Value(std::numeric_limits<int64_t>::min()),
          Value(std::numeric_limits<int64_t>::max()),
          Value(int64_t{0}),
          Value(int64_t{-1}),
          Value(int64_t{7}),
          Value(p53 - 1),
          Value(p53),
          Value(p53 + 1),
          Value(0.0),
          Value(-0.0),
          Value(nan),
          Value(-nan),
          Value(inf),
          Value(-inf),
          Value(1.5),
          Value(-2.25),
          Value(static_cast<double>(p53)),
          Value(static_cast<double>(p53 + 1)),
          Value(7.0),
          Value(""),
          Value("a"),
          Value("ab"),
          Value("b")};
}

constexpr size_t kNodes = 90;
const char* const kAttrs[] = {"mixed", "numbers", "words"};

// The pool values attribute `a` may take: all, numbers only, strings only.
Value Draw(const std::vector<Value>& pool, size_t a, Rng& rng) {
  for (;;) {
    const Value& v = pool[rng.Index(pool.size())];
    if (a == 0 || (a == 1) == v.is_numeric()) return v;
  }
}

// Labels alternate irregularly between A and B so bucket positions differ
// from node ids; each attribute is absent on some rows.
Graph BuildPoolGraph(uint64_t seed) {
  Rng rng(seed);
  std::vector<Value> pool = ValuePool();
  GraphBuilder b;
  for (size_t i = 0; i < kNodes; ++i) {
    NodeId v = b.AddNode(rng.Chance(0.7) ? "A" : "B");
    for (size_t a = 0; a < 3; ++a) {
      if (rng.Chance(0.75)) b.SetAttr(v, kAttrs[a], Draw(pool, a, rng));
    }
  }
  return b.Build();
}

// A batch that overwrites, deletes and adds attributes, relabels nothing
// and appends nodes, so both update paths rebuild label A's columns.
UpdateBatch PoolBatch(const Graph& g, uint64_t seed) {
  Rng rng(seed);
  std::vector<Value> pool = ValuePool();
  UpdateBatch batch;
  for (size_t i = 0; i < 12; ++i) {
    batch.ops.push_back(UpdateOp::AddNode(rng.Chance(0.7) ? "A" : "B"));
  }
  const size_t n = g.node_count() + 12;
  for (NodeId v = 0; v < n; ++v) {
    for (size_t a = 0; a < 3; ++a) {
      const bool has = v < g.node_count() &&
                       g.GetAttr(v, *g.attr_names().Find(kAttrs[a]));
      if (rng.Chance(0.3)) {
        batch.ops.push_back(
            UpdateOp::SetAttr(v, kAttrs[a], Draw(pool, a, rng)));
      } else if (has && rng.Chance(0.2)) {
        batch.ops.push_back(UpdateOp::DelAttr(v, kAttrs[a]));
      }
    }
  }
  return batch;
}

// Every rank-based domain, full and capped, equals the reference (under
// Value::operator==, which is how ±0.0 and the NaNs share a rank), and the
// shared ranks materialize as +0.0 and the quiet NaN.
void CheckDomains(const Graph& g, uint64_t seed) {
  SymbolId label = *g.node_labels().Find("A");
  NodeSpan bucket = g.NodesWithLabel(label);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    ASSERT_EQ(g.NodesWithLabel(g.label(v))[g.BucketPosition(v)], v);
  }
  Rng rng(seed);
  ActiveDomains domains;
  size_t checked = 0;
  for (size_t trial = 0; trial < 60; ++trial) {
    // Random lists with repeats, in random order; trial 0 is the bucket.
    std::vector<NodeId> nodes(bucket.begin(), bucket.end());
    if (trial > 0) {
      nodes.clear();
      size_t len = rng.Index(bucket.size() + 1);
      for (size_t i = 0; i < len; ++i) {
        nodes.push_back(bucket[rng.Index(bucket.size())]);
      }
    }
    for (const char* name : kAttrs) {
      SymbolId attr = *g.attr_names().Find(name);
      std::vector<Value> full = ActiveDomain(g, attr, nodes);
      for (size_t cap : {size_t{0}, size_t{1}, size_t{2}, size_t{3},
                         size_t{5}, size_t{12}, size_t{1000}}) {
        std::vector<Value> want = CapDomain(full, cap);
        std::vector<Value> got =
            RankDomain(g, domains, label, attr, nodes, cap);
        ASSERT_EQ(got.size(), want.size()) << name << " cap " << cap;
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_TRUE(got[i] == want[i])
              << name << " cap " << cap << " at " << i << ": "
              << got[i].ToString() << " vs " << want[i].ToString();
          if (got[i].is_double() && got[i].as_double() == 0.0) {
            EXPECT_FALSE(std::signbit(got[i].as_double()));
          }
          if (got[i].is_double() && std::isnan(got[i].as_double())) {
            EXPECT_FALSE(std::signbit(got[i].as_double()));
          }
        }
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, 60u * 3 * 7);
}

class RankDomainPropertyTest : public testing::TestWithParam<int> {};

TEST_P(RankDomainPropertyTest, EqualsValueSortOnEveryConstructionPath) {
  const uint64_t seed = static_cast<uint64_t>(GetParam()) * 7919 + 3;
  Graph built = BuildPoolGraph(seed);
  {
    SCOPED_TRACE("Build");
    CheckDomains(built, seed + 1);
  }
  {
    SCOPED_TRACE("GraphSnapshot::Load");
    std::string path = ::testing::TempDir() + "whyq_rank_domain_" +
                       std::to_string(GetParam()) + ".snap";
    std::string err;
    ASSERT_TRUE(GraphSnapshot::Write(built, path, &err)) << err;
    std::unique_ptr<GraphSnapshot> snap = GraphSnapshot::Load(path, &err);
    ASSERT_NE(snap, nullptr) << err;
    CheckDomains(snap->graph(), seed + 1);
  }
  UpdateBatch batch = PoolBatch(built, seed + 2);
  {
    SCOPED_TRACE("ApplyUpdate");
    Graph next;
    UpdateResult result;
    ASSERT_TRUE(built.ApplyUpdate(batch, &next, &result));
    CheckDomains(next, seed + 3);
  }
  {
    SCOPED_TRACE("ApplyUpdateByRebuild");
    Graph next;
    UpdateResult result;
    ASSERT_TRUE(ApplyUpdateByRebuild(built, batch, &next, &result));
    CheckDomains(next, seed + 3);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RankDomainPropertyTest, testing::Range(0, 8));

}  // namespace
}  // namespace whyq
