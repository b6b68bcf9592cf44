#include <gtest/gtest.h>

#include <algorithm>

#include "graph/graph.h"
#include "graph/graph_stats.h"
#include "within_distance.h"

namespace whyq {
namespace {

Graph ChainGraph(size_t n) {
  // 0 -> 1 -> 2 -> ... labeled "N", edges labeled "next".
  GraphBuilder b;
  for (size_t i = 0; i < n; ++i) {
    NodeId v = b.AddNode("N");
    b.SetAttr(v, "idx", Value(static_cast<int64_t>(i)));
  }
  for (size_t i = 0; i + 1 < n; ++i) {
    b.AddEdge(static_cast<NodeId>(i), static_cast<NodeId>(i + 1), "next");
  }
  return b.Build();
}

TEST(GraphBuilderTest, BasicCounts) {
  Graph g = ChainGraph(5);
  EXPECT_EQ(g.node_count(), 5u);
  EXPECT_EQ(g.edge_count(), 4u);
}

TEST(GraphBuilderTest, DuplicateEdgesCollapse) {
  GraphBuilder b;
  NodeId a = b.AddNode("A");
  NodeId c = b.AddNode("B");
  b.AddEdge(a, c, "r");
  b.AddEdge(a, c, "r");
  b.AddEdge(a, c, "s");  // different label survives
  Graph g = b.Build();
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_EQ(g.out_edges(a).size(), 2u);
  EXPECT_EQ(g.in_edges(c).size(), 2u);
}

TEST(GraphBuilderTest, AttrOverwriteLastWins) {
  GraphBuilder b;
  NodeId a = b.AddNode("A");
  b.SetAttr(a, "x", Value(int64_t{1}));
  b.SetAttr(a, "x", Value(int64_t{2}));
  Graph g = b.Build();
  ASSERT_EQ(g.attrs(a).size(), 1u);
  EXPECT_EQ(g.GetAttr(a, *g.attr_names().Find("x"))->as_int(), 2);
}

TEST(GraphTest, GetAttrMissing) {
  Graph g = ChainGraph(2);
  SymbolId idx = *g.attr_names().Find("idx");
  EXPECT_NE(g.GetAttr(0, idx), nullptr);
  EXPECT_EQ(g.GetAttr(0, idx + 57), nullptr);
}

TEST(GraphTest, HasEdgeRespectsDirectionAndLabel) {
  GraphBuilder b;
  NodeId a = b.AddNode("A");
  NodeId c = b.AddNode("B");
  b.AddEdge(a, c, "r");
  Graph g = b.Build();
  SymbolId r = *g.edge_labels().Find("r");
  EXPECT_TRUE(g.HasEdge(a, c, r));
  EXPECT_FALSE(g.HasEdge(c, a, r));
  EXPECT_FALSE(g.HasEdge(a, c, r + 1));
}

TEST(GraphTest, LabelIndex) {
  GraphBuilder b;
  b.AddNode("A");
  b.AddNode("B");
  b.AddNode("A");
  Graph g = b.Build();
  SymbolId a = *g.node_labels().Find("A");
  EXPECT_EQ(g.NodesWithLabel(a).size(), 2u);
  EXPECT_TRUE(g.NodesWithLabel(a + 100).empty());
}

TEST(GraphTest, AttrRanges) {
  GraphBuilder b;
  NodeId x = b.AddNode("A");
  NodeId y = b.AddNode("A");
  NodeId z = b.AddNode("A");
  b.SetAttr(x, "p", Value(int64_t{10}));
  b.SetAttr(y, "p", Value(int64_t{90}));
  b.SetAttr(z, "s", Value("str"));
  Graph g = b.Build();
  const AttrRange* rp = g.RangeOf(*g.attr_names().Find("p"));
  ASSERT_NE(rp, nullptr);
  EXPECT_TRUE(rp->numeric);
  EXPECT_DOUBLE_EQ(rp->min, 10.0);
  EXPECT_DOUBLE_EQ(rp->max, 90.0);
  EXPECT_EQ(rp->count, 2u);
  const AttrRange* rs = g.RangeOf(*g.attr_names().Find("s"));
  ASSERT_NE(rs, nullptr);
  EXPECT_FALSE(rs->numeric);
}

TEST(GraphTest, MixedAttrKindIsNonNumeric) {
  GraphBuilder b;
  NodeId x = b.AddNode("A");
  NodeId y = b.AddNode("A");
  b.SetAttr(x, "m", Value(int64_t{5}));
  b.SetAttr(y, "m", Value("five"));
  Graph g = b.Build();
  EXPECT_FALSE(g.RangeOf(*g.attr_names().Find("m"))->numeric);
}

TEST(NodeSetTest, MembershipAndOrder) {
  NodeSet s(std::vector<NodeId>{3, 1, 3}, 5);
  EXPECT_TRUE(s.Contains(3));
  EXPECT_TRUE(s.Contains(1));
  EXPECT_FALSE(s.Contains(0));
  EXPECT_EQ(s.size(), 2u);
  s.Insert(10);  // auto-grows
  EXPECT_TRUE(s.Contains(10));
}

TEST(NeighborhoodTest, ChainDistances) {
  Graph g = ChainGraph(10);
  std::vector<size_t> dist;
  NodeSet n2 = WithinDistanceWithDepth(g, {5}, 2, &dist);
  // Undirected: {3,4,5,6,7}.
  EXPECT_EQ(n2.size(), 5u);
  for (NodeId v : {3, 4, 5, 6, 7}) EXPECT_TRUE(n2.Contains(v));
  EXPECT_FALSE(n2.Contains(2));
  // Depths align with nodes() order; seed at depth 0.
  EXPECT_EQ(n2.nodes()[0], 5u);
  EXPECT_EQ(dist[0], 0u);
  for (size_t i = 0; i < dist.size(); ++i) EXPECT_LE(dist[i], 2u);
}

TEST(NeighborhoodTest, MultipleSeeds) {
  Graph g = ChainGraph(10);
  NodeSet n1 = WithinDistance(g, {0, 9}, 1);
  EXPECT_EQ(n1.size(), 4u);  // {0,1,8,9}
  EXPECT_TRUE(n1.Contains(1));
  EXPECT_TRUE(n1.Contains(8));
}

TEST(NeighborhoodTest, ZeroDepthIsSeedsOnly) {
  Graph g = ChainGraph(4);
  NodeSet n0 = WithinDistance(g, {2}, 0);
  EXPECT_EQ(n0.size(), 1u);
  EXPECT_TRUE(n0.Contains(2));
}

TEST(GraphStatsTest, Summary) {
  Graph g = ChainGraph(5);
  GraphStats s = ComputeStats(g);
  EXPECT_EQ(s.nodes, 5u);
  EXPECT_EQ(s.edges, 4u);
  EXPECT_EQ(s.node_labels, 1u);
  EXPECT_EQ(s.edge_labels, 1u);
  EXPECT_EQ(s.attributes, 1u);
  EXPECT_DOUBLE_EQ(s.avg_attrs_per_node, 1.0);
  EXPECT_EQ(s.max_out_degree, 1u);
  EXPECT_FALSE(s.ToString().empty());
}

}  // namespace
}  // namespace whyq
