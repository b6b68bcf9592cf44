#include <gtest/gtest.h>

#include <sstream>

#include "gen/figure1.h"
#include "graph/edge_list.h"
#include "graph/graph_stats.h"
#include "matcher/matcher.h"
#include "query/query_dot.h"
#include "rewrite/operators.h"
#include "rewrite_diff.h"

namespace whyq {
namespace {

TEST(EdgeListTest, ParsesSnapStyleInput) {
  std::istringstream is(
      "# Directed graph: toy\n"
      "# FromNodeId ToNodeId\n"
      "0 1\n"
      "1 2\n"
      "2 0\n"
      "7 0\n"
      "3 3\n");  // self loop dropped by default
  std::string err;
  std::optional<Graph> g = ReadEdgeList(is, EdgeListOptions(), &err);
  ASSERT_TRUE(g.has_value()) << err;
  // Nodes 0,1,2,7,3 remapped densely; the self loop contributes its node.
  EXPECT_EQ(g->node_count(), 5u);
  EXPECT_EQ(g->edge_count(), 4u);
  GraphStats s = ComputeStats(*g);
  EXPECT_EQ(s.node_labels, 1u);
  EXPECT_EQ(s.edge_labels, 1u);
}

TEST(EdgeListTest, KeepSelfLoopsOption) {
  std::istringstream is("5 5\n");
  EdgeListOptions opt;
  opt.drop_self_loops = false;
  std::string err;
  std::optional<Graph> g = ReadEdgeList(is, opt, &err);
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->edge_count(), 1u);
}

TEST(EdgeListTest, MalformedLinesReported) {
  std::istringstream is("0 1\nnot numbers\n");
  std::string err;
  EXPECT_FALSE(ReadEdgeList(is, EdgeListOptions(), &err).has_value());
  EXPECT_NE(err.find("line 2"), std::string::npos);
}

TEST(EdgeListTest, MissingFile) {
  std::string err;
  EXPECT_FALSE(
      ReadEdgeListFromFile("/no/such/file", EdgeListOptions(), &err)
          .has_value());
}

TEST(DecorateTest, AttachesAttributesPreservingTopology) {
  std::istringstream is("0 1\n1 2\n");
  std::string err;
  std::optional<Graph> bare = ReadEdgeList(is, EdgeListOptions(), &err);
  ASSERT_TRUE(bare.has_value());
  DecorationConfig cfg;
  cfg.avg_attrs = 4.0;
  Graph rich = DecorateGraph(*bare, cfg);
  EXPECT_EQ(rich.node_count(), bare->node_count());
  EXPECT_EQ(rich.edge_count(), bare->edge_count());
  GraphStats s = ComputeStats(rich);
  EXPECT_GT(s.attributes, 0u);
  EXPECT_GT(s.avg_attrs_per_node, 1.0);
  // Edges preserved verbatim.
  SymbolId r = *rich.edge_labels().Find("edge");
  EXPECT_TRUE(rich.HasEdge(0, 1, r));
  EXPECT_TRUE(rich.HasEdge(1, 2, r));
  // Deterministic for a fixed seed.
  Graph rich2 = DecorateGraph(*bare, cfg);
  EXPECT_EQ(ComputeStats(rich2).avg_attrs_per_node, s.avg_attrs_per_node);
}

TEST(DecorateTest, PreservesExistingAttributes) {
  Figure1 f = MakeFigure1();
  DecorationConfig cfg;
  cfg.attr_pool = 3;
  cfg.avg_attrs = 1.0;
  Graph rich = DecorateGraph(f.graph, cfg);
  SymbolId price = *rich.attr_names().Find("Price");
  EXPECT_EQ(rich.GetAttr(f.s6, price)->as_int(), 600);
}

TEST(QueryDotTest, RendersQueryWithOutputAndLiterals) {
  Figure1 f = MakeFigure1();
  std::string dot = QueryToDot(f.query, f.graph);
  EXPECT_NE(dot.find("digraph Q {"), std::string::npos);
  EXPECT_NE(dot.find("peripheries=2"), std::string::npos);  // output node
  EXPECT_NE(dot.find("Price <= 650"), std::string::npos);
  EXPECT_NE(dot.find("u0 -> u1"), std::string::npos);
  EXPECT_NE(dot.find("color"), std::string::npos);
}

TEST(QueryDotTest, RewriteDiffColorsChanges) {
  Figure1 f = MakeFigure1();
  SymbolId price = *f.graph.attr_names().Find("Price");
  OperatorSet ops;
  EditOp addl;
  addl.kind = OpKind::kAddL;
  addl.u = 0;
  addl.after = Literal{price, CompareOp::kGt, Value(int64_t{120})};
  ops.push_back(addl);
  EditOp rme;
  rme.kind = OpKind::kRmE;
  rme.u = 0;
  rme.v = 1;
  rme.edge_label = *f.graph.edge_labels().Find("color");
  ops.push_back(rme);
  EditOp adde;
  adde.kind = OpKind::kAddE;
  adde.u = 0;
  adde.edge_label = *f.graph.edge_labels().Find("series");
  adde.new_node = NewNodeSpec{*f.graph.node_labels().Find("Series"), {}};
  ops.push_back(adde);
  Query after = ApplyOperators(f.query, ops);
  std::string dot = RewriteToDot(f.query, after, f.graph);
  EXPECT_NE(dot.find("[+] Price > 120"), std::string::npos) << dot;
  EXPECT_NE(dot.find("color=red, style=dashed"), std::string::npos) << dot;
  EXPECT_NE(dot.find("color=green"), std::string::npos) << dot;
}

TEST(QueryDotTest, EscapesQuotes) {
  GraphBuilder b;
  NodeId v = b.AddNode("L\"quoted\"");
  (void)v;
  Graph g = b.Build();
  Query q;
  q.AddNode(*g.node_labels().Find("L\"quoted\""));
  q.SetOutput(0);
  std::string dot = QueryToDot(q, g);
  EXPECT_NE(dot.find("L\\\"quoted\\\""), std::string::npos);
}

}  // namespace
}  // namespace whyq
