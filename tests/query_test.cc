#include <gtest/gtest.h>

#include "gen/figure1.h"
#include "query/query.h"
#include "query/query_parser.h"
#include "rewrite/cost_model.h"

namespace whyq {
namespace {

// A small star query: u0* -a-> u1, u0 -b-> u2, u2 -c-> u3 (path of length 2
// from output to u3).
Query StarQuery() {
  Query q;
  QNodeId u0 = q.AddNode(0);
  QNodeId u1 = q.AddNode(1);
  QNodeId u2 = q.AddNode(2);
  QNodeId u3 = q.AddNode(3);
  q.AddEdge(u0, u1, 0);
  q.AddEdge(u0, u2, 1);
  q.AddEdge(u2, u3, 2);
  q.SetOutput(u0);
  return q;
}

TEST(QueryTest, SizeCountsLiteralsAndEdges) {
  Query q = StarQuery();
  EXPECT_EQ(q.Size(), 3u);
  q.AddLiteral(0, Literal{0, CompareOp::kEq, Value(int64_t{1})});
  EXPECT_EQ(q.Size(), 4u);
}

TEST(QueryTest, DistancesAndDiameter) {
  Query q = StarQuery();
  EXPECT_EQ(q.DistancesToOutput(), (std::vector<size_t>{0, 1, 1, 2}));
  EXPECT_EQ(q.Diameter(), 3u);  // u1 .. u3
}

TEST(QueryTest, OutputCentrality) {
  Query q = StarQuery();
  Graph g;
  CostModel cm(q, g);
  EXPECT_DOUBLE_EQ(cm.Centrality(0), 3.0);  // d_Q/(0+1)
  EXPECT_DOUBLE_EQ(cm.Centrality(1), 1.5);  // d_Q/(1+1)
  EXPECT_DOUBLE_EQ(cm.Centrality(3), 1.0);  // d_Q/(2+1)
}

TEST(QueryTest, Figure1CentralitiesMatchPaper) {
  // Example 4: d_Q = 2, oc(Cellphone) = 2, neighbors have oc = 1.
  Figure1 f = MakeFigure1();
  EXPECT_EQ(f.query.Diameter(), 2u);
  CostModel cm(f.query, f.graph);
  EXPECT_DOUBLE_EQ(cm.Centrality(f.query.output()), 2.0);
  EXPECT_DOUBLE_EQ(cm.Centrality(1), 1.0);
}

TEST(QueryTest, DisconnectedAfterRemoveEdge) {
  Query q = StarQuery();
  EXPECT_TRUE(q.IsConnected());
  ASSERT_TRUE(q.RemoveEdge(2, 3, 2));
  EXPECT_FALSE(q.IsConnected());
  EXPECT_EQ(q.DistancesToOutput()[3], Query::kUnreachable);
  Graph g;
  EXPECT_DOUBLE_EQ(CostModel(q, g).Centrality(3), 0.0);
  // Output component excludes the stranded node.
  std::vector<QNodeId> comp = q.OutputComponent();
  EXPECT_EQ(comp.size(), 3u);
}

TEST(QueryTest, RemoveEdgeRequiresExactMatch) {
  Query q = StarQuery();
  EXPECT_FALSE(q.RemoveEdge(0, 1, 99));  // wrong label
  EXPECT_FALSE(q.RemoveEdge(1, 0, 0));   // wrong direction
  EXPECT_TRUE(q.RemoveEdge(0, 1, 0));
  EXPECT_EQ(q.edge_count(), 2u);
}

TEST(QueryTest, LiteralMutations) {
  Query q = StarQuery();
  // Each literal is built in place: gcc 12 at -O2 under the sanitizers
  // flags a copy of a named Literal with -Wmaybe-uninitialized.
  auto le = [](int64_t c) { return Literal{0, CompareOp::kLe, Value(c)}; };
  q.AddLiteral(1, le(5));
  EXPECT_TRUE(q.ReplaceLiteral(1, le(5), le(9)));
  EXPECT_FALSE(q.ReplaceLiteral(1, le(5), le(9)));  // original gone
  EXPECT_TRUE(q.RemoveLiteral(1, le(9)));
  EXPECT_TRUE(q.node(1).literals.empty());
}

TEST(QueryTest, ValidateCatchesProblems) {
  Query empty;
  std::string err;
  EXPECT_FALSE(empty.Validate(&err));
  Query no_output;
  no_output.AddNode(0);
  EXPECT_FALSE(no_output.Validate(&err));
  EXPECT_NE(err.find("output"), std::string::npos);
}

TEST(QueryParserTest, ParsesFigure1StyleQuery) {
  Figure1 f = MakeFigure1();
  std::string text =
      "# find pink AT&T Samsung phones\n"
      "node phone Cellphone Price <= i:650\n"
      "node col Color val = s:pink\n"
      "edge phone col color\n"
      "output phone\n";
  std::string err;
  std::optional<Query> q = ParseQuery(text, f.graph, &err);
  ASSERT_TRUE(q.has_value()) << err;
  EXPECT_EQ(q->node_count(), 2u);
  EXPECT_EQ(q->edge_count(), 1u);
  EXPECT_EQ(q->Size(), 3u);
  EXPECT_EQ(q->output(), 0u);
}

TEST(QueryParserTest, RoundTripThroughWriter) {
  Figure1 f = MakeFigure1();
  std::string text = WriteQuery(f.query, f.graph);
  std::string err;
  std::optional<Query> back = ParseQuery(text, f.graph, &err);
  ASSERT_TRUE(back.has_value()) << err;
  EXPECT_EQ(back->node_count(), f.query.node_count());
  EXPECT_EQ(back->edge_count(), f.query.edge_count());
  EXPECT_EQ(back->Size(), f.query.Size());
  EXPECT_EQ(back->output(), f.query.output());
}

TEST(QueryParserTest, UnknownNamesMatchNothingButParse) {
  Figure1 f = MakeFigure1();
  std::string err;
  std::optional<Query> q =
      ParseQuery("node x Spaceship\noutput x\n", f.graph, &err);
  ASSERT_TRUE(q.has_value()) << err;
  EXPECT_EQ(q->node(0).label, kInvalidSymbol);
}

TEST(QueryParserTest, Errors) {
  Figure1 f = MakeFigure1();
  std::string err;
  EXPECT_FALSE(ParseQuery("node x\n", f.graph, &err).has_value());
  EXPECT_FALSE(
      ParseQuery("node x A\nnode x A\noutput x\n", f.graph, &err)
          .has_value());
  EXPECT_FALSE(
      ParseQuery("node x A\nedge x y r\noutput x\n", f.graph, &err)
          .has_value());
  EXPECT_FALSE(ParseQuery("node x A\noutput y\n", f.graph, &err).has_value());
  EXPECT_FALSE(ParseQuery("node x A\n", f.graph, &err).has_value());
  EXPECT_FALSE(
      ParseQuery("node x A p <> i:1\noutput x\n", f.graph, &err).has_value());
}

// A query has one output node: a second name on the `output` line and a
// second `output` line are both rejected at their own line.
TEST(QueryParserTest, RejectsSecondOutput) {
  Figure1 f = MakeFigure1();
  std::string err;
  EXPECT_FALSE(
      ParseQuery("node a A\nnode b B\noutput a b\n", f.graph, &err)
          .has_value());
  EXPECT_EQ(err, "line 3: output needs exactly one node name");
  EXPECT_FALSE(
      ParseQuery("node a A\nnode b B\noutput a\n# again\noutput b\n",
                 f.graph, &err)
          .has_value());
  EXPECT_EQ(err, "line 5: second output declaration");
  EXPECT_FALSE(
      ParseQuery("node a A\noutput a\noutput a\n", f.graph, &err)
          .has_value());
  EXPECT_EQ(err, "line 3: second output declaration");
}

TEST(QueryParserTest, ParseCompareOps) {
  EXPECT_EQ(ParseCompareOp("<"), CompareOp::kLt);
  EXPECT_EQ(ParseCompareOp("<="), CompareOp::kLe);
  EXPECT_EQ(ParseCompareOp("="), CompareOp::kEq);
  EXPECT_EQ(ParseCompareOp("=="), CompareOp::kEq);
  EXPECT_EQ(ParseCompareOp(">="), CompareOp::kGe);
  EXPECT_EQ(ParseCompareOp(">"), CompareOp::kGt);
  EXPECT_FALSE(ParseCompareOp("!=").has_value());
}

}  // namespace
}  // namespace whyq
