#include <gtest/gtest.h>

#include "gen/figure1.h"
#include "matcher/matcher.h"
#include "rewrite/explanation.h"
#include "rewrite_diff.h"
#include "why/why_algorithms.h"
#include "why/whynot_algorithms.h"

namespace whyq {
namespace {

class ExplanationTest : public testing::Test {
 protected:
  ExplanationTest() : f_(MakeFigure1()) {
    price_ = *f_.graph.attr_names().Find("Price");
    val_ = *f_.graph.attr_names().Find("val");
    series_ = *f_.graph.edge_labels().Find("series");
    color_ = *f_.graph.edge_labels().Find("color");
  }
  Figure1 f_;
  SymbolId price_, val_, series_, color_;
};

TEST_F(ExplanationTest, PairingAddLClassifiedAsTightening) {
  EditOp op;
  op.kind = OpKind::kAddL;
  op.u = 0;
  op.after = Literal{price_, CompareOp::kGt, Value(int64_t{120})};
  Explanation e = ExplainRewrite(f_.graph, f_.query, {op});
  ASSERT_EQ(e.changes.size(), 1u);
  EXPECT_EQ(e.changes[0].kind, ExplainedChange::Kind::kTightenedBound);
  EXPECT_NE(e.changes[0].sentence.find("pairing"), std::string::npos);
  EXPECT_NE(e.changes[0].sentence.find("Price"), std::string::npos);
}

TEST_F(ExplanationTest, FreshAddLClassifiedAsNewCondition) {
  EditOp op;
  op.kind = OpKind::kAddL;
  op.u = 0;
  op.after = Literal{*f_.graph.attr_names().Find("OS"), CompareOp::kGe,
                     Value(5.0)};
  Explanation e = ExplainRewrite(f_.graph, f_.query, {op});
  ASSERT_EQ(e.changes.size(), 1u);
  EXPECT_EQ(e.changes[0].kind, ExplainedChange::Kind::kAddedCondition);
}

TEST_F(ExplanationTest, AllKindsRender) {
  OperatorSet ops;
  EditOp rfl;
  rfl.kind = OpKind::kRfL;
  rfl.u = 0;
  rfl.before = Literal{price_, CompareOp::kLe, Value(int64_t{650})};
  rfl.after = Literal{price_, CompareOp::kLt, Value(int64_t{250})};
  ops.push_back(rfl);
  EditOp rxl = rfl;
  rxl.kind = OpKind::kRxL;
  rxl.after = Literal{price_, CompareOp::kLe, Value(int64_t{799})};
  ops.push_back(rxl);
  EditOp rml;
  rml.kind = OpKind::kRmL;
  rml.u = 1;
  rml.before = Literal{val_, CompareOp::kEq, Value("pink")};
  ops.push_back(rml);
  EditOp rme;
  rme.kind = OpKind::kRmE;
  rme.u = 0;
  rme.v = 1;
  rme.edge_label = color_;
  ops.push_back(rme);
  EditOp adde;
  adde.kind = OpKind::kAddE;
  adde.u = 0;
  adde.edge_label = series_;
  adde.new_node = NewNodeSpec{
      *f_.graph.node_labels().Find("Series"),
      {Literal{val_, CompareOp::kEq, Value("S")}}};
  ops.push_back(adde);
  EditOp adde2;
  adde2.kind = OpKind::kAddE;
  adde2.u = 1;
  adde2.v = 2;
  adde2.edge_label = color_;
  ops.push_back(adde2);

  Explanation e = ExplainRewrite(f_.graph, f_.query, ops);
  ASSERT_EQ(e.changes.size(), 6u);
  EXPECT_EQ(e.changes[0].kind, ExplainedChange::Kind::kTightenedBound);
  EXPECT_EQ(e.changes[1].kind, ExplainedChange::Kind::kLoosenedBound);
  EXPECT_EQ(e.changes[2].kind, ExplainedChange::Kind::kDroppedCondition);
  EXPECT_EQ(e.changes[3].kind, ExplainedChange::Kind::kDroppedStructure);
  EXPECT_EQ(e.changes[4].kind, ExplainedChange::Kind::kAddedStructure);
  EXPECT_EQ(e.changes[5].kind, ExplainedChange::Kind::kAddedStructure);
  std::string all = e.ToString();
  for (const char* needle :
       {"tightened", "relaxed", "dropped", "no longer required",
        "Series entity with val = S", "connection is now required"}) {
    EXPECT_NE(all.find(needle), std::string::npos) << needle << "\n" << all;
  }
  for (ExplainedChange::Kind k :
       {ExplainedChange::Kind::kTightenedBound,
        ExplainedChange::Kind::kAddedStructure}) {
    EXPECT_NE(std::string(ExplainedChangeKindName(k)), "?");
  }
}

TEST_F(ExplanationTest, DiffQueriesShowsLiteralAndEdgeChanges) {
  Query before = f_.query;
  Query after = f_.query;
  after.AddLiteral(0, Literal{price_, CompareOp::kGt, Value(int64_t{120})});
  ASSERT_TRUE(after.RemoveEdge(0, 1, color_));
  QNodeId fresh = after.AddNode(*f_.graph.node_labels().Find("Series"));
  after.AddEdge(0, fresh, series_);
  std::string diff = DiffQueries(f_.graph, before, after);
  EXPECT_NE(diff.find("+ u0: Price > 120"), std::string::npos) << diff;
  EXPECT_NE(diff.find("- u0 -color-> u1"), std::string::npos) << diff;
  EXPECT_NE(diff.find("+ node u4 Series"), std::string::npos) << diff;
  EXPECT_NE(diff.find("+ u0 -series-> u4"), std::string::npos) << diff;
}

TEST_F(ExplanationTest, EndToEndExplanationOfRealRewrite) {
  Matcher m(f_.graph);
  std::vector<NodeId> answers = m.MatchOutput(f_.query);
  AnswerConfig cfg;
  cfg.budget = 4.0;
  cfg.guard_m = 0;
  WhyQuestion why{{f_.a5, f_.s5}};
  RewriteAnswer a = ExactWhy(f_.graph, f_.query, answers, why, cfg);
  ASSERT_TRUE(a.found);
  Explanation e = ExplainRewrite(f_.graph, f_.query, a.ops);
  EXPECT_EQ(e.changes.size(), a.ops.size());
  EXPECT_FALSE(e.ToString().empty());
  // Diff agrees in spirit: at least one + line per refinement operator.
  std::string diff = DiffQueries(f_.graph, f_.query, a.rewritten);
  EXPECT_NE(diff.find('+'), std::string::npos);
}

}  // namespace
}  // namespace whyq
