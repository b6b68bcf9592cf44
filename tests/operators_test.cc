#include <gtest/gtest.h>

#include "gen/figure1.h"
#include "rewrite/operators.h"

namespace whyq {
namespace {

class OperatorsTest : public testing::Test {
 protected:
  OperatorsTest() : f_(MakeFigure1()) {
    price_ = *f_.graph.attr_names().Find("Price");
    val_ = *f_.graph.attr_names().Find("val");
    color_ = *f_.graph.edge_labels().Find("color");
    series_ = *f_.graph.edge_labels().Find("series");
  }
  Figure1 f_;
  SymbolId price_, val_, color_, series_;
};

TEST_F(OperatorsTest, KindClassification) {
  EXPECT_TRUE(IsRelaxation(OpKind::kRxL));
  EXPECT_TRUE(IsRelaxation(OpKind::kRmL));
  EXPECT_TRUE(IsRelaxation(OpKind::kRmE));
  EXPECT_TRUE(IsRefinement(OpKind::kRfL));
  EXPECT_TRUE(IsRefinement(OpKind::kAddL));
  EXPECT_TRUE(IsRefinement(OpKind::kAddE));
  EXPECT_STREQ(OpKindName(OpKind::kRxL), "RxL");
  EXPECT_STREQ(OpKindName(OpKind::kAddE), "AddE");
}

TEST_F(OperatorsTest, ApplyRxL) {
  EditOp op;
  op.kind = OpKind::kRxL;
  op.u = 0;
  op.before = Literal{price_, CompareOp::kLe, Value(int64_t{650})};
  op.after = Literal{price_, CompareOp::kLe, Value(int64_t{799})};
  Query out = ApplyOperators(f_.query, {op});
  ASSERT_EQ(out.node(0).literals.size(), 1u);
  EXPECT_EQ(out.node(0).literals[0].constant.as_int(), 799);
  // Original untouched (value semantics).
  EXPECT_EQ(f_.query.node(0).literals[0].constant.as_int(), 650);
}

TEST_F(OperatorsTest, ApplyRmLAndRmE) {
  EditOp rml;
  rml.kind = OpKind::kRmL;
  rml.u = 1;
  rml.before = Literal{val_, CompareOp::kEq, Value("pink")};
  EditOp rme;
  rme.kind = OpKind::kRmE;
  rme.u = 0;
  rme.v = 1;
  rme.edge_label = color_;
  Query out = ApplyOperators(f_.query, {rml, rme});
  EXPECT_TRUE(out.node(1).literals.empty());
  EXPECT_EQ(out.edge_count(), f_.query.edge_count() - 1);
}

TEST_F(OperatorsTest, ApplyAddLAndAddEExisting) {
  EditOp addl;
  addl.kind = OpKind::kAddL;
  addl.u = 0;
  addl.after = Literal{price_, CompareOp::kGt, Value(int64_t{120})};
  EditOp adde;
  adde.kind = OpKind::kAddE;
  adde.u = 1;
  adde.v = 2;
  adde.edge_label = color_;
  Query out = ApplyOperators(f_.query, {addl, adde});
  EXPECT_EQ(out.node(0).literals.size(), 2u);
  EXPECT_EQ(out.edge_count(), f_.query.edge_count() + 1);
}

TEST_F(OperatorsTest, ApplyCompositeAddENewNode) {
  EditOp op;
  op.kind = OpKind::kAddE;
  op.u = 0;
  op.edge_label = series_;
  op.edge_forward = true;
  op.new_node = NewNodeSpec{
      *f_.graph.node_labels().Find("Series"),
      {Literal{val_, CompareOp::kEq, Value("S")}}};
  Query out = ApplyOperators(f_.query, {op});
  EXPECT_EQ(out.node_count(), f_.query.node_count() + 1);
  QNodeId fresh = static_cast<QNodeId>(out.node_count() - 1);
  EXPECT_EQ(out.node(fresh).literals.size(), 1u);
  // Edge direction honored.
  bool found = false;
  for (const QueryEdge& e : out.edges()) {
    found |= e.src == 0 && e.dst == fresh && e.label == series_;
  }
  EXPECT_TRUE(found);

  // Reverse direction.
  op.edge_forward = false;
  Query out2 = ApplyOperators(f_.query, {op});
  fresh = static_cast<QNodeId>(out2.node_count() - 1);
  found = false;
  for (const QueryEdge& e : out2.edges()) {
    found |= e.src == fresh && e.dst == 0 && e.label == series_;
  }
  EXPECT_TRUE(found);
}

TEST_F(OperatorsTest, ConflictsBetweenLiteralEdits) {
  EditOp rxl1;
  rxl1.kind = OpKind::kRxL;
  rxl1.u = 0;
  rxl1.before = Literal{price_, CompareOp::kLe, Value(int64_t{650})};
  rxl1.after = Literal{price_, CompareOp::kLe, Value(int64_t{700})};
  EditOp rxl2 = rxl1;
  rxl2.after = Literal{price_, CompareOp::kLe, Value(int64_t{800})};
  EditOp rml;
  rml.kind = OpKind::kRmL;
  rml.u = 0;
  rml.before = rxl1.before;
  EXPECT_TRUE(OpsConflict(rxl1, rxl2));
  EXPECT_TRUE(OpsConflict(rxl1, rml));
  // Different node or different literal: no conflict.
  EditOp other = rxl1;
  other.u = 1;
  EXPECT_FALSE(OpsConflict(rxl1, other));
}

TEST_F(OperatorsTest, NoConflictAcrossKinds) {
  EditOp addl;
  addl.kind = OpKind::kAddL;
  addl.u = 0;
  addl.after = Literal{price_, CompareOp::kGt, Value(int64_t{1})};
  EditOp rme;
  rme.kind = OpKind::kRmE;
  rme.u = 0;
  rme.v = 1;
  rme.edge_label = color_;
  EXPECT_FALSE(OpsConflict(addl, rme));
  EXPECT_TRUE(OpsConflict(rme, rme));  // duplicate edge removal
}

TEST_F(OperatorsTest, BuildConflictsAdjacency) {
  EditOp a;
  a.kind = OpKind::kRxL;
  a.u = 0;
  a.before = Literal{price_, CompareOp::kLe, Value(int64_t{650})};
  a.after = Literal{price_, CompareOp::kLe, Value(int64_t{700})};
  EditOp b = a;
  b.after = Literal{price_, CompareOp::kLe, Value(int64_t{800})};
  EditOp c;
  c.kind = OpKind::kAddL;
  c.u = 0;
  c.after = Literal{price_, CompareOp::kGt, Value(int64_t{0})};
  std::vector<std::vector<size_t>> conf = BuildConflicts({a, b, c});
  ASSERT_EQ(conf.size(), 3u);
  EXPECT_EQ(conf[0], std::vector<size_t>{1});
  EXPECT_EQ(conf[1], std::vector<size_t>{0});
  EXPECT_TRUE(conf[2].empty());
}

TEST_F(OperatorsTest, ToStringCoversKinds) {
  EditOp op;
  op.kind = OpKind::kRmE;
  op.u = 0;
  op.v = 1;
  op.edge_label = color_;
  EXPECT_NE(op.ToString(f_.graph).find("RmE"), std::string::npos);
  op.kind = OpKind::kAddE;
  op.new_node = NewNodeSpec{*f_.graph.node_labels().Find("Series"), {}};
  EXPECT_NE(op.ToString(f_.graph).find("new:Series"), std::string::npos);
  EXPECT_FALSE(DescribeOperators({op, op}, f_.graph).empty());
}

}  // namespace
}  // namespace whyq
