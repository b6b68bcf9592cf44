#include <gtest/gtest.h>

#include "gen/figure1.h"
#include "matcher/path_index.h"
#include "why/est_match.h"

namespace whyq {
namespace {

class EstMatchTest : public testing::Test {
 protected:
  EstMatchTest()
      : f_(MakeFigure1()),
        pidx_(f_.query, 8),
        price_(*f_.graph.attr_names().Find("Price")) {}

  NodeSet Empty() const {
    return NodeSet(std::vector<NodeId>{}, f_.graph.node_count());
  }

  Figure1 f_;
  PathIndex pidx_;
  SymbolId price_;
};

TEST_F(EstMatchTest, WhyUnionMembersCountAsExcluded) {
  NodeSet excluded = Empty();
  excluded.Insert(f_.a5);
  PathIndex::Probe probe(pidx_, f_.graph, f_.query, nullptr);
  CloseEstimate e = EstimateWhy(probe, excluded, {f_.a5, f_.s5}, {f_.s6}, 2);
  // A5 via the union; S5 still passes the unmodified query's path tests.
  EXPECT_DOUBLE_EQ(e.closeness, 0.5);
  EXPECT_EQ(e.guard, 0u);
  EXPECT_TRUE(e.guard_ok);
}

TEST_F(EstMatchTest, WhyPathScreeningDetectsLiteralExclusion) {
  // Price > 300 on the output node: A5 (250) and S5 (120) fail the
  // candidate test; the estimate catches both without any Aff sets.
  Query refined = f_.query;
  refined.AddLiteral(refined.output(),
                     Literal{price_, CompareOp::kGt, Value(int64_t{300})});
  PathIndex::Probe probe(pidx_, f_.graph, refined, nullptr);
  CloseEstimate e = EstimateWhy(probe, Empty(), {f_.a5, f_.s5}, {f_.s6}, 2);
  EXPECT_DOUBLE_EQ(e.closeness, 1.0);
}

TEST_F(EstMatchTest, WhyGuardCountsDesiredInUnion) {
  NodeSet excluded = Empty();
  excluded.Insert(f_.s6);  // collateral damage recorded by some Aff(o)
  PathIndex::Probe probe(pidx_, f_.graph, f_.query, nullptr);
  CloseEstimate e = EstimateWhy(probe, excluded, {f_.a5}, {f_.s5, f_.s6}, 0);
  EXPECT_FALSE(e.guard_ok);
  EXPECT_EQ(e.guard, 1u);
}

TEST_F(EstMatchTest, WhyNotUnionAndScreening) {
  // Relax price to 700: S8 (654) passes all path tests; S9 (799) fails
  // the candidate test (and has no pink color anyway).
  Query relaxed = f_.query;
  ASSERT_TRUE(relaxed.ReplaceLiteral(
      0, Literal{price_, CompareOp::kLe, Value(int64_t{650})},
      Literal{price_, CompareOp::kLe, Value(int64_t{700})}));
  SymbolId deal = *f_.graph.edge_labels().Find("deal");
  ASSERT_TRUE(relaxed.RemoveEdge(0, 2, deal));
  NodeSet protect(std::vector<NodeId>{f_.a5, f_.s5, f_.s6, f_.s8, f_.s9},
                  f_.graph.node_count());
  PathIndex::Probe probe(pidx_, f_.graph, relaxed, nullptr);
  CloseEstimate e = EstimateWhyNot(probe, NodeSet({}, 0), {f_.s8, f_.s9},
                                   protect, 2, 100);
  EXPECT_DOUBLE_EQ(e.closeness, 0.5);  // S8 estimated in, S9 not
  EXPECT_TRUE(e.guard_ok);             // everything else is protected
}

TEST_F(EstMatchTest, WhyNotGuardDetectsFlood) {
  // Remove the deal edge and relax the price: the S8 floods in but is NOT
  // protected -> estimated guard flags it at m = 0.
  Query relaxed = f_.query;
  ASSERT_TRUE(relaxed.ReplaceLiteral(
      0, Literal{price_, CompareOp::kLe, Value(int64_t{650})},
      Literal{price_, CompareOp::kLe, Value(int64_t{700})}));
  SymbolId deal = *f_.graph.edge_labels().Find("deal");
  ASSERT_TRUE(relaxed.RemoveEdge(0, 2, deal));
  NodeSet protect(std::vector<NodeId>{f_.a5, f_.s5, f_.s6, f_.s9},
                  f_.graph.node_count());
  PathIndex::Probe probe(pidx_, f_.graph, relaxed, nullptr);
  CloseEstimate e =
      EstimateWhyNot(probe, NodeSet({}, 0), {f_.s9}, protect, 0, 100);
  EXPECT_FALSE(e.guard_ok);
}

TEST_F(EstMatchTest, EmptyQuestionsAreZero) {
  PathIndex::Probe probe(pidx_, f_.graph, f_.query, nullptr);
  CloseEstimate e = EstimateWhy(probe, Empty(), {}, {}, 2);
  EXPECT_DOUBLE_EQ(e.closeness, 0.0);
  EXPECT_TRUE(e.guard_ok);
}

}  // namespace
}  // namespace whyq
