#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "gen/figure1.h"
#include "matcher/matcher.h"
#include "query/query_parser.h"
#include "rewrite/operators.h"
#include "why/why_algorithms.h"
#include "why/whynot_algorithms.h"

namespace whyq {
namespace {

class AlgorithmsTest : public testing::Test {
 protected:
  AlgorithmsTest() : f_(MakeFigure1()) {
    answers_ = {f_.a5, f_.s5, f_.s6};
    cfg_.budget = 4.0;
    cfg_.guard_m = 0;
  }
  Figure1 f_;
  std::vector<NodeId> answers_;
  AnswerConfig cfg_;
};

TEST_F(AlgorithmsTest, ExactWhySolvesFigure1Optimally) {
  WhyQuestion w{{f_.a5, f_.s5}};
  RewriteAnswer a = ExactWhy(f_.graph, f_.query, answers_, w, cfg_);
  ASSERT_TRUE(a.found);
  EXPECT_DOUBLE_EQ(a.eval.closeness, 1.0);
  EXPECT_TRUE(a.eval.guard_ok);
  EXPECT_LE(a.cost, cfg_.budget + 1e-9);
  EXPECT_TRUE(a.exhaustive);
  // The rewrite must exclude A5/S5 but keep S6.
  Matcher m(f_.graph);
  EXPECT_FALSE(m.IsAnswer(a.rewritten, f_.a5));
  EXPECT_FALSE(m.IsAnswer(a.rewritten, f_.s5));
  EXPECT_TRUE(m.IsAnswer(a.rewritten, f_.s6));
}

TEST_F(AlgorithmsTest, ExactWhyUsesOnlyRefinements) {
  WhyQuestion w{{f_.a5, f_.s5}};
  RewriteAnswer a = ExactWhy(f_.graph, f_.query, answers_, w, cfg_);
  for (const EditOp& op : a.ops) EXPECT_TRUE(IsRefinement(op.kind));
}

TEST_F(AlgorithmsTest, ApproxWhyNearOptimalOnFigure1) {
  WhyQuestion w{{f_.a5, f_.s5}};
  RewriteAnswer exact = ExactWhy(f_.graph, f_.query, answers_, w, cfg_);
  RewriteAnswer approx = ApproxWhy(f_.graph, f_.query, answers_, w, cfg_);
  ASSERT_TRUE(approx.found);
  EXPECT_TRUE(approx.eval.guard_ok);
  EXPECT_LE(approx.cost, cfg_.budget + 1e-9);
  // Paper: ApproxWhy preserves at least ~half the optimal closeness; on
  // this tiny instance it should be far better.
  EXPECT_GE(approx.eval.closeness, 0.5 * exact.eval.closeness);
}

TEST_F(AlgorithmsTest, IsoWhyAtLeastAsCloseAsApprox) {
  WhyQuestion w{{f_.a5, f_.s5}};
  RewriteAnswer iso = IsoWhy(f_.graph, f_.query, answers_, w, cfg_);
  ASSERT_TRUE(iso.found);
  EXPECT_DOUBLE_EQ(iso.eval.closeness, 1.0);
  EXPECT_TRUE(iso.eval.guard_ok);
}

TEST_F(AlgorithmsTest, WhySingleUnexpected) {
  WhyQuestion w{{f_.s5}};
  RewriteAnswer a = ExactWhy(f_.graph, f_.query, answers_, w, cfg_);
  ASSERT_TRUE(a.found);
  EXPECT_DOUBLE_EQ(a.eval.closeness, 1.0);
  Matcher m(f_.graph);
  EXPECT_TRUE(m.IsAnswer(a.rewritten, f_.a5));
  EXPECT_TRUE(m.IsAnswer(a.rewritten, f_.s6));
}

TEST_F(AlgorithmsTest, WhyRespectsTinyBudget) {
  WhyQuestion w{{f_.a5, f_.s5}};
  AnswerConfig tiny = cfg_;
  tiny.budget = 1.0;  // only a single neighbor-node operator fits
  RewriteAnswer a = ExactWhy(f_.graph, f_.query, answers_, w, tiny);
  EXPECT_LE(a.cost, 1.0 + 1e-9);
  // Guard must hold even under pressure.
  EXPECT_TRUE(a.eval.guard_ok);
}

TEST_F(AlgorithmsTest, WhyEmptyQuestionFindsNothing) {
  WhyQuestion w{{}};
  RewriteAnswer a = ExactWhy(f_.graph, f_.query, answers_, w, cfg_);
  EXPECT_FALSE(a.found);
  a = ApproxWhy(f_.graph, f_.query, answers_, w, cfg_);
  EXPECT_FALSE(a.found);
}

TEST_F(AlgorithmsTest, WhyCostMinimizationShrinksOps) {
  WhyQuestion w{{f_.a5, f_.s5}};
  AnswerConfig no_min = cfg_;
  no_min.minimize_cost = false;
  RewriteAnswer with_min = ExactWhy(f_.graph, f_.query, answers_, w, cfg_);
  RewriteAnswer without = ExactWhy(f_.graph, f_.query, answers_, w, no_min);
  EXPECT_LE(with_min.cost, without.cost + 1e-9);
  EXPECT_DOUBLE_EQ(with_min.eval.closeness, without.eval.closeness);
}

TEST_F(AlgorithmsTest, ExactWhyNotCoversBothMissing) {
  WhyNotQuestion w;
  w.missing = {f_.s8, f_.s9};
  AnswerConfig cfg = cfg_;
  cfg.budget = 4.5;
  cfg.guard_m = 2;
  RewriteAnswer a = ExactWhyNot(f_.graph, f_.query, answers_, w, cfg);
  ASSERT_TRUE(a.found);
  EXPECT_DOUBLE_EQ(a.eval.closeness, 1.0);
  EXPECT_TRUE(a.eval.guard_ok);
  for (const EditOp& op : a.ops) EXPECT_TRUE(IsRelaxation(op.kind));
  Matcher m(f_.graph);
  EXPECT_TRUE(m.IsAnswer(a.rewritten, f_.s8));
  EXPECT_TRUE(m.IsAnswer(a.rewritten, f_.s9));
  // Relaxation preserves the original answers (Lemma 1).
  for (NodeId v : answers_) EXPECT_TRUE(m.IsAnswer(a.rewritten, v));
}

TEST_F(AlgorithmsTest, FastWhyNotNearOptimal) {
  WhyNotQuestion w;
  w.missing = {f_.s8, f_.s9};
  AnswerConfig cfg = cfg_;
  cfg.budget = 5.0;
  cfg.guard_m = 2;
  RewriteAnswer exact = ExactWhyNot(f_.graph, f_.query, answers_, w, cfg);
  RewriteAnswer fast = FastWhyNot(f_.graph, f_.query, answers_, w, cfg);
  ASSERT_TRUE(fast.found);
  EXPECT_GE(fast.eval.closeness, 0.5 * exact.eval.closeness);
  EXPECT_LE(fast.cost, cfg.budget + 1e-9);
}

TEST_F(AlgorithmsTest, IsoWhyNotFindsRewrite) {
  WhyNotQuestion w;
  w.missing = {f_.s8};
  AnswerConfig cfg = cfg_;
  cfg.budget = 5.0;
  cfg.guard_m = 2;
  RewriteAnswer a = IsoWhyNot(f_.graph, f_.query, answers_, w, cfg);
  ASSERT_TRUE(a.found);
  Matcher m(f_.graph);
  EXPECT_TRUE(m.IsAnswer(a.rewritten, f_.s8));
}

TEST_F(AlgorithmsTest, WhyNotWithConditionRestrictsTargets) {
  WhyNotQuestion w;
  w.missing = {f_.s8, f_.s9};
  ConstraintLiteral os_ge8;
  os_ge8.attr = *f_.graph.attr_names().Find("OS");
  os_ge8.op = CompareOp::kGe;
  os_ge8.constant = Value(8.0);  // keeps only the S9
  w.condition.literals.push_back(os_ge8);
  AnswerConfig cfg = cfg_;
  cfg.budget = 5.0;
  cfg.guard_m = 2;
  RewriteAnswer a = ExactWhyNot(f_.graph, f_.query, answers_, w, cfg);
  ASSERT_TRUE(a.found);
  EXPECT_DOUBLE_EQ(a.eval.closeness, 1.0);
  Matcher m(f_.graph);
  EXPECT_TRUE(m.IsAnswer(a.rewritten, f_.s9));
}

TEST_F(AlgorithmsTest, WhyNotGuardBlocksFloodingRewrites) {
  // m = 0 and V_C = {S9}: any rewrite loose enough for the S9 also admits
  // the S8, so no valid rewrite exists.
  WhyNotQuestion w;
  w.missing = {f_.s9};
  AnswerConfig cfg = cfg_;
  cfg.budget = 6.0;
  cfg.guard_m = 0;
  RewriteAnswer a = ExactWhyNot(f_.graph, f_.query, answers_, w, cfg);
  if (a.found) {
    Matcher m(f_.graph);
    EXPECT_TRUE(m.IsAnswer(a.rewritten, f_.s9));
    EXPECT_FALSE(m.IsAnswer(a.rewritten, f_.s8));
  }
  EXPECT_TRUE(a.eval.guard_ok);
}

TEST_F(AlgorithmsTest, ExplainMentionsOperators) {
  WhyQuestion w{{f_.a5, f_.s5}};
  RewriteAnswer a = ExactWhy(f_.graph, f_.query, answers_, w, cfg_);
  std::string s = a.Explain(f_.graph);
  EXPECT_NE(s.find("closeness"), std::string::npos);
  RewriteAnswer none;
  EXPECT_NE(none.Explain(f_.graph).find("no valid rewrite"),
            std::string::npos);
}

// The greedy's conflict pruning. Three unexpected products a, e, b and two
// desired ones c, d answer `price <= 100`. RfL `price < 50` would exclude
// all three but also c (guard m = 0), so the first pick is RfL
// `price < 90` (a and e), and RfL `price < 95`, an edit of the same
// literal, is still in the pool while b is not yet excluded. The greedy
// must prune it, never return it next to `price < 90`, and finish b with
// another operator.
TEST(GreedyConflictTest, RefinementOfASelectedLiteralIsPruned) {
  GraphBuilder b;
  struct Product {
    int64_t price;
    int64_t rating;
  };
  const Product products[] = {{90, 5}, {95, 5}, {50, 9}, {60, 5}, {10, 5}};
  std::vector<NodeId> answers;
  for (const Product& p : products) {
    NodeId v = b.AddNode("P");
    b.SetAttr(v, "price", Value(p.price));
    b.SetAttr(v, "rating", Value(p.rating));
    answers.push_back(v);
  }
  Graph g = b.Build();
  std::string error;
  std::optional<Query> q =
      ParseQuery("node p P price <= i:100\noutput p\n", g, &error);
  ASSERT_TRUE(q.has_value()) << error;
  ASSERT_EQ(Matcher(g).MatchOutput(*q), answers);
  WhyQuestion w{{answers[0], answers[1], answers[2]}};
  AnswerConfig cfg;
  cfg.budget = 4.0;
  cfg.guard_m = 0;
  cfg.weighted_cost = false;
  for (MatchSemantics sem :
       {MatchSemantics::kIsomorphism, MatchSemantics::kSimulation}) {
    cfg.semantics = sem;
    for (auto algo : {&ApproxWhy, &IsoWhy}) {
      RewriteAnswer a = algo(g, *q, answers, w, cfg);
      for (size_t i = 0; i < a.ops.size(); ++i) {
        for (size_t j = i + 1; j < a.ops.size(); ++j) {
          EXPECT_FALSE(OpsConflict(a.ops[i], a.ops[j]))
              << DescribeOperators(a.ops, g);
        }
      }
      EXPECT_TRUE(a.found);
      EXPECT_DOUBLE_EQ(a.eval.closeness, 1.0) << DescribeOperators(a.ops, g);
      // The scenario: an RfL of `price` was picked while b still counted.
      ASSERT_EQ(a.ops.size(), 2u) << DescribeOperators(a.ops, g);
      EXPECT_EQ(a.ops[0].kind, OpKind::kRfL);
    }
  }
}

}  // namespace
}  // namespace whyq
