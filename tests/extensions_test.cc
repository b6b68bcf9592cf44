#include <gtest/gtest.h>

#include <sstream>

#include "gen/figure1.h"
#include "matcher/matcher.h"
#include "matcher/simulation.h"
#include "query/query_parser.h"
#include "why/extensions.h"

namespace whyq {
namespace {

class ExtensionsTest : public testing::Test {
 protected:
  ExtensionsTest() : f_(MakeFigure1()) {
    answers_ = {f_.a5, f_.s5, f_.s6};
    price_ = *f_.graph.attr_names().Find("Price");
  }
  Figure1 f_;
  std::vector<NodeId> answers_;
  AnswerConfig cfg_;
  SymbolId price_;
};

TEST_F(ExtensionsTest, WhyEmptyTrivialWhenAnswerNonEmpty) {
  WhyEmptyResult r = AnswerWhyEmpty(f_.graph, f_.query, cfg_);
  EXPECT_TRUE(r.found);
  EXPECT_TRUE(r.ops.empty());
  EXPECT_EQ(r.sample_answers.size(), 3u);
}

TEST_F(ExtensionsTest, WhyEmptyRelaxesContradictoryQuery) {
  Query q = f_.query;
  // Price <= 650 AND Price > 5000 can never match.
  q.AddLiteral(q.output(),
               Literal{price_, CompareOp::kGt, Value(int64_t{5000})});
  Matcher m(f_.graph);
  ASSERT_FALSE(m.HasAnyMatch(q));
  AnswerConfig cfg = cfg_;
  cfg.budget = 6.0;
  WhyEmptyResult r = AnswerWhyEmpty(f_.graph, q, cfg);
  ASSERT_TRUE(r.found);
  EXPECT_FALSE(r.ops.empty());
  EXPECT_FALSE(r.sample_answers.empty());
  EXPECT_TRUE(m.HasAnyMatch(r.rewritten));
  EXPECT_LE(r.cost, cfg.budget + 1e-9);
}

TEST_F(ExtensionsTest, WhyEmptyHopelessLabel) {
  // A label carried by no node cannot be fixed by relaxation.
  Query q;
  QNodeId u = q.AddNode(kInvalidSymbol);
  q.SetOutput(u);
  WhyEmptyResult r = AnswerWhyEmpty(f_.graph, q, cfg_);
  EXPECT_FALSE(r.found);
}

TEST_F(ExtensionsTest, WhySoManyAlreadySmall) {
  WhySoManyResult r =
      AnswerWhySoMany(f_.graph, f_.query, answers_, 5, cfg_);
  EXPECT_TRUE(r.found);
  EXPECT_TRUE(r.ops.empty());
  EXPECT_EQ(r.before, 3u);
  EXPECT_EQ(r.after, 3u);
}

TEST_F(ExtensionsTest, WhySoManyReducesAnswer) {
  AnswerConfig cfg = cfg_;
  cfg.budget = 4.0;
  WhySoManyResult r =
      AnswerWhySoMany(f_.graph, f_.query, answers_, 1, cfg);
  EXPECT_EQ(r.before, 3u);
  EXPECT_LE(r.after, r.before);
  if (r.found) {
    EXPECT_LE(r.after, 1u);
    Matcher m(f_.graph);
    EXPECT_EQ(m.MatchOutput(r.rewritten).size(), r.after);
    for (const EditOp& op : r.ops) EXPECT_TRUE(IsRefinement(op.kind));
  }
}

// Products with reviews, where the two semantics part through injectivity:
// P0 has two reviews, P1..P3 one each. A query asking for a Product with
// two reviews matches P0 under isomorphism and all four under simulation
// (one review serves both query reviews). Prices 10, 10, 20, 20 under the
// query's `price <= 30` give the refinements something to split on.
class ExtensionsSemanticsTest : public testing::Test {
 protected:
  ExtensionsSemanticsTest() {
    GraphBuilder gb;
    for (int64_t price : {10, 10, 20, 20}) {
      NodeId p = gb.AddNode("Product");
      gb.SetAttr(p, "price", Value(price));
      products_.push_back(p);
      gb.AddEdge(gb.AddNode("Review"), p, "reviewOf");
    }
    gb.AddEdge(gb.AddNode("Review"), products_[0], "reviewOf");
    g_ = gb.Build();
  }

  // A Product priced at most 30 with `reviews` distinct Review nodes
  // pointing at it.
  Query ReviewedProduct(int reviews) const {
    std::ostringstream text;
    text << "node p Product price <= i:30\n";
    for (int i = 0; i < reviews; ++i) {
      text << "node r" << i << " Review\nedge r" << i << " p reviewOf\n";
    }
    text << "output p\n";
    std::string error;
    std::optional<Query> q = ParseQuery(text.str(), g_, &error);
    EXPECT_TRUE(q.has_value()) << error;
    return *q;
  }

  Graph g_;
  std::vector<NodeId> products_;
};

TEST_F(ExtensionsSemanticsTest, WhySoManyCountsAfterUnderSimulation) {
  Query q = ReviewedProduct(2);
  ASSERT_EQ(Matcher(g_).MatchOutput(q).size(), 1u);
  std::vector<NodeId> answers = SimulationAnswers(g_, q);
  ASSERT_EQ(answers, products_);
  AnswerConfig cfg;
  cfg.semantics = MatchSemantics::kSimulation;
  cfg.budget = 4.0;
  WhySoManyResult r = AnswerWhySoMany(g_, q, answers, 2, cfg);
  EXPECT_EQ(r.before, 4u);
  ASSERT_FALSE(r.ops.empty());
  EXPECT_EQ(r.after, SimulationAnswers(g_, r.rewritten).size());
  // The rewrite keeps an answer only simulation admits, so counting it
  // under isomorphism would report a different size.
  EXPECT_NE(r.after, Matcher(g_).MatchOutput(r.rewritten).size());
}

TEST_F(ExtensionsSemanticsTest, WhyEmptyTrivialWhenOnlySimulationMatches) {
  // No product has three reviews, but every product simulates the query.
  Query q = ReviewedProduct(3);
  ASSERT_FALSE(Matcher(g_).HasAnyMatch(q));
  AnswerConfig cfg;
  cfg.semantics = MatchSemantics::kSimulation;
  WhyEmptyResult r = AnswerWhyEmpty(g_, q, cfg);
  EXPECT_TRUE(r.found);
  EXPECT_TRUE(r.ops.empty());
  EXPECT_EQ(r.sample_answers, products_);
}

}  // namespace
}  // namespace whyq
