#include <gtest/gtest.h>

#include <algorithm>

#include "gen/figure1.h"
#include "graph/neighborhood.h"
#include "matcher/candidates.h"
#include "matcher/match_context.h"
#include "matcher/match_engine.h"
#include "matcher/matcher.h"

namespace whyq {
namespace {

std::vector<NodeId> Sorted(std::vector<NodeId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(CandidatesTest, LabelAndLiterals) {
  Figure1 f = MakeFigure1();
  const Graph& g = f.graph;
  const QueryNode& phone = f.query.node(f.query.output());
  EXPECT_TRUE(IsCandidate(g, f.s6, phone));   // price 600 <= 650
  EXPECT_FALSE(IsCandidate(g, f.s8, phone));  // price 654
  EXPECT_FALSE(IsCandidate(g, 0, phone));     // a Brand node
}

TEST(CandidatesTest, MissingAttributeFailsLiteral) {
  GraphBuilder b;
  NodeId with = b.AddNode("A");
  b.SetAttr(with, "p", Value(int64_t{1}));
  b.AddNode("A");  // lacks p entirely
  Graph g = b.Build();
  QueryNode qn;
  qn.label = *g.node_labels().Find("A");
  qn.literals.emplace_back(*g.attr_names().Find("p"), CompareOp::kGe,
                           Value(int64_t{0}));
  EXPECT_TRUE(IsCandidate(g, 0, qn));
  EXPECT_FALSE(IsCandidate(g, 1, qn));
}

TEST(CandidatesTest, CandidateListAndCount) {
  Figure1 f = MakeFigure1();
  std::vector<NodeId> c = Candidates(f.graph, f.query, f.query.output());
  EXPECT_EQ(Sorted(c), Sorted({f.a5, f.s5, f.s6}));
  EXPECT_EQ(Candidates(f.graph, f.query, f.query.output()).size(), 3u);
}

TEST(MatcherTest, Figure1Answer) {
  Figure1 f = MakeFigure1();
  Matcher m(f.graph);
  EXPECT_EQ(Sorted(m.MatchOutput(f.query)), Sorted({f.a5, f.s5, f.s6}));
}

TEST(MatcherTest, IsAnswerAgreesWithMatchOutput) {
  Figure1 f = MakeFigure1();
  Matcher m(f.graph);
  EXPECT_TRUE(m.IsAnswer(f.query, f.s6));
  EXPECT_FALSE(m.IsAnswer(f.query, f.s8));
  EXPECT_FALSE(m.IsAnswer(f.query, f.s9));
}

TEST(MatcherTest, EdgeDirectionMatters) {
  // Graph: a -> b. Query asking b -> a must not match.
  GraphBuilder gb;
  NodeId a = gb.AddNode("A");
  NodeId b = gb.AddNode("B");
  gb.AddEdge(a, b, "r");
  Graph g = gb.Build();
  SymbolId la = *g.node_labels().Find("A");
  SymbolId lb = *g.node_labels().Find("B");
  SymbolId r = *g.edge_labels().Find("r");

  Query forward;
  QNodeId ua = forward.AddNode(la);
  QNodeId ub = forward.AddNode(lb);
  forward.AddEdge(ua, ub, r);
  forward.SetOutput(ua);
  Query backward;
  ua = backward.AddNode(la);
  ub = backward.AddNode(lb);
  backward.AddEdge(ub, ua, r);
  backward.SetOutput(ua);

  Matcher m(g);
  EXPECT_EQ(m.MatchOutput(forward).size(), 1u);
  EXPECT_TRUE(m.MatchOutput(backward).empty());
}

TEST(MatcherTest, EdgeLabelMatters) {
  GraphBuilder gb;
  NodeId a = gb.AddNode("A");
  NodeId b = gb.AddNode("B");
  gb.AddEdge(a, b, "r");
  Graph g = gb.Build();
  Query q;
  QNodeId ua = q.AddNode(*g.node_labels().Find("A"));
  QNodeId ub = q.AddNode(*g.node_labels().Find("B"));
  q.AddEdge(ua, ub, *g.edge_labels().Find("r") + 17);
  q.SetOutput(ua);
  Matcher m(g);
  EXPECT_TRUE(m.MatchOutput(q).empty());
}

TEST(MatcherTest, InjectivityEnforced) {
  // One B node; query wants two distinct Bs around the output.
  GraphBuilder gb;
  NodeId a = gb.AddNode("A");
  NodeId b = gb.AddNode("B");
  gb.AddEdge(a, b, "r");
  Graph g = gb.Build();
  SymbolId la = *g.node_labels().Find("A");
  SymbolId lb = *g.node_labels().Find("B");
  SymbolId r = *g.edge_labels().Find("r");
  Query q;
  QNodeId ua = q.AddNode(la);
  QNodeId u1 = q.AddNode(lb);
  QNodeId u2 = q.AddNode(lb);
  q.AddEdge(ua, u1, r);
  q.AddEdge(ua, u2, r);
  q.SetOutput(ua);
  Matcher m(g);
  EXPECT_TRUE(m.MatchOutput(q).empty());
  // Adding a second B makes it matchable.
  GraphBuilder gb2;
  NodeId a2 = gb2.AddNode("A");
  NodeId b1 = gb2.AddNode("B");
  NodeId b2 = gb2.AddNode("B");
  gb2.AddEdge(a2, b1, "r");
  gb2.AddEdge(a2, b2, "r");
  Graph g2 = gb2.Build();
  Matcher m2(g2);
  Query q2;
  ua = q2.AddNode(*g2.node_labels().Find("A"));
  u1 = q2.AddNode(*g2.node_labels().Find("B"));
  u2 = q2.AddNode(*g2.node_labels().Find("B"));
  SymbolId r2 = *g2.edge_labels().Find("r");
  q2.AddEdge(ua, u1, r2);
  q2.AddEdge(ua, u2, r2);
  q2.SetOutput(ua);
  EXPECT_EQ(m2.MatchOutput(q2).size(), 1u);
}

TEST(MatcherTest, CyclicQuery) {
  // Directed triangle a->b->c->a; cyclic query matches each corner.
  GraphBuilder gb;
  NodeId a = gb.AddNode("X");
  NodeId b = gb.AddNode("X");
  NodeId c = gb.AddNode("X");
  gb.AddEdge(a, b, "r");
  gb.AddEdge(b, c, "r");
  gb.AddEdge(c, a, "r");
  // A dangling chain that must NOT match the cycle.
  NodeId d = gb.AddNode("X");
  gb.AddEdge(c, d, "r");
  Graph g = gb.Build();
  SymbolId x = *g.node_labels().Find("X");
  SymbolId r = *g.edge_labels().Find("r");
  Query q;
  QNodeId u0 = q.AddNode(x);
  QNodeId u1 = q.AddNode(x);
  QNodeId u2 = q.AddNode(x);
  q.AddEdge(u0, u1, r);
  q.AddEdge(u1, u2, r);
  q.AddEdge(u2, u0, r);
  q.SetOutput(u0);
  Matcher m(g);
  EXPECT_EQ(Sorted(m.MatchOutput(q)), Sorted({a, b, c}));
}

TEST(MatcherTest, SelfLoopOnOutput) {
  GraphBuilder gb;
  NodeId a = gb.AddNode("X");
  NodeId b = gb.AddNode("X");
  gb.AddEdge(a, a, "self");
  (void)b;
  Graph g = gb.Build();
  Query q;
  QNodeId u = q.AddNode(*g.node_labels().Find("X"));
  q.AddEdge(u, u, *g.edge_labels().Find("self"));
  q.SetOutput(u);
  Matcher m(g);
  std::vector<NodeId> ans = m.MatchOutput(q);
  ASSERT_EQ(ans.size(), 1u);
  EXPECT_EQ(ans[0], a);
}

TEST(MatcherTest, DisconnectedQueryEvaluatesOutputComponent) {
  Figure1 f = MakeFigure1();
  Query q = f.query;
  // Strand the Color constraint: all 4 phones with AT&T deals... still only
  // those passing the price literal and brand/deal edges.
  SymbolId color = *f.graph.edge_labels().Find("color");
  ASSERT_TRUE(q.RemoveEdge(0, 1, color));
  Matcher m(f.graph);
  // Without the pink requirement, A5/S5/S6 still match (S8 fails price).
  EXPECT_EQ(Sorted(m.MatchOutput(q)), Sorted({f.a5, f.s5, f.s6}));
}

TEST(MatcherTest, HasAnyMatch) {
  Figure1 f = MakeFigure1();
  Matcher m(f.graph);
  EXPECT_TRUE(m.HasAnyMatch(f.query));
  Query q = f.query;
  q.AddLiteral(q.output(), Literal{*f.graph.attr_names().Find("Price"),
                                   CompareOp::kLt, Value(int64_t{0})});
  EXPECT_FALSE(m.HasAnyMatch(q));
}

TEST(MatcherTest, CountAnswersNotInWithEarlyStop) {
  Figure1 f = MakeFigure1();
  Matcher m(f.graph);
  NodeSet none(std::vector<NodeId>{}, f.graph.node_count());
  EXPECT_EQ(m.CountAnswersNotIn(f.query, none, 10), 3u);
  NodeSet all(std::vector<NodeId>{f.a5, f.s5, f.s6}, f.graph.node_count());
  EXPECT_EQ(m.CountAnswersNotIn(f.query, all, 10), 0u);
  // limit 1 -> early stop reports limit+1.
  EXPECT_EQ(m.CountAnswersNotIn(f.query, none, 1), 2u);
}

TEST(MatcherTest, MatchAllOutputs) {
  Figure1 f = MakeFigure1();
  Query q = f.query;
  q.AddOutput(1);  // also return colors
  Matcher m(f.graph);
  std::vector<std::vector<NodeId>> per = m.MatchAllOutputs(q);
  ASSERT_EQ(per.size(), 2u);
  EXPECT_EQ(per[0].size(), 3u);
  EXPECT_EQ(per[1].size(), 1u);  // only the pink color node
}

TEST(MatcherTest, TestAnswersMatchesPointwiseIsAnswer) {
  Figure1 f = MakeFigure1();
  Matcher m(f.graph);
  std::vector<NodeId> probe{f.a5, f.s5, f.s6, f.s8, f.s9, 0, 1};
  std::vector<uint8_t> batch = m.TestAnswers(f.query, probe);
  ASSERT_EQ(batch.size(), probe.size());
  for (size_t i = 0; i < probe.size(); ++i) {
    EXPECT_EQ(batch[i] != 0, m.IsAnswer(f.query, probe[i])) << i;
  }
}

TEST(MatcherTest, MatchAllOutputsHonorsCancelToken) {
  Figure1 f = MakeFigure1();
  Query q = f.query;
  q.AddOutput(1);  // two outputs: phones and colors
  Matcher m(f.graph);
  // An already-expired token: every output's enumeration must break before
  // testing any candidate, the shape must be preserved (one list per
  // output), and cancelled() must report the truncation.
  CancelToken token;
  token.Cancel();
  m.set_cancel_token(&token);
  std::vector<std::vector<NodeId>> per = m.MatchAllOutputs(q);
  ASSERT_EQ(per.size(), 2u);
  EXPECT_TRUE(per[0].empty());
  EXPECT_TRUE(per[1].empty());
  EXPECT_TRUE(m.cancelled());
  // Re-arming with a live (deadline-free) token resets the latch and the
  // full answer comes back.
  CancelToken live;
  m.set_cancel_token(&live);
  per = m.MatchAllOutputs(q);
  ASSERT_EQ(per.size(), 2u);
  EXPECT_EQ(per[0].size(), 3u);
  EXPECT_EQ(per[1].size(), 1u);
  EXPECT_FALSE(m.cancelled());
}

TEST(MatcherTest, StatsAccumulate) {
  Figure1 f = MakeFigure1();
  Matcher m(f.graph);
  m.MatchOutput(f.query);
  EXPECT_GT(m.stats().iso_tests, 0u);
  EXPECT_GT(m.stats().embeddings_tried, 0u);
  m.ResetStats();
  EXPECT_EQ(m.stats().iso_tests, 0u);
}

// Every match runs over a MatchContext: a one-off Matcher owns one, and
// both engines look their candidate sets up in the context they borrow.
TEST(MatcherTest, EveryMatchRunsOverAContext) {
  Figure1 f = MakeFigure1();
  Matcher m(f.graph);
  m.MatchOutput(f.query);
  MatcherStats s = m.stats();
  EXPECT_GT(s.ctx_hits + s.ctx_misses + s.ctx_delta_builds, 0u);
  for (MatchSemantics sem :
       {MatchSemantics::kIsomorphism, MatchSemantics::kSimulation}) {
    MatchContext ctx(f.graph);
    MakeMatchEngine(ctx, sem)->MatchOutput(f.query);
    const MatchContext::Stats& c = ctx.stats();
    EXPECT_GT(c.hits + c.misses + c.delta_builds, 0u)
        << MatchSemanticsName(sem);
  }
}

}  // namespace
}  // namespace whyq
