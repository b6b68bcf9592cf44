#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <vector>

#include "gen/figure1.h"
#include "gen/profiles.h"
#include "gen/query_gen.h"
#include "matcher/match_context.h"
#include "matcher/match_engine.h"
#include "matcher/matcher.h"
#include "matcher/simulation.h"
#include "rewrite/operators.h"
#include "why/picky.h"
#include "why/why_algorithms.h"
#include "why/whynot_algorithms.h"

namespace whyq {
namespace {

TEST(SimulationTest, Figure1AgreesWithIsomorphism) {
  // On the star-shaped Fig. 1 query (no injectivity pressure, no cycles)
  // dual simulation and isomorphism coincide.
  Figure1 f = MakeFigure1();
  Matcher m(f.graph);
  std::vector<NodeId> iso = m.MatchOutput(f.query);
  std::vector<NodeId> sim = SimulationAnswers(f.graph, f.query);
  std::sort(iso.begin(), iso.end());
  EXPECT_EQ(iso, sim);
}

TEST(SimulationTest, SimulationIsSupersetOfIsomorphism) {
  Graph g = GenerateProfile(DatasetProfile::kIMDb, 2000, 5);
  Rng rng(3);
  QueryGenConfig cfg;
  cfg.edges = 3;
  cfg.literals_per_node = 1;
  size_t checked = 0;
  for (int i = 0; i < 6; ++i) {
    std::optional<GeneratedQuery> gq = GenerateQuery(g, cfg, rng);
    if (!gq.has_value()) continue;
    std::vector<NodeId> sim = SimulationAnswers(g, gq->query);
    for (NodeId v : gq->answers) {
      EXPECT_TRUE(std::binary_search(sim.begin(), sim.end(), v));
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST(SimulationTest, DropsInjectivity) {
  // One B node serving two query children: iso fails, simulation matches.
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
  std::vector<NodeId> sim = SimulationAnswers(g, q);
  ASSERT_EQ(sim.size(), 1u);
  EXPECT_EQ(sim[0], a);
}

TEST(SimulationTest, DualConditionPrunesDanglingChain) {
  // Cyclic query vs. a plain chain: the chain's endpoints lack the
  // required successor/predecessor, and pruning cascades to emptiness.
  GraphBuilder gb;
  NodeId x0 = gb.AddNode("X");
  NodeId x1 = gb.AddNode("X");
  NodeId x2 = gb.AddNode("X");
  gb.AddEdge(x0, x1, "r");
  gb.AddEdge(x1, x2, "r");
  Graph chain = gb.Build();
  SymbolId x = *chain.node_labels().Find("X");
  SymbolId r = *chain.edge_labels().Find("r");
  Query cyc;
  QNodeId u0 = cyc.AddNode(x);
  QNodeId u1 = cyc.AddNode(x);
  cyc.AddEdge(u0, u1, r);
  cyc.AddEdge(u1, u0, r);
  cyc.SetOutput(u0);
  EXPECT_TRUE(SimulationAnswers(chain, cyc).empty());

  // On an actual 2-cycle both nodes simulate.
  GraphBuilder gb2;
  NodeId y0 = gb2.AddNode("X");
  NodeId y1 = gb2.AddNode("X");
  gb2.AddEdge(y0, y1, "r");
  gb2.AddEdge(y1, y0, "r");
  Graph cycle = gb2.Build();
  EXPECT_EQ(SimulationAnswers(cycle, cyc).size(), 2u);
}

TEST(SimulationTest, CycleMatchesUnrolling) {
  // The hallmark of simulation: a directed 3-cycle query matches a 2-cycle
  // graph (its unrolling), which isomorphism cannot.
  GraphBuilder gb;
  NodeId y0 = gb.AddNode("X");
  NodeId y1 = gb.AddNode("X");
  gb.AddEdge(y0, y1, "r");
  gb.AddEdge(y1, y0, "r");
  Graph cycle2 = gb.Build();
  SymbolId x = *cycle2.node_labels().Find("X");
  SymbolId r = *cycle2.edge_labels().Find("r");
  Query cyc3;
  QNodeId u0 = cyc3.AddNode(x);
  QNodeId u1 = cyc3.AddNode(x);
  QNodeId u2 = cyc3.AddNode(x);
  cyc3.AddEdge(u0, u1, r);
  cyc3.AddEdge(u1, u2, r);
  cyc3.AddEdge(u2, u0, r);
  cyc3.SetOutput(u0);
  Matcher m(cycle2);
  EXPECT_TRUE(m.MatchOutput(cyc3).empty());  // needs 3 distinct nodes
  EXPECT_EQ(SimulationAnswers(cycle2, cyc3).size(), 2u);
}

TEST(SimulationTest, LiteralsRespected) {
  Figure1 f = MakeFigure1();
  MatchContext ctx(f.graph);
  std::vector<std::vector<NodeId>> sim = DualSimulation(ctx, f.query);
  // Phones over the price bound never simulate the output node.
  const std::vector<NodeId>& out = sim[f.query.output()];
  EXPECT_FALSE(std::binary_search(out.begin(), out.end(), f.s8));
  EXPECT_FALSE(std::binary_search(out.begin(), out.end(), f.s9));
}

// Each relation over a fresh context, built for this one call.
std::vector<std::vector<NodeId>> FreshSimulation(const Graph& g,
                                                 const Query& q) {
  MatchContext fresh(g);
  return DualSimulation(fresh, q);
}

TEST(SimulationTest, ReusedContextMatchesFreshContext) {
  // One context reused across random refinement and relaxation rewrites of
  // generated queries, as inside one question: every relation equals the
  // one over a fresh context, node by node, while the reused memo serves
  // hits and builds sets from memoized literal bitmaps.
  Graph g = GenerateProfile(DatasetProfile::kDBpedia, 1200, 17);
  Rng rng(29);
  QueryGenConfig qc;
  qc.edges = 4;
  qc.literals_per_node = 2;
  qc.min_answers = 1;
  MatchContext ctx(g);
  size_t rewrites = 0;
  for (int i = 0; i < 4; ++i) {
    std::optional<GeneratedQuery> gq = GenerateQuery(g, qc, rng);
    if (!gq.has_value()) continue;
    const Query& q = gq->query;
    std::vector<NodeId> entities(
        gq->answers.begin(),
        gq->answers.begin() + std::min<size_t>(2, gq->answers.size()));
    AnswerConfig cfg;
    std::vector<EditOp> ops = GenPickyWhy(g, q, gq->answers, entities, cfg);
    std::vector<EditOp> relax = GenPickyWhyNot(g, q, entities, cfg);
    ops.insert(ops.end(), relax.begin(), relax.end());
    EXPECT_EQ(DualSimulation(ctx, q), FreshSimulation(g, q));
    for (int trial = 0; trial < 12 && !ops.empty(); ++trial) {
      OperatorSet set;
      for (size_t idx : rng.SampleDistinct(ops.size(), 1 + rng.Index(3))) {
        if (std::none_of(set.begin(), set.end(), [&](const EditOp& o) {
              return OpsConflict(o, ops[idx]);
            })) {
          set.push_back(ops[idx]);
        }
      }
      Query rw = ApplyOperators(q, set);
      std::vector<std::vector<NodeId>> reused = DualSimulation(ctx, rw);
      std::vector<std::vector<NodeId>> fresh = FreshSimulation(g, rw);
      ASSERT_EQ(reused.size(), fresh.size());
      for (QNodeId u = 0; u < rw.node_count(); ++u) {
        EXPECT_EQ(reused[u], fresh[u]) << "query " << i << " rewrite "
                                       << trial << " node " << u;
      }
      EXPECT_EQ(SimulationAnswers(ctx, rw), SimulationAnswers(g, rw));
      ++rewrites;
    }
  }
  EXPECT_GT(rewrites, 0u);
  EXPECT_GT(ctx.stats().hits, 0u);
  EXPECT_GT(ctx.stats().delta_builds, 0u);
}

// The Why operators of a generated query, by kind (RfL, AddL, AddE to an
// existing node, AddE to a new one; empty kinds dropped), plus a join. The
// base query gets two nodes outside its output component, joined by a
// copy of the data edge that leaves one answer's neighbour; the join is an
// AddE from the output to the first of them, along a data edge of that
// answer, so the answer stays matched and the edge between the two is
// counted fresh.
struct RefinementChains {
  Query base;
  QNodeId joined = kInvalidQNode;
  std::vector<std::vector<EditOp>> by_kind;
};

RefinementChains MakeChains(const Graph& g, const GeneratedQuery& gq) {
  RefinementChains out;
  out.base = gq.query;
  std::vector<NodeId> entities(
      gq.answers.begin(),
      gq.answers.begin() + std::min<size_t>(2, gq.answers.size()));
  AnswerConfig cfg;
  std::vector<EditOp> ops =
      GenPickyWhy(g, gq.query, gq.answers, entities, cfg);
  EdgeSpan out_edges = g.out_edges(gq.answers.front());
  if (!out_edges.empty()) {
    const HalfEdge& first = *out_edges.begin();
    out.joined = out.base.AddNode(g.label(first.other));
    EdgeSpan next = g.out_edges(first.other);
    if (!next.empty()) {
      QNodeId w = out.base.AddNode(g.label(next.begin()->other));
      out.base.AddEdge(out.joined, w, next.begin()->label);
    }
    EditOp join;
    join.kind = OpKind::kAddE;
    join.u = out.base.output();
    join.v = out.joined;
    join.edge_label = first.label;
    ops.push_back(join);
  }
  out.by_kind.resize(4);
  for (EditOp& o : ops) {
    size_t k = o.kind == OpKind::kRfL    ? 0
               : o.kind == OpKind::kAddL ? 1
               : o.new_node.has_value()  ? 3
                                         : 2;
    out.by_kind[k].push_back(std::move(o));
  }
  out.by_kind.erase(std::remove_if(out.by_kind.begin(), out.by_kind.end(),
                                   [](const std::vector<EditOp>& v) {
                                     return v.empty();
                                   }),
                    out.by_kind.end());
  return out;
}

// Draws a kind first, then an operator of it, so the rare kinds show up;
// false when the operator is in `set` already or conflicts with it.
bool ExtendChain(const RefinementChains& c, Rng& rng, OperatorSet& set) {
  const std::vector<EditOp>& kind = c.by_kind[rng.Index(c.by_kind.size())];
  const EditOp& op = kind[rng.Index(kind.size())];
  if (std::any_of(set.begin(), set.end(), [&](const EditOp& o) {
        return o == op || OpsConflict(o, op);
      })) {
    return false;
  }
  set.push_back(op);
  return true;
}

TEST(SimulationTest, CountedDeltaMatchesCold) {
  // A refinement (RfL, AddL, AddE to an existing or a new node) only
  // shrinks the maximum dual simulation, so it is a delta of the relation
  // of the query it refines. Over random refinement chains, the counted
  // delta from the base, and the answers of a simulation engine that
  // assumed the base, must equal the cold fixpoint node by node.
  Graph g = GenerateProfile(DatasetProfile::kDBpedia, 1200, 17);
  Rng rng(31);
  QueryGenConfig qc;
  qc.edges = 3;
  qc.min_answers = 2;
  MatchContext ctx(g);
  size_t rfl = 0;
  size_t addl = 0;
  size_t adde = 0;
  size_t adde_new = 0;
  size_t joins = 0;
  size_t links = 0;
  for (int i = 0; i < 6; ++i) {
    qc.literals_per_node = 1 + i % 2;
    std::optional<GeneratedQuery> gq = GenerateQuery(g, qc, rng);
    if (!gq.has_value()) continue;
    RefinementChains chains = MakeChains(g, *gq);
    if (chains.by_kind.empty()) continue;
    const Query& base = chains.base;
    RefinementSimulation delta(ctx, base);
    std::unique_ptr<MatchEngine> engine =
        MakeMatchEngine(ctx, MatchSemantics::kSimulation);
    engine->AssumeRefinementsOf(base);
    for (int chain = 0; chain < 8; ++chain) {
      OperatorSet set;
      for (int step = 0; step < 4; ++step) {
        if (!ExtendChain(chains, rng, set)) continue;
        const EditOp& op = set.back();
        Query rw = ApplyOperators(base, set);
        std::vector<std::vector<NodeId>> cold = FreshSimulation(g, rw);
        std::optional<std::vector<std::vector<NodeId>>> got =
            delta.Relation(rw);
        ASSERT_TRUE(got.has_value());
        ASSERT_EQ(got->size(), cold.size());
        for (QNodeId u = 0; u < rw.node_count(); ++u) {
          EXPECT_EQ((*got)[u], cold[u]) << "query " << i << " chain "
                                        << chain << " step " << step
                                        << " node " << u;
        }
        EXPECT_EQ(engine->MatchOutput(rw), cold[rw.output()]);
        switch (op.kind) {
          case OpKind::kRfL:
            ++rfl;
            break;
          case OpKind::kAddL:
            ++addl;
            break;
          case OpKind::kAddE:
            ++(op.new_node.has_value() ? adde_new : adde);
            joins += op.v == chains.joined ? 1 : 0;
            break;
          default:
            ADD_FAILURE() << "Why generated a relaxation";
        }
        ++links;
      }
    }
  }
  EXPECT_GT(links, 0u);
  EXPECT_GT(rfl, 0u);
  EXPECT_GT(addl, 0u);
  EXPECT_GT(adde, 0u);
  EXPECT_GT(adde_new, 0u);
  EXPECT_GT(joins, 0u);
}

TEST(SimulationTest, DeltasLeaveTheBaseIntact) {
  // Each delta restores the counts and member bits it touched: after a few
  // hundred refinements on one engine, Q itself still returns S_Q(u_o), the
  // delta of Q is still its whole cold relation, and further refinements
  // still equal their cold relations. A query that drops one of Q's edges
  // is a relaxation, which the delta declines and the engine runs cold.
  Graph g = GenerateProfile(DatasetProfile::kDBpedia, 1200, 17);
  Rng rng(37);
  QueryGenConfig qc;
  qc.edges = 3;
  qc.literals_per_node = 2;
  qc.min_answers = 2;
  size_t bases = 0;
  for (int i = 0; i < 4; ++i) {
    std::optional<GeneratedQuery> gq = GenerateQuery(g, qc, rng);
    if (!gq.has_value()) continue;
    RefinementChains chains = MakeChains(g, *gq);
    if (chains.by_kind.empty()) continue;
    const Query& base = chains.base;
    MatchContext ctx(g);
    RefinementSimulation delta(ctx, base);
    std::unique_ptr<MatchEngine> engine =
        MakeMatchEngine(ctx, MatchSemantics::kSimulation);
    engine->AssumeRefinementsOf(base);
    size_t deltas = 0;
    for (int trial = 0; trial < 300; ++trial) {
      OperatorSet set;
      for (int step = 0; step < 3; ++step) ExtendChain(chains, rng, set);
      Query rw = ApplyOperators(base, set);
      engine->MatchOutput(rw);
      deltas += delta.Relation(rw).has_value() ? 1 : 0;
    }
    EXPECT_EQ(deltas, 300u);
    std::vector<std::vector<NodeId>> cold = FreshSimulation(g, base);
    EXPECT_EQ(engine->MatchOutput(base), cold[base.output()]);
    EXPECT_EQ(delta.Relation(base), cold);
    for (int trial = 0; trial < 20; ++trial) {
      OperatorSet set;
      for (int step = 0; step < 3; ++step) ExtendChain(chains, rng, set);
      Query rw = ApplyOperators(base, set);
      EXPECT_EQ(delta.Relation(rw), FreshSimulation(g, rw));
    }
    Query relaxed = base;
    const QueryEdge e = base.edges().front();
    ASSERT_TRUE(relaxed.RemoveEdge(e.src, e.dst, e.label));
    EXPECT_FALSE(delta.Relation(relaxed).has_value());
    EXPECT_EQ(engine->MatchOutput(relaxed),
              FreshSimulation(g, relaxed)[relaxed.output()]);
    ++bases;
  }
  EXPECT_GT(bases, 0u);
}

TEST(SimulationTest, GreedyAlgorithmsUseTheCandidateMemo) {
  // Under simulation semantics ApproxWhy and FastWhyNot path-test and
  // verify through their evaluators' candidate memos, like isomorphism.
  Figure1 f = MakeFigure1();
  AnswerConfig cfg;
  cfg.budget = 5.0;
  cfg.guard_m = 2;
  cfg.semantics = MatchSemantics::kSimulation;
  std::vector<NodeId> answers = SimulationAnswers(f.graph, f.query);
  auto lookups = [](const MatchContext::Stats& s) {
    return s.hits + s.misses + s.delta_builds;
  };
  RewriteAnswer why =
      ApproxWhy(f.graph, f.query, answers, WhyQuestion{{f.a5, f.s5}}, cfg);
  EXPECT_GT(lookups(why.ctx), 0u);
  WhyNotQuestion w;
  w.missing = {f.s8, f.s9};
  RewriteAnswer whynot = FastWhyNot(f.graph, f.query, answers, w, cfg);
  EXPECT_GT(lookups(whynot.ctx), 0u);
}

TEST(MatchEngineTest, FactoryAndNames) {
  Figure1 f = MakeFigure1();
  for (MatchSemantics s :
       {MatchSemantics::kIsomorphism, MatchSemantics::kSimulation}) {
    MatchContext ctx(f.graph);
    std::unique_ptr<MatchEngine> e = MakeMatchEngine(ctx, s);
    ASSERT_NE(e, nullptr);
    std::vector<NodeId> ans = e->MatchOutput(f.query);
    EXPECT_EQ(ans.size(), 3u);
    EXPECT_TRUE(e->IsAnswer(f.query, f.s6));
    EXPECT_FALSE(e->IsAnswer(f.query, f.s9));
    EXPECT_TRUE(e->HasAnyMatch(f.query));
    NodeSet none(std::vector<NodeId>{}, f.graph.node_count());
    EXPECT_EQ(e->CountAnswersNotIn(f.query, none, 10), 3u);
    EXPECT_EQ(e->CountAnswersNotIn(f.query, none, 1), 2u);  // early stop
    EXPECT_NE(std::string(MatchSemanticsName(s)), "?");
  }
}

TEST(MatchEngineTest, WhyUnderSimulationSemantics) {
  // The full Why pipeline under simulation semantics on Fig. 1: same
  // optimal rewrite story as under isomorphism.
  Figure1 f = MakeFigure1();
  MatchContext ctx(f.graph);
  std::unique_ptr<MatchEngine> e =
      MakeMatchEngine(ctx, MatchSemantics::kSimulation);
  std::vector<NodeId> answers = e->MatchOutput(f.query);
  AnswerConfig cfg;
  cfg.budget = 4.0;
  cfg.guard_m = 0;
  cfg.semantics = MatchSemantics::kSimulation;
  WhyQuestion why{{f.a5, f.s5}};
  RewriteAnswer a = ExactWhy(f.graph, f.query, answers, why, cfg);
  ASSERT_TRUE(a.found);
  EXPECT_DOUBLE_EQ(a.eval.closeness, 1.0);
  EXPECT_TRUE(a.eval.guard_ok);
  EXPECT_FALSE(e->IsAnswer(a.rewritten, f.a5));
  EXPECT_FALSE(e->IsAnswer(a.rewritten, f.s5));
  EXPECT_TRUE(e->IsAnswer(a.rewritten, f.s6));
}

TEST(MatchEngineTest, WhyNotUnderSimulationSemantics) {
  Figure1 f = MakeFigure1();
  MatchContext ctx(f.graph);
  std::unique_ptr<MatchEngine> e =
      MakeMatchEngine(ctx, MatchSemantics::kSimulation);
  std::vector<NodeId> answers = e->MatchOutput(f.query);
  AnswerConfig cfg;
  cfg.budget = 5.0;
  cfg.guard_m = 2;
  cfg.semantics = MatchSemantics::kSimulation;
  WhyNotQuestion w;
  w.missing = {f.s8, f.s9};
  RewriteAnswer a = ExactWhyNot(f.graph, f.query, answers, w, cfg);
  ASSERT_TRUE(a.found);
  EXPECT_DOUBLE_EQ(a.eval.closeness, 1.0);
  EXPECT_TRUE(e->IsAnswer(a.rewritten, f.s8));
  EXPECT_TRUE(e->IsAnswer(a.rewritten, f.s9));
}

}  // namespace
}  // namespace whyq
