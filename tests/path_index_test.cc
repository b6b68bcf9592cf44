#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "gen/figure1.h"
#include "gen/profiles.h"
#include "gen/query_gen.h"
#include "matcher/candidates.h"
#include "matcher/match_context.h"
#include "matcher/matcher.h"
#include "matcher/path_index.h"
#include "rewrite/operators.h"
#include "why/picky.h"

namespace whyq {
namespace {

// One-off path test (and pass fraction) of v against `rw`, over a fresh
// context.
bool Passes(const PathIndex& idx, const Graph& g, const Query& rw, NodeId v) {
  MatchContext ctx(g);
  return PathIndex::Probe(idx, ctx, rw).Passes(v);
}

double PassFraction(const PathIndex& idx, const Graph& g, const Query& rw,
                    NodeId v) {
  MatchContext ctx(g);
  return PathIndex::Probe(idx, ctx, rw).PassFraction(v);
}

TEST(PathIndexTest, EnumeratesMaximalPaths) {
  Figure1 f = MakeFigure1();
  PathIndex idx(f.query, 16);
  // The Fig. 1 query is a star with 3 leaves -> 3 maximal paths.
  EXPECT_EQ(idx.path_count(), 3u);
  EXPECT_FALSE(idx.ToString(f.graph).empty());
}

TEST(PathIndexTest, CapLimitsPaths) {
  Figure1 f = MakeFigure1();
  PathIndex idx(f.query, 2);
  EXPECT_EQ(idx.path_count(), 2u);
}

TEST(PathIndexTest, SingleNodeQueryHasNoPaths) {
  Figure1 f = MakeFigure1();
  Query q;
  QNodeId u = q.AddNode(*f.graph.node_labels().Find("Cellphone"));
  q.SetOutput(u);
  PathIndex idx(q, 8);
  EXPECT_EQ(idx.path_count(), 0u);
  // Passes degenerates to the candidate test.
  EXPECT_TRUE(Passes(idx, f.graph, q, f.s6));
  EXPECT_FALSE(Passes(idx, f.graph, q, 0));  // a Brand node
}

TEST(PathIndexTest, AnswersAlwaysPass) {
  Figure1 f = MakeFigure1();
  PathIndex idx(f.query, 8);
  for (NodeId v : {f.a5, f.s5, f.s6}) {
    EXPECT_TRUE(Passes(idx, f.graph, f.query, v));
  }
}

TEST(PathIndexTest, NonAnswersWithBrokenPathsFail) {
  Figure1 f = MakeFigure1();
  PathIndex idx(f.query, 8);
  // S8 fails the output literal (price), S9 additionally lacks pink.
  EXPECT_FALSE(Passes(idx, f.graph, f.query, f.s8));
  EXPECT_FALSE(Passes(idx, f.graph, f.query, f.s9));
}

TEST(PathIndexTest, RemovedEdgeNoLongerConstrains) {
  Figure1 f = MakeFigure1();
  PathIndex idx(f.query, 8);
  Query relaxed = f.query;
  // Relax price and drop the deal edge: S8 still fails (not pink? it is
  // pink; deal was its blocker; price was the other).
  SymbolId price = *f.graph.attr_names().Find("Price");
  Literal before{price, CompareOp::kLe, Value(int64_t{650})};
  Literal after{price, CompareOp::kLe, Value(int64_t{800})};
  ASSERT_TRUE(relaxed.ReplaceLiteral(relaxed.output(), before, after));
  EXPECT_FALSE(Passes(idx, f.graph, relaxed, f.s8));  // deal literal blocks
  SymbolId deal = *f.graph.edge_labels().Find("deal");
  ASSERT_TRUE(relaxed.RemoveEdge(0, 2, deal));
  EXPECT_TRUE(Passes(idx, f.graph, relaxed, f.s8));
}

TEST(PathIndexTest, PassFractionPartialCredit) {
  Figure1 f = MakeFigure1();
  PathIndex idx(f.query, 8);
  double frac_s8 = PassFraction(idx, f.graph, f.query, f.s8);
  EXPECT_GT(frac_s8, 0.0);  // brand + color paths pass
  EXPECT_LT(frac_s8, 1.0);  // candidate test + deal path fail
  EXPECT_DOUBLE_EQ(PassFraction(idx, f.graph, f.query, f.s6), 1.0);
}

// Property: the path test is a *necessary* condition for answering —
// every exact answer must pass it, for arbitrary generated queries.
TEST(PathIndexTest, PassingIsNecessaryForMatching) {
  Graph g = GenerateProfile(DatasetProfile::kIMDb, 3000, 11);
  Rng rng(13);
  Matcher m(g);
  size_t checked = 0;
  for (int i = 0; i < 5; ++i) {
    QueryGenConfig qcfg;
    qcfg.edges = 3;
    qcfg.literals_per_node = 1;
    std::optional<GeneratedQuery> gq = GenerateQuery(g, qcfg, rng);
    if (!gq.has_value()) continue;
    PathIndex idx(gq->query, 8);
    for (NodeId v : gq->answers) {
      EXPECT_TRUE(Passes(idx, g, gq->query, v));
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

// Reference path test, written out from the class comment independently of
// PathIndex::Probe: full adjacency scans filtered on the label, a fresh
// IsCandidate per visited node, and the rewrite's edge list consulted at
// every step.
bool RefWalk(const Graph& g, const Query& rw,
             const std::vector<PathIndex::Step>& path, size_t pos,
             NodeId at) {
  if (pos == path.size()) return true;
  const PathIndex::Step& s = path[pos];
  QNodeId src = s.forward ? s.from : s.to;
  QNodeId dst = s.forward ? s.to : s.from;
  bool present = false;
  for (const QueryEdge& e : rw.edges()) {
    present |= e.src == src && e.dst == dst && e.label == s.edge_label;
  }
  if (s.to >= rw.node_count() || !present) return true;
  for (const HalfEdge& e : s.forward ? g.out_edges(at) : g.in_edges(at)) {
    if (e.label != s.edge_label) continue;
    if (IsCandidate(g, e.other, rw.node(s.to)) &&
        RefWalk(g, rw, path, pos + 1, e.other)) {
      return true;
    }
  }
  return false;
}

// {output candidate test, path 0, path 1, ...} outcomes of v.
std::vector<bool> RefChecks(const Graph& g, const Query& rw,
                            const PathIndex& idx, NodeId v) {
  std::vector<bool> checks{IsCandidate(g, v, rw.node(rw.output()))};
  for (const auto& path : idx.paths()) {
    checks.push_back(RefWalk(g, rw, path, 0, v));
  }
  return checks;
}

// Property: a probe's verdicts and pass fractions equal the reference path
// test for every output-label node, over a request context reused across
// all rewrites of a query (as inside one question) and over a fresh
// context per rewrite, for random refinement/relaxation rewrites — edge
// removals included.
TEST(PathIndexTest, ProbeMatchesReferencePathTest) {
  Graph g = GenerateProfile(DatasetProfile::kIMDb, 1500, 17);
  Rng rng(29);
  size_t rewrites = 0;
  size_t passing = 0;
  for (int i = 0; i < 6; ++i) {
    QueryGenConfig qcfg;
    qcfg.edges = 2 + i % 3;
    qcfg.literals_per_node = 1 + i % 2;
    std::optional<GeneratedQuery> gq = GenerateQuery(g, qcfg, rng);
    if (!gq.has_value()) continue;
    const Query& q = gq->query;
    PathIndex idx(q, 8);
    AnswerConfig cfg;
    std::vector<NodeId> some(
        gq->answers.begin(),
        gq->answers.begin() + std::min<size_t>(2, gq->answers.size()));
    std::vector<EditOp> ops = GenPickyWhy(g, q, gq->answers, some, cfg);
    NodeSpan bucket = g.NodesWithLabel(q.node(q.output()).label);
    std::vector<NodeId> near(bucket.begin(),
                             bucket.begin() + std::min<size_t>(
                                                  3, bucket.size()));
    std::vector<EditOp> relax = GenPickyWhyNot(g, q, near, cfg);
    ops.insert(ops.end(), relax.begin(), relax.end());

    MatchContext ctx(g);
    for (int trial = 0; trial < 10; ++trial) {
      OperatorSet set;
      if (trial > 0 && !ops.empty()) {
        for (size_t k : rng.SampleDistinct(ops.size(), 1 + rng.Index(3))) {
          bool clash = false;
          for (const EditOp& sel : set) clash |= OpsConflict(sel, ops[k]);
          if (!clash) set.push_back(ops[k]);
        }
      }
      Query rw = ApplyOperators(q, set);
      ++rewrites;
      PathIndex::Probe reused(idx, ctx, rw);
      MatchContext fresh_ctx(g);
      PathIndex::Probe fresh(idx, fresh_ctx, rw);
      for (NodeId v : g.NodesWithLabel(rw.node(rw.output()).label)) {
        std::vector<bool> checks = RefChecks(g, rw, idx, v);
        size_t passed = static_cast<size_t>(
            std::count(checks.begin(), checks.end(), true));
        bool all = passed == checks.size();
        double fraction = static_cast<double>(passed) /
                          static_cast<double>(checks.size());
        passing += all;
        ASSERT_EQ(reused.Passes(v), all) << "node " << v;
        ASSERT_EQ(fresh.Passes(v), all) << "node " << v;
        ASSERT_EQ(reused.PassFraction(v), fraction) << "node " << v;
        ASSERT_EQ(fresh.PassFraction(v), fraction) << "node " << v;
      }
    }
  }
  EXPECT_GE(rewrites, 30u);
  EXPECT_GT(passing, 0u);
}

// A probe resolves each query node's candidate set from the context at most
// once, however many nodes it tests.
TEST(PathIndexTest, ProbeLooksUpEachQueryNodeOnce) {
  Figure1 f = MakeFigure1();
  PathIndex idx(f.query, 8);
  MatchContext ctx(f.graph);
  PathIndex::Probe probe(idx, ctx, f.query);
  for (int round = 0; round < 3; ++round) {
    for (NodeId v = 0; v < f.graph.node_count(); ++v) {
      probe.PassFraction(v);
      probe.Passes(v);
    }
  }
  const MatchContext::Stats& st = ctx.stats();
  EXPECT_LE(st.hits + st.misses + st.delta_builds,
            static_cast<uint64_t>(f.query.node_count()));
}

}  // namespace
}  // namespace whyq
