#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gen/bsbm.h"
#include "gen/figure1.h"
#include "gen/query_gen.h"
#include "matcher/path_index.h"
#include "rewrite/operators.h"
#include "why/est_match.h"
#include "why/picky.h"

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
  MatchContext ctx_{f_.graph};
};

TEST_F(EstMatchTest, WhyUnionMembersCountAsExcluded) {
  NodeSet excluded = Empty();
  excluded.Insert(f_.a5);
  PathIndex::Probe probe(pidx_, ctx_, f_.query);
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
  PathIndex::Probe probe(pidx_, ctx_, refined);
  CloseEstimate e = EstimateWhy(probe, Empty(), {f_.a5, f_.s5}, {f_.s6}, 2);
  EXPECT_DOUBLE_EQ(e.closeness, 1.0);
}

TEST_F(EstMatchTest, WhyGuardCountsDesiredInUnion) {
  NodeSet excluded = Empty();
  excluded.Insert(f_.s6);  // collateral damage recorded by some Aff(o)
  PathIndex::Probe probe(pidx_, ctx_, f_.query);
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
  GuardWindow window(pidx_, ctx_, f_.query, protect, 100);
  PathIndex::Probe probe(pidx_, ctx_, relaxed);
  CloseEstimate e =
      EstimateWhyNot(probe, window, NodeSet({}, 0), {f_.s8, f_.s9}, 2);
  EXPECT_DOUBLE_EQ(e.closeness, 0.5);  // S8 estimated in, S9 not
  EXPECT_TRUE(e.guard_ok);             // everything else is protected
}

TEST_F(EstMatchTest, WhyNotGuardDetectsFlood) {
  // Remove the deal edge and relax the price: the S8 floods in but is NOT
  // protected -> estimated guard flags it at m = 0, whether the window was
  // recorded under Q (a delta of two operators) or under the rewrite.
  Query relaxed = f_.query;
  ASSERT_TRUE(relaxed.ReplaceLiteral(
      0, Literal{price_, CompareOp::kLe, Value(int64_t{650})},
      Literal{price_, CompareOp::kLe, Value(int64_t{700})}));
  SymbolId deal = *f_.graph.edge_labels().Find("deal");
  ASSERT_TRUE(relaxed.RemoveEdge(0, 2, deal));
  NodeSet protect(std::vector<NodeId>{f_.a5, f_.s5, f_.s6, f_.s9},
                  f_.graph.node_count());
  for (const Query* base : {&f_.query, &relaxed}) {
    GuardWindow window(pidx_, ctx_, *base, protect, 100);
    PathIndex::Probe probe(pidx_, ctx_, relaxed);
    CloseEstimate e = EstimateWhyNot(probe, window, NodeSet({}, 0), {f_.s9}, 0);
    EXPECT_FALSE(e.guard_ok);
    EXPECT_EQ(e.guard, 1u);
  }
}

// The window is the first k output-label nodes outside the protected set:
// a passer at non-protected position k counts and one at k + 1 does not,
// protected nodes do not use up the cap, and the count stops at m + 1.
TEST(GuardWindowTest, WindowBoundaryAndStop) {
  // P nodes in bucket order: protected passer, two failers, then passers
  // at non-protected positions 3, 4 and 5.
  GraphBuilder b;
  std::vector<int64_t> xs{1, 0, 0, 1, 1, 1};
  for (int64_t x : xs) b.SetAttr(b.AddNode("P"), "x", Value(x));
  Graph g = b.Build();
  Query q;
  QNodeId u = q.AddNode(*g.node_labels().Find("P"));
  q.SetOutput(u);
  q.AddLiteral(u, Literal{*g.attr_names().Find("x"), CompareOp::kGe,
                          Value(int64_t{1})});
  Query strict = q;  // nobody passes: the window is a delta of it below
  ASSERT_TRUE(strict.ReplaceLiteral(u, q.node(u).literals[0],
                                    Literal{q.node(u).literals[0].attr,
                                            CompareOp::kGe,
                                            Value(int64_t{5})}));
  PathIndex idx(q, 8);
  NodeSet protect(std::vector<NodeId>{0}, g.node_count());
  MatchContext ctx(g);
  PathIndex::Probe probe(idx, ctx, q);
  for (const Query* base : {&q, &strict}) {
    auto count = [&](size_t cap, size_t m) {
      GuardWindow window(idx, ctx, *base, protect, cap);
      return window.CountPassers(probe, m);
    };
    EXPECT_EQ(count(2, 10), 0u);  // positions 1, 2: failers only
    EXPECT_EQ(count(3, 10), 1u);  // position 3 counts
    EXPECT_EQ(count(4, 10), 2u);  // ... and position 4 only from cap 4
    EXPECT_EQ(count(5, 10), 3u);
    EXPECT_EQ(count(100, 10), 3u);  // the cap above the bucket
    EXPECT_EQ(count(5, 1), 2u);     // stops at m + 1
    EXPECT_EQ(count(5, 3), 3u);
    GuardWindow window(idx, ctx, *base, protect, 4);
    CloseEstimate at_m = EstimateWhyNot(probe, window, NodeSet({}, 0), {}, 2);
    EXPECT_EQ(at_m.guard, 2u);
    EXPECT_TRUE(at_m.guard_ok);
    CloseEstimate past_m =
        EstimateWhyNot(probe, window, NodeSet({}, 0), {}, 1);
    EXPECT_EQ(past_m.guard, 2u);
    EXPECT_FALSE(past_m.guard_ok);
  }
}

TEST_F(EstMatchTest, EmptyQuestionsAreZero) {
  PathIndex::Probe probe(pidx_, ctx_, f_.query);
  CloseEstimate e = EstimateWhy(probe, Empty(), {}, {}, 2);
  EXPECT_DOUBLE_EQ(e.closeness, 0.0);
  EXPECT_TRUE(e.guard_ok);
}

// The full scan GuardWindow replaces, kept here as the reference: the
// first `cap` output-label nodes outside `protect`, path-tested from scratch
// in bucket order, stopping past m. A node passes when it passes every
// check (PassFraction 1), which no check mask takes part in.
size_t FullScanGuard(const PathIndex& idx, const Graph& g, const Query& rw,
                     const NodeSet& protect, size_t m, size_t cap) {
  MatchContext ctx(g);
  PathIndex::Probe probe(idx, ctx, rw);
  size_t scanned = 0;
  size_t guard = 0;
  for (NodeId v : g.NodesWithLabel(rw.node(rw.output()).label)) {
    if (protect.Contains(v)) continue;
    if (++scanned > cap) break;
    if (probe.PassFraction(v) == 1.0 && ++guard > m) break;
  }
  return guard;
}

// What the relaxation chains exercised, summed over their seeds.
struct ChainCoverage {
  size_t output_literal = 0;  // RxL / RmL on the output node
  size_t path_literal = 0;    // RxL / RmL changing a path check
  size_t live_cut = 0;        // RmE shortening a live prefix
  size_t unmasked = 0;        // estimates over checks past the mask
  size_t compared = 0;
  size_t passers = 0;
};

// A random relaxation chain from q over `ops`. Each step compares the
// window's count with the full scan for random operators added to the
// base (a scoring round), for each selected operator dropped from it (the
// shrink loop) and for the base itself, at a random m; then one operator
// joins the base and the window rebases. The window and the estimates use
// different contexts, as slot 0 and a scoring slot do.
void CheckRelaxationChain(const Graph& g, const Query& q, const PathIndex& idx,
                          const std::vector<EditOp>& ops,
                          const NodeSet& protect, size_t cap, Rng& rng,
                          ChainCoverage& cov) {
  MatchContext base_ctx(g);
  MatchContext slot_ctx(g);
  GuardWindow window(idx, base_ctx, q, protect, cap);
  OperatorSet selected;
  auto check = [&](const OperatorSet& set) {
    Query rw = ApplyOperators(q, set);
    PathIndex::Probe probe(idx, slot_ctx, rw);
    size_t m = rng.Chance(0.25) ? g.node_count() : rng.Index(3);
    size_t want = FullScanGuard(idx, g, rw, protect, m, cap);
    ASSERT_EQ(window.CountPassers(probe, m), want)
        << "m " << m << " cap " << cap << " { "
        << DescribeOperators(set, g) << " }";
    ++cov.compared;
    cov.passers += want;
    if (probe.check_count() > PathIndex::Probe::kMaskChecks) ++cov.unmasked;
  };
  auto fits = [&](const EditOp& op) {
    for (const EditOp& sel : selected) {
      if (sel == op || OpsConflict(sel, op)) return false;
    }
    return true;
  };
  for (int step = 0; step < 5 && !ops.empty(); ++step) {
    MatchContext scratch(g);
    Query base_rw = ApplyOperators(q, selected);
    PathIndex::Probe base_probe(idx, scratch, base_rw);
    for (int t = 0; t < 6; ++t) {
      const EditOp& op = ops[rng.Index(ops.size())];
      if (!fits(op)) continue;
      OperatorSet trial = selected;
      trial.push_back(op);
      Query rw = ApplyOperators(q, trial);
      PathIndex::Probe probe(idx, scratch, rw);
      const PathIndex::Probe::CheckMask changed =
          probe.ChangedChecks(base_probe);
      if (op.kind == OpKind::kRmE) {
        cov.live_cut += (changed & ~PathIndex::Probe::CheckMask{1}) != 0;
      } else if (op.u == q.output()) {
        cov.output_literal += (changed & 1) != 0;
      } else {
        cov.path_literal += (changed & ~PathIndex::Probe::CheckMask{1}) != 0;
      }
      check(trial);
    }
    for (size_t i = 0; i < selected.size(); ++i) {
      OperatorSet trial = selected;
      trial.erase(trial.begin() + static_cast<long>(i));
      check(trial);
    }
    check(selected);
    for (int t = 0; t < 8; ++t) {
      const EditOp& op = ops[rng.Index(ops.size())];
      if (!fits(op)) continue;
      selected.push_back(op);
      window.Rebase(ApplyOperators(q, selected));
      break;
    }
  }
}

// The delta count equals the full scan on random relaxation chains over
// generated BSBM queries, at window caps below and above the bucket size.
TEST(GuardWindowPropertyTest, DeltaEqualsFullScanOnRelaxationChains) {
  ChainCoverage cov;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Graph g = GenerateBsbm(BsbmConfig{60, seed});
    Rng rng(seed * 7919 + 3);
    QueryGenConfig qc;
    qc.edges = 2 + seed % 3;
    qc.literals_per_node = 1 + seed % 2;
    qc.min_answers = 1;
    std::optional<GeneratedQuery> gq = GenerateQuery(g, qc, rng);
    if (!gq.has_value()) continue;
    const Query& q = gq->query;
    NodeSpan bucket = g.NodesWithLabel(q.node(q.output()).label);
    NodeSet protect(gq->answers, g.node_count());
    std::vector<NodeId> missing;
    for (NodeId v : bucket) {
      if (!protect.Contains(v) && missing.size() < 3 && rng.Chance(0.3)) {
        missing.push_back(v);
      }
    }
    for (NodeId v : missing) protect.Insert(v);
    AnswerConfig cfg;
    std::vector<EditOp> ops = GenPickyWhyNot(g, q, missing, cfg);
    PathIndex idx(q, 8);
    for (size_t cap : {size_t{3}, bucket.size() / 2, bucket.size() + 5}) {
      CheckRelaxationChain(g, q, idx, ops, protect, cap, rng, cov);
      if (testing::Test::HasFatalFailure()) return;
    }
  }
  EXPECT_GE(cov.compared, 300u);
  EXPECT_GT(cov.passers, 0u);
  EXPECT_GT(cov.output_literal, 0u);
  EXPECT_GT(cov.path_literal, 0u);
  EXPECT_GT(cov.live_cut, 0u);
}

// A star query with more leaves than the mask has bits: the checks past
// the mask width have no bit and are retested on every estimate.
TEST(GuardWindowPropertyTest, DeltaEqualsFullScanPastTheMaskWidth) {
  constexpr size_t kLeaves = PathIndex::Probe::kMaskChecks + 6;
  Rng rng(41);
  GraphBuilder b;
  std::vector<NodeId> hubs;
  std::vector<NodeId> leaves;
  for (int i = 0; i < 40; ++i) hubs.push_back(b.AddNode("P"));
  for (int i = 0; i < 30; ++i) {
    leaves.push_back(b.AddNode("L"));
    b.SetAttr(leaves.back(), "x", Value(rng.Uniform(0, 9)));
  }
  for (NodeId h : hubs) {
    for (int e = 0; e < 6; ++e) {
      b.AddEdge(h, leaves[rng.Index(leaves.size())], "r");
    }
  }
  Graph g = b.Build();
  SymbolId x = *g.attr_names().Find("x");
  Query q;
  QNodeId out = q.AddNode(*g.node_labels().Find("P"));
  q.SetOutput(out);
  for (size_t i = 0; i < kLeaves; ++i) {
    QNodeId leaf = q.AddNode(*g.node_labels().Find("L"));
    q.AddEdge(out, leaf, *g.edge_labels().Find("r"));
    // Loose bounds: most hubs pass most leaf checks, so nodes fail few.
    // The leaves past the mask width (check i + 1) are stricter, so some
    // hubs fail unmasked checks alone.
    int64_t bound = i + 1 >= PathIndex::Probe::kMaskChecks
                        ? 7
                        : rng.Uniform(0, 4);
    q.AddLiteral(leaf, Literal{x, CompareOp::kGe, Value(bound)});
  }
  PathIndex idx(q, kLeaves);
  ASSERT_EQ(idx.path_count(), kLeaves);
  std::vector<EditOp> ops;
  for (size_t i = 1; i <= kLeaves; ++i) {
    QNodeId leaf = static_cast<QNodeId>(i);
    const Literal& lit = q.node(leaf).literals[0];
    EditOp rm;
    rm.kind = OpKind::kRmL;
    rm.u = leaf;
    rm.before = lit;
    ops.push_back(rm);
    EditOp rx = rm;
    rx.kind = OpKind::kRxL;
    rx.after = Literal{x, CompareOp::kGe, Value(int64_t{0})};
    if (!(rx.after == lit)) ops.push_back(rx);
    EditOp cut;
    cut.kind = OpKind::kRmE;
    cut.u = out;
    cut.v = leaf;
    cut.edge_label = *g.edge_labels().Find("r");
    ops.push_back(cut);
  }
  NodeSet protect(std::vector<NodeId>{hubs[0], hubs[5]}, g.node_count());
  ChainCoverage cov;
  for (size_t cap : {size_t{10}, hubs.size() + 3}) {
    for (int chain = 0; chain < 3; ++chain) {
      CheckRelaxationChain(g, q, idx, ops, protect, cap, rng, cov);
      if (testing::Test::HasFatalFailure()) return;
    }
  }
  EXPECT_GT(cov.unmasked, 0u);
  EXPECT_GT(cov.passers, 0u);
  EXPECT_GT(cov.live_cut, 0u);
}

}  // namespace
}  // namespace whyq
