// Property-style suites over generated graphs, queries and operator sets,
// checking the paper's structural lemmas rather than single examples:
//   * Lemma 1  — relaxation grows answers, refinement shrinks them;
//   * guard monotonicity — the basis of the guard-aware exact enumeration;
//   * estimation soundness — failing the path test proves non-matching;
//   * exact-dominance — ExactWhy(Not) is at least as close as the greedy
//     algorithms whenever its enumeration is exhaustive.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "gen/profiles.h"
#include "gen/query_gen.h"
#include "gen/question_gen.h"
#include "matcher/matcher.h"
#include "matcher/path_index.h"
#include "rewrite/cost_model.h"
#include "rewrite/evaluation.h"
#include "why/picky.h"
#include "why/why_algorithms.h"
#include "why/whynot_algorithms.h"

namespace whyq {
namespace {

// A shared mid-sized graph keeps the sweep fast on one core.
const Graph& SharedGraph() {
  static const Graph* g =
      new Graph(GenerateProfile(DatasetProfile::kIMDb, 3000, 99));
  return *g;
}

struct Instance {
  GeneratedQuery gq;
  WhyQuestion why;
  WhyNotQuestion whynot;
  bool ok = false;
};

Instance MakeInstance(int seed) {
  const Graph& g = SharedGraph();
  for (uint64_t attempt = 0; attempt < 8; ++attempt) {
    Rng rng(static_cast<uint64_t>(seed) * 7919 + 3 + attempt * 104729);
    QueryGenConfig cfg;
    cfg.edges = 2 + seed % 3;
    cfg.literals_per_node = 1 + seed % 2;
    cfg.min_answers = 3;
    cfg.slack = 0.5;
    if (attempt >= 4) {
      // Loosen progressively rather than give up (keeps the sweep dense).
      cfg.literals_per_node = 1;
      cfg.min_answers = 2;
      cfg.edges = 2;
    }
    Instance inst;
    std::optional<GeneratedQuery> gq = GenerateQuery(g, cfg, rng);
    if (!gq.has_value()) continue;
    inst.gq = std::move(*gq);
    inst.why = GenerateWhyQuestion(inst.gq, 2, rng);
    std::optional<WhyNotQuestion> wn =
        GenerateWhyNotQuestion(g, inst.gq, 2, 0, rng);
    if (!wn.has_value() || inst.why.unexpected.empty()) continue;
    inst.whynot = std::move(*wn);
    inst.ok = true;
    return inst;
  }
  return Instance();
}

std::set<NodeId> AsSet(const std::vector<NodeId>& v) {
  return std::set<NodeId>(v.begin(), v.end());
}

class LemmaOneTest : public testing::TestWithParam<int> {};

TEST_P(LemmaOneTest, RelaxationGrowsAnswers) {
  Instance inst = MakeInstance(GetParam());
  if (!inst.ok) GTEST_SKIP();
  const Graph& g = SharedGraph();
  AnswerConfig cfg;
  std::vector<EditOp> picky =
      GenPickyWhyNot(g, inst.gq.query, inst.whynot.missing, cfg);
  if (picky.empty()) GTEST_SKIP();
  Matcher m(g);
  std::set<NodeId> before = AsSet(inst.gq.answers);
  // Apply a conflict-free prefix of relaxations.
  OperatorSet ops;
  for (const EditOp& op : picky) {
    bool clash = false;
    for (const EditOp& sel : ops) clash |= OpsConflict(sel, op);
    if (!clash) ops.push_back(op);
    if (ops.size() == 3) break;
  }
  std::set<NodeId> after =
      AsSet(m.MatchOutput(ApplyOperators(inst.gq.query, ops)));
  for (NodeId v : before) {
    EXPECT_TRUE(after.count(v)) << "relaxation lost answer " << v;
  }
}

TEST_P(LemmaOneTest, RefinementShrinksAnswers) {
  Instance inst = MakeInstance(GetParam());
  if (!inst.ok) GTEST_SKIP();
  const Graph& g = SharedGraph();
  AnswerConfig cfg;
  std::vector<EditOp> picky = GenPickyWhy(g, inst.gq.query, inst.gq.answers,
                                          inst.why.unexpected, cfg);
  if (picky.empty()) GTEST_SKIP();
  Matcher m(g);
  std::set<NodeId> before = AsSet(inst.gq.answers);
  size_t step = std::max<size_t>(1, picky.size() / 4);
  for (size_t i = 0; i < picky.size(); i += step) {
    std::set<NodeId> after =
        AsSet(m.MatchOutput(ApplyOperators(inst.gq.query, {picky[i]})));
    for (NodeId v : after) {
      EXPECT_TRUE(before.count(v)) << "refinement added answer " << v;
    }
  }
}

TEST_P(LemmaOneTest, GuardMonotoneUnderRefinement) {
  Instance inst = MakeInstance(GetParam());
  if (!inst.ok) GTEST_SKIP();
  const Graph& g = SharedGraph();
  AnswerConfig cfg;
  std::vector<EditOp> picky = GenPickyWhy(g, inst.gq.query, inst.gq.answers,
                                          inst.why.unexpected, cfg);
  if (picky.size() < 2) GTEST_SKIP();
  WhyEvaluator eval(g, inst.gq.answers, inst.why, /*guard_m=*/1000);
  OperatorSet chain;
  size_t prev_guard = 0;
  for (const EditOp& op : picky) {
    bool clash = false;
    for (const EditOp& sel : chain) clash |= OpsConflict(sel, op);
    if (clash) continue;
    chain.push_back(op);
    EvalResult r = eval.Evaluate(ApplyOperators(inst.gq.query, chain));
    EXPECT_GE(r.guard, prev_guard);
    prev_guard = r.guard;
    if (chain.size() == 4) break;
  }
}

TEST_P(LemmaOneTest, PathTestSoundForExclusion) {
  Instance inst = MakeInstance(GetParam());
  if (!inst.ok) GTEST_SKIP();
  const Graph& g = SharedGraph();
  AnswerConfig cfg;
  std::vector<EditOp> picky = GenPickyWhy(g, inst.gq.query, inst.gq.answers,
                                          inst.why.unexpected, cfg);
  if (picky.empty()) GTEST_SKIP();
  PathIndex pidx(inst.gq.query, 8);
  Matcher m(g);
  size_t step = std::max<size_t>(1, picky.size() / 5);
  for (size_t i = 0; i < picky.size(); i += step) {
    Query rw = ApplyOperators(inst.gq.query, {picky[i]});
    PathIndex::Probe probe(pidx, m.context(), rw);
    for (NodeId v : inst.gq.answers) {
      if (!probe.Passes(v)) {
        EXPECT_FALSE(m.IsAnswer(rw, v))
            << "path test rejected a real answer";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LemmaOneTest, testing::Range(0, 12));

class DominanceTest : public testing::TestWithParam<int> {};

TEST_P(DominanceTest, ExactWhyDominatesGreedy) {
  Instance inst = MakeInstance(GetParam());
  if (!inst.ok) GTEST_SKIP();
  const Graph& g = SharedGraph();
  AnswerConfig cfg;
  cfg.budget = 4.0;
  cfg.guard_m = 2;
  cfg.max_picky_ops = 64;  // keep the exact enumeration exhaustive
  cfg.max_mbs = 300000;
  RewriteAnswer exact = ExactWhy(g, inst.gq.query, inst.gq.answers,
                                 inst.why, cfg);
  if (!exact.exhaustive) GTEST_SKIP();
  for (RewriteAnswer other :
       {ApproxWhy(g, inst.gq.query, inst.gq.answers, inst.why, cfg),
        IsoWhy(g, inst.gq.query, inst.gq.answers, inst.why, cfg)}) {
    if (!other.eval.guard_ok) continue;
    EXPECT_GE(exact.eval.closeness, other.eval.closeness - 1e-9);
    EXPECT_LE(other.cost, cfg.budget + 1e-9);
  }
  EXPECT_LE(exact.cost, cfg.budget + 1e-9);
}

TEST_P(DominanceTest, ExactWhyNotDominatesGreedy) {
  Instance inst = MakeInstance(GetParam());
  if (!inst.ok) GTEST_SKIP();
  const Graph& g = SharedGraph();
  AnswerConfig cfg;
  cfg.budget = 4.0;
  cfg.guard_m = 2;
  cfg.max_picky_ops = 48;
  cfg.max_mbs = 300000;
  RewriteAnswer exact = ExactWhyNot(g, inst.gq.query, inst.gq.answers,
                                    inst.whynot, cfg);
  if (!exact.exhaustive) GTEST_SKIP();
  for (RewriteAnswer other :
       {FastWhyNot(g, inst.gq.query, inst.gq.answers, inst.whynot, cfg),
        IsoWhyNot(g, inst.gq.query, inst.gq.answers, inst.whynot, cfg)}) {
    if (!other.eval.guard_ok) continue;
    EXPECT_GE(exact.eval.closeness, other.eval.closeness - 1e-9);
  }
}

TEST_P(DominanceTest, CostsAreAdditiveAndBounded) {
  Instance inst = MakeInstance(GetParam());
  if (!inst.ok) GTEST_SKIP();
  const Graph& g = SharedGraph();
  AnswerConfig cfg;
  CostModel cm(inst.gq.query, g);
  std::vector<EditOp> picky = GenPickyWhy(g, inst.gq.query, inst.gq.answers,
                                          inst.why.unexpected, cfg);
  if (picky.size() < 2) GTEST_SKIP();
  OperatorSet two{picky[0], picky[1]};
  EXPECT_NEAR(cm.Cost(two), cm.Cost(picky[0]) + cm.Cost(picky[1]), 1e-9);
  for (const EditOp& op : picky) {
    EXPECT_GE(cm.Cost(op), cm.MinOperatorCost() - 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DominanceTest, testing::Range(0, 8));

}  // namespace
}  // namespace whyq
