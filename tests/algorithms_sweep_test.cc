// Parameterized cross-profile sweeps of the six algorithms: for every
// dataset profile and both match semantics, the returned rewrites must
// satisfy the structural contracts (operator families, budget, guard,
// exhaustiveness/time-limit reporting, closeness consistency).

#include <gtest/gtest.h>

#include <set>

#include "gen/profiles.h"
#include "harness/experiment.h"
#include "matcher/match_engine.h"
#include "why/why_algorithms.h"
#include "why/whynot_algorithms.h"

namespace whyq {
namespace {

struct SweepCase {
  DatasetProfile profile;
  MatchSemantics semantics;
};

std::string CaseName(const testing::TestParamInfo<SweepCase>& info) {
  return std::string(DatasetProfileName(info.param.profile)) + "_" +
         MatchSemanticsName(info.param.semantics);
}

class AlgoSweepTest : public testing::TestWithParam<SweepCase> {
 protected:
  // One shared workload per (profile, semantics); graphs are cached across
  // test instances to keep the sweep fast on one core.
  static const Graph& GraphFor(DatasetProfile p) {
    static std::map<int, Graph>* cache = new std::map<int, Graph>();
    auto it = cache->find(static_cast<int>(p));
    if (it == cache->end()) {
      it = cache
               ->emplace(static_cast<int>(p),
                         GenerateProfile(p, 2500, 31))
               .first;
    }
    return it->second;
  }
};

TEST_P(AlgoSweepTest, ContractsHold) {
  SweepCase param = GetParam();
  const Graph& g = GraphFor(param.profile);
  WorkloadConfig wc;
  wc.items = 2;
  wc.query.edges = 3;
  wc.query.min_answers = 4;
  wc.query.slack = 0.6;
  wc.seed = 77;
  Workload w = MakeWorkload(g, wc);
  if (w.items.empty()) GTEST_SKIP() << "no workload on this profile";

  AnswerConfig cfg;
  cfg.budget = 4.0;
  cfg.guard_m = 2;
  cfg.semantics = param.semantics;
  cfg.max_picky_ops = 96;
  cfg.exact_time_limit_ms = 1500;

  MatchContext ctx(g);
  std::unique_ptr<MatchEngine> engine = MakeMatchEngine(ctx, param.semantics);

  for (const Workload::Item& item : w.items) {
    // Under simulation semantics the answer set differs; recompute.
    std::vector<NodeId> answers = engine->MatchOutput(item.gq.query);
    if (answers.empty()) continue;
    WhyQuestion why{{answers[0]}};

    for (auto algo : {&ExactWhy, &ApproxWhy, &IsoWhy}) {
      RewriteAnswer a = algo(g, item.gq.query, answers, why, cfg);
      EXPECT_LE(a.cost, cfg.budget + 1e-9);
      for (const EditOp& op : a.ops) EXPECT_TRUE(IsRefinement(op.kind));
      if (a.found) {
        EXPECT_TRUE(a.eval.guard_ok);
        EXPECT_GT(a.eval.closeness, 0.0);
        // Reported closeness must agree with an independent evaluation.
        size_t excluded = 0;
        for (NodeId v : why.unexpected) {
          excluded += engine->IsAnswer(a.rewritten, v) ? 0 : 1;
        }
        EXPECT_DOUBLE_EQ(a.eval.closeness,
                         static_cast<double>(excluded) /
                             static_cast<double>(why.unexpected.size()));
      }
    }

    for (auto algo : {&ExactWhyNot, &FastWhyNot, &IsoWhyNot}) {
      RewriteAnswer a =
          algo(g, item.gq.query, answers, item.whynot, cfg);
      EXPECT_LE(a.cost, cfg.budget + 1e-9);
      for (const EditOp& op : a.ops) EXPECT_TRUE(IsRelaxation(op.kind));
      if (a.found) {
        EXPECT_TRUE(a.eval.guard_ok);
        // Relaxation preserves the current answers (Lemma 1).
        for (NodeId v : answers) {
          EXPECT_TRUE(engine->IsAnswer(a.rewritten, v));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Profiles, AlgoSweepTest,
    testing::Values(
        SweepCase{DatasetProfile::kDBpedia, MatchSemantics::kIsomorphism},
        SweepCase{DatasetProfile::kYago, MatchSemantics::kIsomorphism},
        SweepCase{DatasetProfile::kFreebase, MatchSemantics::kIsomorphism},
        SweepCase{DatasetProfile::kPokec, MatchSemantics::kIsomorphism},
        SweepCase{DatasetProfile::kIMDb, MatchSemantics::kIsomorphism},
        SweepCase{DatasetProfile::kDBpedia, MatchSemantics::kSimulation},
        SweepCase{DatasetProfile::kIMDb, MatchSemantics::kSimulation}),
    CaseName);

TEST(TimeLimitTest, TinyLimitReportsNonExhaustive) {
  const Graph& g = GenerateProfile(DatasetProfile::kPokec, 2500, 31);
  WorkloadConfig wc;
  wc.items = 2;
  wc.query.edges = 4;
  wc.query.min_answers = 6;
  wc.seed = 5;
  Workload w = MakeWorkload(g, wc);
  if (w.items.empty()) GTEST_SKIP();
  AnswerConfig cfg;
  cfg.budget = 4.0;
  cfg.guard_m = 2;
  cfg.exact_time_limit_ms = 0.001;  // essentially immediate
  bool saw_truncation = false;
  for (const Workload::Item& item : w.items) {
    RewriteAnswer a =
        ExactWhy(g, item.gq.query, item.gq.answers, item.why, cfg);
    saw_truncation |= !a.exhaustive;
    // Even truncated runs return structurally valid answers.
    EXPECT_LE(a.cost, cfg.budget + 1e-9);
  }
  EXPECT_TRUE(saw_truncation);
}

}  // namespace
}  // namespace whyq
