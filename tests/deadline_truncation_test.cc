// Deadline/cancellation truncation contracts for the answering
// algorithms: an expired CancelToken must make every algorithm return its
// best-so-far rewrite promptly with `exhaustive` cleared, a live token
// must not change the answer at all, and the cost-minimizing
// post-processing (MinimizeCost, shared by ExactWhy and ExactWhyNot, which
// polls the token per dropped-operator trial) must keep producing minimal
// rewrites when it does run. The companion static guarantee — every hot
// loop in src/why/ and src/matcher/ polls the token — is enforced by
// whyq-lint (rule "cancel-poll", see tools/lint/lint.h).

#include <gtest/gtest.h>

#include "gen/figure1.h"
#include "matcher/matcher.h"
#include "why/why_algorithms.h"
#include "why/whynot_algorithms.h"

namespace whyq {
namespace {

class DeadlineTruncationTest : public testing::Test {
 protected:
  DeadlineTruncationTest() : f_(MakeFigure1()) {
    answers_ = {f_.a5, f_.s5, f_.s6};
    cfg_.budget = 4.0;
    cfg_.guard_m = 0;
  }

  // A token whose deadline is already in the past: every poll reports
  // expiry, so the algorithms truncate at their first opportunity.
  static void Expire(CancelToken& t) {
    t.SetDeadline(CancelToken::Clock::now());
  }

  Figure1 f_;
  std::vector<NodeId> answers_;
  AnswerConfig cfg_;
};

TEST_F(DeadlineTruncationTest, FastWhyNotTruncatesOnExpiredDeadline) {
  WhyNotQuestion w;
  w.missing = {f_.s8, f_.s9};
  AnswerConfig cfg = cfg_;
  cfg.guard_m = 2;
  CancelToken token;
  Expire(token);
  cfg.cancel = &token;
  RewriteAnswer a = FastWhyNot(f_.graph, f_.query, answers_, w, cfg);
  EXPECT_FALSE(a.exhaustive);
  EXPECT_LE(a.cost, cfg.budget + 1e-9);
  for (const EditOp& op : a.ops) EXPECT_TRUE(IsRelaxation(op.kind));
}

TEST_F(DeadlineTruncationTest, IsoWhyNotTruncatesOnExpiredDeadline) {
  WhyNotQuestion w;
  w.missing = {f_.s8, f_.s9};
  AnswerConfig cfg = cfg_;
  cfg.guard_m = 2;
  CancelToken token;
  Expire(token);
  cfg.cancel = &token;
  RewriteAnswer a = IsoWhyNot(f_.graph, f_.query, answers_, w, cfg);
  EXPECT_FALSE(a.exhaustive);
  EXPECT_LE(a.cost, cfg.budget + 1e-9);
  for (const EditOp& op : a.ops) EXPECT_TRUE(IsRelaxation(op.kind));
}

TEST_F(DeadlineTruncationTest, ExactAlgorithmsTruncateOnExpiredDeadline) {
  WhyQuestion why{{f_.a5, f_.s5}};
  AnswerConfig cfg = cfg_;
  cfg.minimize_cost = true;  // gated out once the token expired
  CancelToken token;
  Expire(token);
  cfg.cancel = &token;
  RewriteAnswer a = ExactWhy(f_.graph, f_.query, answers_, why, cfg);
  EXPECT_FALSE(a.exhaustive);

  WhyNotQuestion w;
  w.missing = {f_.s8, f_.s9};
  AnswerConfig ncfg = cfg_;
  ncfg.guard_m = 2;
  ncfg.cancel = &token;
  RewriteAnswer n = ExactWhyNot(f_.graph, f_.query, answers_, w, ncfg);
  EXPECT_FALSE(n.exhaustive);
}

TEST_F(DeadlineTruncationTest, LiveTokenDoesNotChangeTheAnswer) {
  // A deadline-free token polls false forever: byte-identical behavior to
  // running without one, for both greedy and exact schemes.
  WhyNotQuestion w;
  w.missing = {f_.s8, f_.s9};
  AnswerConfig cfg = cfg_;
  cfg.guard_m = 2;
  RewriteAnswer plain = FastWhyNot(f_.graph, f_.query, answers_, w, cfg);
  CancelToken live;
  cfg.cancel = &live;
  RewriteAnswer tokened = FastWhyNot(f_.graph, f_.query, answers_, w, cfg);
  EXPECT_EQ(plain.found, tokened.found);
  EXPECT_EQ(plain.ops.size(), tokened.ops.size());
  EXPECT_DOUBLE_EQ(plain.eval.closeness, tokened.eval.closeness);
  EXPECT_TRUE(tokened.exhaustive);

  WhyQuestion why{{f_.a5, f_.s5}};
  AnswerConfig ecfg = cfg_;
  ecfg.minimize_cost = true;
  RewriteAnswer eplain = ExactWhy(f_.graph, f_.query, answers_, why, ecfg);
  ecfg.cancel = &live;
  RewriteAnswer etok = ExactWhy(f_.graph, f_.query, answers_, why, ecfg);
  EXPECT_EQ(eplain.found, etok.found);
  EXPECT_EQ(eplain.ops.size(), etok.ops.size());
  EXPECT_DOUBLE_EQ(eplain.eval.closeness, etok.eval.closeness);
  EXPECT_DOUBLE_EQ(eplain.cost, etok.cost);
}

TEST_F(DeadlineTruncationTest, MinimizeCostStillProducesMinimalRewrites) {
  // Functional regression for the MinimizeCost cancellation fix: with a
  // live token the post-processing must still run to completion and the
  // winning operator set must be minimal — dropping any single operator
  // either lowers the exact closeness or breaks the guard.
  WhyQuestion why{{f_.a5, f_.s5}};
  AnswerConfig cfg = cfg_;
  cfg.minimize_cost = true;
  CancelToken live;
  cfg.cancel = &live;
  RewriteAnswer a = ExactWhy(f_.graph, f_.query, answers_, why, cfg);
  ASSERT_TRUE(a.found);
  ASSERT_TRUE(a.eval.guard_ok);
  Matcher m(f_.graph);
  for (size_t drop = 0; drop < a.ops.size(); ++drop) {
    OperatorSet trial = a.ops;
    trial.erase(trial.begin() + static_cast<long>(drop));
    Query rewritten = ApplyOperators(f_.query, trial);
    size_t excluded = 0;
    size_t guard = 0;
    for (NodeId v : answers_) {
      if (m.IsAnswer(rewritten, v)) continue;
      bool unexpected = v == f_.a5 || v == f_.s5;
      if (unexpected) {
        ++excluded;
      } else {
        ++guard;
      }
    }
    double trial_cl =
        static_cast<double>(excluded) / static_cast<double>(2);
    EXPECT_TRUE(trial_cl < a.eval.closeness - 1e-9 || guard > cfg.guard_m)
        << "operator " << drop << " is redundant: the minimizer should "
        << "have dropped it";
  }
}

}  // namespace
}  // namespace whyq
