// Oracle suites: the production matcher and the dual-simulation fixpoint
// are checked against brute-force reference implementations on randomly
// generated small instances — the strongest correctness evidence short of
// proofs, per seed-parameterized sweeps. The references test candidacy
// with IsCandidate alone; the production side runs over one MatchContext
// reused across each query and its literal rewrites, as inside one
// question. The exactness oracle checks the six answering algorithms end
// to end against every bounded operator subset of the same instances.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <set>

#include "common/dictionary.h"
#include "common/rng.h"
#include "matcher/candidates.h"
#include "matcher/match_context.h"
#include "matcher/match_engine.h"
#include "matcher/matcher.h"
#include "matcher/simulation.h"
#include "query/query_parser.h"
#include "rewrite/cost_model.h"
#include "rewrite/evaluation.h"
#include "rewrite/operators.h"
#include "why/extensions.h"
#include "why/picky.h"
#include "why/why_algorithms.h"
#include "why/whynot_algorithms.h"
#include "oracle_instances.h"

namespace whyq {
namespace {

using oracle::Instance;
using oracle::MakeInstance;
using oracle::MakeQuestions;
using oracle::OracleConfig;
using oracle::OracleQuestions;

// Brute-force reference: try every injective assignment of query nodes to
// data nodes and collect the output node's images.
std::set<NodeId> BruteForceAnswers(const Graph& g, const Query& q) {
  std::set<NodeId> out;
  size_t qn = q.node_count();
  std::vector<NodeId> assign(qn, kInvalidNode);
  std::vector<uint8_t> used(g.node_count(), 0);
  std::function<void(size_t)> rec = [&](size_t u) {
    if (u == qn) {
      out.insert(assign[q.output()]);
      return;
    }
    for (NodeId v = 0; v < g.node_count(); ++v) {
      if (used[v] || !IsCandidate(g, v, q.node(static_cast<QNodeId>(u)))) {
        continue;
      }
      assign[u] = v;
      used[v] = 1;
      bool ok = true;
      for (const QueryEdge& e : q.edges()) {
        if (e.src > u && e.dst > u) continue;
        if (e.src <= u && e.dst <= u) {
          if (!g.HasEdge(assign[e.src], assign[e.dst], e.label)) ok = false;
        }
        if (!ok) break;
      }
      if (ok) rec(u + 1);
      used[v] = 0;
      assign[u] = kInvalidNode;
    }
  };
  rec(0);
  return out;
}

// Brute-force reference for the maximum dual simulation: start from every
// IsCandidate node of the output component's query nodes and drop, until
// nothing changes, each node lacking a witness neighbor (full adjacency
// scan) for some incident query edge.
std::vector<std::vector<NodeId>> BruteForceSimulation(const Graph& g,
                                                      const Query& q) {
  std::vector<uint8_t> in_comp(q.node_count(), 0);
  in_comp[q.output()] = 1;
  for (size_t round = 0; round < q.node_count(); ++round) {
    for (const QueryEdge& e : q.edges()) {
      if (in_comp[e.src] || in_comp[e.dst]) {
        in_comp[e.src] = in_comp[e.dst] = 1;
      }
    }
  }
  std::vector<std::vector<uint8_t>> in(q.node_count(),
                                       std::vector<uint8_t>(g.node_count()));
  for (QNodeId u = 0; u < q.node_count(); ++u) {
    for (NodeId v = 0; v < g.node_count(); ++v) {
      in[u][v] = in_comp[u] && IsCandidate(g, v, q.node(u));
    }
  }
  auto witnessed = [&](const auto& adj, SymbolId label, QNodeId other) {
    for (const HalfEdge& he : adj) {
      if (he.label == label && in[other][he.other]) return true;
    }
    return false;
  };
  for (bool changed = true; changed;) {
    changed = false;
    for (const QueryEdge& e : q.edges()) {
      for (NodeId v = 0; v < g.node_count(); ++v) {
        if (in[e.src][v] && !witnessed(g.out_edges(v), e.label, e.dst)) {
          in[e.src][v] = 0;
          changed = true;
        }
        if (in[e.dst][v] && !witnessed(g.in_edges(v), e.label, e.src)) {
          in[e.dst][v] = 0;
          changed = true;
        }
      }
    }
  }
  std::vector<std::vector<NodeId>> out(q.node_count());
  for (QNodeId u = 0; u < q.node_count(); ++u) {
    for (NodeId v = 0; v < g.node_count(); ++v) {
      if (in[u][v]) out[u].push_back(v);
    }
  }
  return out;
}

// The instance attributes random literals are drawn over: x, and y where
// some node carries it.
std::vector<SymbolId> LiteralAttrs(const Graph& g) {
  std::vector<SymbolId> attrs;
  for (const char* name : {"x", "y"}) {
    if (std::optional<SymbolId> a = g.attr_names().Find(name)) {
      attrs.push_back(*a);
    }
  }
  return attrs;
}

// `q` with 1-2 random literal edits on its nodes: add a literal on x or y
// (a refinement), drop one (a relaxation), or move one's constant (either).
Query EditLiterals(const Graph& g, const Query& q, Rng& rng) {
  Query out = q;
  const std::vector<SymbolId> attrs = LiteralAttrs(g);
  size_t edits = 1 + rng.Index(2);
  for (size_t i = 0; i < edits; ++i) {
    QNodeId u = static_cast<QNodeId>(rng.Index(out.node_count()));
    const std::vector<Literal>& lits = out.node(u).literals;
    size_t kind = rng.Index(3);
    if (kind == 0 || lits.empty()) {
      out.AddLiteral(u, Literal{attrs[rng.Index(attrs.size())],
                                rng.Chance(0.5) ? CompareOp::kLe
                                                : CompareOp::kGe,
                                Value(rng.Uniform(0, 4))});
    } else if (kind == 1) {
      Literal gone = lits[rng.Index(lits.size())];
      out.RemoveLiteral(u, gone);
    } else {
      Literal before = lits[rng.Index(lits.size())];
      Literal after = before;
      after.constant = Value(rng.Uniform(0, 4));
      out.ReplaceLiteral(u, before, after);
    }
  }
  return out;
}

class MatcherOracleTest : public testing::TestWithParam<int> {};

// The query and six literal rewrites of it, matched over one shared
// context: every MatchOutput, TestAnswers, IsAnswer and DualSimulation
// result equals the brute-force reference.
TEST_P(MatcherOracleTest, AgreesWithBruteForce) {
  Instance inst = MakeInstance(static_cast<uint64_t>(GetParam()) * 131 + 1);
  const Graph& g = inst.g;
  Rng rng(static_cast<uint64_t>(GetParam()) * 977 + 3);
  std::vector<Query> sweep{inst.q};
  for (int i = 0; i < 6; ++i) sweep.push_back(EditLiterals(g, inst.q, rng));
  std::vector<NodeId> all(g.node_count());
  for (NodeId v = 0; v < g.node_count(); ++v) all[v] = v;

  MatchContext ctx(g);
  Matcher m(ctx);
  for (const Query& q : sweep) {
    std::set<NodeId> want = BruteForceAnswers(g, q);
    std::vector<NodeId> got = m.MatchOutput(q);
    EXPECT_EQ(std::set<NodeId>(got.begin(), got.end()), want)
        << q.ToString(g);
    std::vector<uint8_t> tested = m.TestAnswers(q, all);
    for (NodeId v = 0; v < g.node_count(); ++v) {
      EXPECT_EQ(tested[v] == 1, want.count(v) > 0) << "node " << v;
      EXPECT_EQ(m.IsAnswer(q, v), want.count(v) > 0) << "node " << v;
    }
    EXPECT_EQ(DualSimulation(ctx, q), BruteForceSimulation(g, q))
        << q.ToString(g);
  }
  // The sweep shares constraints, so the context served some of them.
  EXPECT_GT(ctx.stats().hits, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatcherOracleTest, testing::Range(0, 40));

// Dual-simulation oracle: the returned relation must (1) contain only
// candidates, (2) be closed under the forward/backward witness conditions,
// and (3) be maximal — no pruned candidate can be added back while keeping
// closure (checked by one round of re-insertion attempts).
class SimulationOracleTest : public testing::TestWithParam<int> {};

TEST_P(SimulationOracleTest, MaximalClosedRelation) {
  Instance inst = MakeInstance(static_cast<uint64_t>(GetParam()) * 733 + 5);
  const Graph& g = inst.g;
  const Query& q = inst.q;
  MatchContext ctx(g);
  std::vector<std::vector<NodeId>> sim = DualSimulation(ctx, q);
  auto member = [&](QNodeId u, NodeId v) {
    return std::binary_search(sim[u].begin(), sim[u].end(), v);
  };
  auto closed_at = [&](QNodeId u, NodeId v) {
    if (!IsCandidate(g, v, q.node(u))) return false;
    for (const QueryEdge& e : q.edges()) {
      if (e.src == u) {
        bool witness = false;
        for (const HalfEdge& he : g.out_edges(v)) {
          witness |= he.label == e.label && member(e.dst, he.other);
        }
        if (!witness) return false;
      }
      if (e.dst == u) {
        bool witness = false;
        for (const HalfEdge& he : g.in_edges(v)) {
          witness |= he.label == e.label && member(e.src, he.other);
        }
        if (!witness) return false;
      }
    }
    return true;
  };
  for (QNodeId u = 0; u < q.node_count(); ++u) {
    // (1) + (2): every member is a closed candidate.
    for (NodeId v : sim[u]) EXPECT_TRUE(closed_at(u, v));
    // (3): no non-member candidate is closed w.r.t. the final relation.
    for (NodeId v = 0; v < g.node_count(); ++v) {
      if (member(u, v)) continue;
      EXPECT_FALSE(closed_at(u, v))
          << "u" << u << " could re-admit node " << v;
    }
  }
  // Simulation answers contain the isomorphism answers.
  Matcher m(g);
  for (NodeId v : m.MatchOutput(q)) {
    EXPECT_TRUE(member(q.output(), v));
  }
}

// `base` refined by 1-3 random edits: a literal added on x or y (AddL), an
// x/y bound tightened by one (RfL), or an edge added between two nodes
// (AddE; it joins a node outside the output component when it picks one)
// or from a node to a new one (AddE with a fresh node, sometimes carrying
// a literal).
Query RefineRandomly(const Graph& g, const Query& base, Rng& rng) {
  Query out = base;
  const std::vector<SymbolId> attrs = LiteralAttrs(g);
  auto random_literal = [&] {
    return Literal{attrs[rng.Index(attrs.size())],
                   rng.Chance(0.5) ? CompareOp::kLe : CompareOp::kGe,
                   Value(rng.Uniform(0, 4))};
  };
  auto edge_label = [&] {
    return static_cast<SymbolId>(rng.Index(g.edge_labels().size()));
  };
  size_t edits = 1 + rng.Index(3);
  for (size_t i = 0; i < edits; ++i) {
    QNodeId u = static_cast<QNodeId>(rng.Index(out.node_count()));
    const std::vector<Literal>& lits = out.node(u).literals;
    switch (rng.Index(4)) {
      case 0:
        out.AddLiteral(u, random_literal());
        break;
      case 1:
        if (!lits.empty()) {
          Literal before = lits[rng.Index(lits.size())];
          Literal after = before;
          int64_t c = before.constant.as_int();
          after.constant = Value(before.op == CompareOp::kLe ? c - 1 : c + 1);
          out.ReplaceLiteral(u, before, after);
        }
        break;
      case 2: {
        QNodeId v = static_cast<QNodeId>(rng.Index(out.node_count()));
        if (rng.Chance(0.5)) std::swap(u, v);
        out.AddEdge(u, v, edge_label());
        break;
      }
      default: {
        QNodeId w = out.AddNode(
            static_cast<SymbolId>(rng.Index(g.node_labels().size())));
        if (rng.Chance(0.5)) out.AddLiteral(w, random_literal());
        if (rng.Chance(0.5)) {
          out.AddEdge(u, w, edge_label());
        } else {
          out.AddEdge(w, u, edge_label());
        }
      }
    }
  }
  return out;
}

// Counted-delta oracle: random refinements of each instance's query, given
// an edge outside its output component, are answered as deltas of one
// RefinementSimulation of it, and by a simulation engine that assumed it;
// both must equal the brute-force relation node by node. A relaxation is
// not a refinement, so the delta declines it.
TEST_P(SimulationOracleTest, CountedDeltaAgreesWithBruteForce) {
  Instance inst = MakeInstance(static_cast<uint64_t>(GetParam()) * 389 + 11);
  const Graph& g = inst.g;
  Rng rng(static_cast<uint64_t>(GetParam()) * 619 + 7);
  Query base = inst.q;
  QNodeId w1 = base.AddNode(
      static_cast<SymbolId>(rng.Index(g.node_labels().size())));
  QNodeId w2 = base.AddNode(
      static_cast<SymbolId>(rng.Index(g.node_labels().size())));
  base.AddEdge(w1, w2, 0);

  MatchContext ctx(g);
  RefinementSimulation delta(ctx, base);
  std::unique_ptr<MatchEngine> engine =
      MakeMatchEngine(ctx, MatchSemantics::kSimulation);
  engine->AssumeRefinementsOf(base);
  for (int trial = 0; trial < 12; ++trial) {
    Query rw = RefineRandomly(g, base, rng);
    std::vector<std::vector<NodeId>> want = BruteForceSimulation(g, rw);
    std::optional<std::vector<std::vector<NodeId>>> got = delta.Relation(rw);
    ASSERT_TRUE(got.has_value()) << rw.ToString(g);
    EXPECT_EQ(*got, want) << "trial " << trial << "\n" << rw.ToString(g);
    EXPECT_EQ(engine->MatchOutput(rw), want[rw.output()]) << rw.ToString(g);
  }
  EXPECT_EQ(delta.Relation(base), BruteForceSimulation(g, base));
  if (base.edge_count() > 1) {
    Query relaxed = base;
    relaxed.RemoveEdge(base.edges()[0].src, base.edges()[0].dst,
                       base.edges()[0].label);
    EXPECT_FALSE(delta.Relation(relaxed).has_value());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulationOracleTest, testing::Range(0, 40));

// End-to-end exactness oracle. For a Why and a Why-not question on each
// tiny instance, every conflict-free, budget-bounded subset of the usable
// picky set is evaluated by an evaluator of its own. Refinement shrinks and
// relaxation grows the answer under both semantics (LemmaOneTest), so the
// guard-admissible sets are closed under subsets and an exhaustive exact
// run must reach the best closeness of any guard-ok subset. Every
// algorithm, exact or greedy, must return a conflict-free set within
// budget whose reported evaluation is that of its rewrite, and no single
// operator of an exact answer can be dropped without lowering its
// closeness or breaking the guard.

constexpr double kOracleEps = 1e-9;

template <typename Question>
using Algorithm = RewriteAnswer (*)(const Graph&, const Query&,
                                    const std::vector<NodeId>&,
                                    const Question&, const AnswerConfig&);

// Checks `algorithms` (the exact one first) on one question at threads 1
// and 4 against the brute force over `picky`. Returns how many exhaustive
// exact runs were compared with the brute-force optimum.
template <typename Evaluator, typename Question>
size_t CheckAgainstBruteForce(const Graph& g, const Query& q,
                              const std::vector<NodeId>& answers,
                              const Question& w, const AnswerConfig& base,
                              const std::vector<EditOp>& picky,
                              std::vector<Algorithm<Question>> algorithms) {
  CostModel cost(q, g, base.weighted_cost);
  std::vector<EditOp> usable;
  for (const EditOp& op : picky) {
    if (cost.Cost(op) <= base.budget + kOracleEps) usable.push_back(op);
  }
  std::vector<std::vector<size_t>> conflicts = BuildConflicts(usable);
  double best = -1.0;
  for (uint32_t mask = 0; mask < (uint32_t{1} << usable.size()); ++mask) {
    OperatorSet ops;
    bool conflict_free = true;
    for (size_t i = 0; i < usable.size(); ++i) {
      if (!((mask >> i) & 1)) continue;
      for (size_t j : conflicts[i]) conflict_free &= !((mask >> j) & 1);
      ops.push_back(usable[i]);
    }
    if (!conflict_free || cost.Cost(ops) > base.budget + kOracleEps) continue;
    Evaluator fresh(g, answers, w, base.guard_m, base.semantics);
    EvalResult r = fresh.Evaluate(ApplyOperators(q, ops));
    if (r.guard_ok) best = std::max(best, r.closeness);
  }

  size_t compared = 0;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    AnswerConfig cfg = base;
    cfg.threads = threads;
    for (size_t k = 0; k < algorithms.size(); ++k) {
      RewriteAnswer a = algorithms[k](g, q, answers, w, cfg);
      std::string what = "algorithm " + std::to_string(k) + " threads " +
                         std::to_string(threads) + " ops { " +
                         DescribeOperators(a.ops, g) + " }";
      for (size_t i = 0; i < a.ops.size(); ++i) {
        for (size_t j = i + 1; j < a.ops.size(); ++j) {
          EXPECT_FALSE(OpsConflict(a.ops[i], a.ops[j])) << what;
        }
      }
      EXPECT_LE(cost.Cost(a.ops), cfg.budget + kOracleEps) << what;
      EXPECT_EQ(WriteQuery(a.rewritten, g),
                WriteQuery(ApplyOperators(q, a.ops), g))
          << what;
      Evaluator fresh(g, answers, w, cfg.guard_m, cfg.semantics);
      EvalResult r = fresh.Evaluate(a.rewritten);
      EXPECT_EQ(a.eval.closeness, r.closeness) << what;
      EXPECT_EQ(a.eval.guard, r.guard) << what;
      EXPECT_EQ(a.eval.guard_ok, r.guard_ok) << what;
      if (a.found) {
        EXPECT_TRUE(a.eval.guard_ok) << what;
      }
      if (k == 0) {
        // The cost half: MinimizeCost leaves a 1-minimal set, so dropping
        // any single operator lowers the closeness or breaks the guard.
        for (size_t drop = 0; a.ops.size() >= 2 && drop < a.ops.size();
             ++drop) {
          OperatorSet trial = a.ops;
          trial.erase(trial.begin() + static_cast<long>(drop));
          EvalResult t = fresh.Evaluate(ApplyOperators(q, trial));
          EXPECT_TRUE(!t.guard_ok ||
                      t.closeness < a.eval.closeness - kOracleEps)
              << what << ": operator " << drop << " can be dropped";
        }
        EXPECT_EQ(a.picky_count, usable.size()) << what;
        if (a.exhaustive) {
          EXPECT_NEAR(a.eval.closeness, std::max(best, 0.0), kOracleEps)
              << what;
          ++compared;
        }
      }
    }
  }
  return compared;
}

class ExactnessOracleTest : public testing::TestWithParam<int> {};

TEST_P(ExactnessOracleTest, ExactReachesBruteForceOptimum) {
  Instance inst = MakeInstance(static_cast<uint64_t>(GetParam()) * 389 + 11);
  const Graph& g = inst.g;
  const Query& q = inst.q;
  Rng rng(static_cast<uint64_t>(GetParam()) * 613 + 7);
  size_t compared = 0;
  for (MatchSemantics semantics :
       {MatchSemantics::kIsomorphism, MatchSemantics::kSimulation}) {
    SCOPED_TRACE(semantics == MatchSemantics::kSimulation ? "simulation"
                                                          : "isomorphism");
    AnswerConfig cfg = OracleConfig(GetParam(), semantics);
    OracleQuestions qs = MakeQuestions(inst, semantics, rng);
    if (!qs.answers.empty()) {
      WhyEvaluator eval(g, qs.answers, qs.why, cfg.guard_m, semantics);
      compared += CheckAgainstBruteForce<WhyEvaluator>(
          g, q, qs.answers, qs.why, cfg,
          GenPickyWhy(g, q, qs.answers, eval.targets(), cfg),
          {&ExactWhy, &ApproxWhy, &IsoWhy});
    }
    if (!qs.whynot.missing.empty()) {
      WhyNotEvaluator eval(g, qs.answers, qs.whynot, cfg.guard_m, semantics);
      compared += CheckAgainstBruteForce<WhyNotEvaluator>(
          g, q, qs.answers, qs.whynot, cfg,
          GenPickyWhyNot(g, q, eval.targets(), cfg),
          {&ExactWhyNot, &FastWhyNot, &IsoWhyNot});
    }
  }
  RecordProperty("exhaustive_runs_compared", static_cast<int>(compared));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactnessOracleTest, testing::Range(0, 40));

// Nth-poll cancellation sweep. The token expires at its nth Expired() poll,
// for every n up to the polls of an uncancelled run, as if a deadline fired
// at exactly that poll site. Every answer cut short must still be a
// conflict-free set within budget whose reported evaluation is a fresh,
// uncancelled evaluation of its rewrite: a search cut short may answer
// less, never wrongly. Returns the number of truncated runs.
template <typename Evaluator, typename Question>
size_t SweepCancellation(const Graph& g, const Query& q,
                         const std::vector<NodeId>& answers,
                         const Question& w, const AnswerConfig& base,
                         Algorithm<Question> algorithm, const char* name) {
  CostModel cost(q, g, base.weighted_cost);
  Evaluator fresh(g, answers, w, base.guard_m, base.semantics);
  size_t truncated = 0;
  for (uint64_t n = 1;; ++n) {
    CancelToken token;
    token.ExpireAtPoll(n);
    AnswerConfig cfg = base;
    cfg.threads = 1;
    cfg.cancel = &token;
    RewriteAnswer a = algorithm(g, q, answers, w, cfg);
    if (!token.Cancelled()) break;  // the run polled fewer than n times
    ++truncated;
    std::string what = std::string(name) + " cut at poll " +
                       std::to_string(n) + ": ops { " +
                       DescribeOperators(a.ops, g) + " }";
    for (size_t i = 0; i < a.ops.size(); ++i) {
      for (size_t j = i + 1; j < a.ops.size(); ++j) {
        EXPECT_FALSE(OpsConflict(a.ops[i], a.ops[j])) << what;
      }
    }
    EXPECT_LE(cost.Cost(a.ops), cfg.budget + kOracleEps) << what;
    EXPECT_EQ(WriteQuery(a.rewritten, g),
              WriteQuery(ApplyOperators(q, a.ops), g))
        << what;
    EvalResult r = fresh.Evaluate(a.rewritten);
    EXPECT_EQ(a.eval.closeness, r.closeness) << what;
    EXPECT_EQ(a.eval.guard, r.guard) << what;
    EXPECT_EQ(a.eval.guard_ok, r.guard_ok) << what;
    if (a.found) {
      EXPECT_TRUE(a.eval.guard_ok) << what;
    }
    if (testing::Test::HasFailure()) break;  // report the first bad cut
  }
  return truncated;
}

class CancellationSweepTest : public testing::TestWithParam<int> {};

TEST_P(CancellationSweepTest, TruncatedAnswersStayValid) {
  Instance inst = MakeInstance(static_cast<uint64_t>(GetParam()) * 389 + 11);
  const Graph& g = inst.g;
  const Query& q = inst.q;
  Rng rng(static_cast<uint64_t>(GetParam()) * 613 + 7);
  size_t truncated = 0;
  for (MatchSemantics semantics :
       {MatchSemantics::kIsomorphism, MatchSemantics::kSimulation}) {
    SCOPED_TRACE(semantics == MatchSemantics::kSimulation ? "simulation"
                                                          : "isomorphism");
    AnswerConfig cfg = OracleConfig(GetParam(), semantics);
    OracleQuestions qs = MakeQuestions(inst, semantics, rng);
    if (!qs.answers.empty()) {
      for (auto [algorithm, name] :
           {std::pair{&ExactWhy, "ExactWhy"}, {&ApproxWhy, "ApproxWhy"},
            {&IsoWhy, "IsoWhy"}}) {
        truncated += SweepCancellation<WhyEvaluator>(
            g, q, qs.answers, qs.why, cfg, algorithm, name);
      }
    }
    if (!qs.whynot.missing.empty()) {
      for (auto [algorithm, name] : {std::pair{&ExactWhyNot, "ExactWhyNot"},
                                     {&FastWhyNot, "FastWhyNot"},
                                     {&IsoWhyNot, "IsoWhyNot"}}) {
        truncated += SweepCancellation<WhyNotEvaluator>(
            g, q, qs.answers, qs.whynot, cfg, algorithm, name);
      }
    }
  }
  EXPECT_GT(truncated, 0u);
  RecordProperty("truncated_runs", static_cast<int>(truncated));
}

// Q(u_o, G) under `semantics`, ascending.
std::vector<NodeId> AnswersUnder(const Graph& g, const Query& q,
                                 MatchSemantics semantics) {
  MatchContext ctx(g);
  std::vector<NodeId> out = MakeMatchEngine(ctx, semantics)->MatchOutput(q);
  std::sort(out.begin(), out.end());
  return out;
}

// The extensions under the same nth-poll sweep. A Why-so-many cut short
// reports the fresh, uncancelled count of the rewrite it returns, and
// found only when that count is at most k; a Why-empty cut short reports a
// repair only when the repair matches, with true answers as its samples.
// Returns the number of truncated runs.
size_t SweepExtensions(const Graph& g, const Query& q,
                       const std::vector<NodeId>& answers,
                       const AnswerConfig& base) {
  MatchContext ctx(g);
  std::unique_ptr<MatchEngine> fresh = MakeMatchEngine(ctx, base.semantics);
  CostModel cost(q, g, base.weighted_cost);
  size_t truncated = 0;
  auto sweep = [&](const std::function<void(const AnswerConfig&,
                                            const std::string&)>& run) {
    for (uint64_t n = 1; !testing::Test::HasFailure(); ++n) {
      CancelToken token;
      token.ExpireAtPoll(n);
      AnswerConfig cfg = base;
      cfg.cancel = &token;
      run(cfg, "cut at poll " + std::to_string(n));
      if (!token.Cancelled()) break;  // the run polled fewer than n times
      ++truncated;
    }
  };
  for (size_t k = 0; k < 3 && k < answers.size(); ++k) {
    sweep([&](const AnswerConfig& cfg, const std::string& cut) {
      WhySoManyResult r = AnswerWhySoMany(g, q, answers, k, cfg);
      std::string what = "Why-so-many k=" + std::to_string(k) + " " + cut +
                         ": ops { " + DescribeOperators(r.ops, g) + " }";
      EXPECT_EQ(WriteQuery(r.rewritten, g),
                WriteQuery(ApplyOperators(q, r.ops), g))
          << what;
      EXPECT_LE(cost.Cost(r.ops), cfg.budget + kOracleEps) << what;
      EXPECT_EQ(r.after, fresh->MatchOutput(r.rewritten).size()) << what;
      EXPECT_EQ(r.found, r.after <= k) << what;
    });
  }
  if (answers.empty()) {
    sweep([&](const AnswerConfig& cfg, const std::string& cut) {
      WhyEmptyResult r = AnswerWhyEmpty(g, q, cfg);
      std::string what = "Why-empty " + cut + ": ops { " +
                         DescribeOperators(r.ops, g) + " }";
      if (!r.found) return;
      EXPECT_LE(cost.Cost(r.ops), cfg.budget + kOracleEps) << what;
      std::vector<NodeId> all = AnswersUnder(g, r.rewritten, cfg.semantics);
      EXPECT_FALSE(all.empty()) << what;
      for (NodeId v : r.sample_answers) {
        EXPECT_TRUE(std::binary_search(all.begin(), all.end(), v))
            << what << ": sample " << v;
      }
    });
  }
  return truncated;
}

TEST_P(CancellationSweepTest, TruncatedExtensionsStayValid) {
  Instance inst = MakeInstance(static_cast<uint64_t>(GetParam()) * 389 + 11);
  size_t truncated = 0;
  for (MatchSemantics semantics :
       {MatchSemantics::kIsomorphism, MatchSemantics::kSimulation}) {
    SCOPED_TRACE(semantics == MatchSemantics::kSimulation ? "simulation"
                                                          : "isomorphism");
    AnswerConfig cfg = OracleConfig(GetParam(), semantics);
    std::vector<NodeId> answers = AnswersUnder(inst.g, inst.q, semantics);
    truncated += SweepExtensions(inst.g, inst.q, answers, cfg);
  }
  RecordProperty("truncated_runs", static_cast<int>(truncated));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CancellationSweepTest, testing::Range(0, 40));

}  // namespace
}  // namespace whyq
