// MatchContext coverage in three layers:
//   1. unit tests of the memo itself (lookup = the IsCandidate filter,
//      hit/miss/delta accounting, literal-order-insensitive keys,
//      Seed/Prime);
//   2. an equivalence property: over random graphs and random operator-set
//      rewrites, every matcher API answers byte-identically with and
//      without a context, under both semantics;
//   3. a counter-based perf regression on a fixed BSBM fixture: the
//      context path never does more work than the context-free path, all
//      pruned work is accounted for exactly, and both paths stay under
//      recorded absolute budgets so candidate-pruning regressions fail
//      loudly instead of just slowing the benchmarks down.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gen/bsbm.h"
#include "gen/figure1.h"
#include "gen/profiles.h"
#include "gen/query_gen.h"
#include "graph/neighborhood.h"
#include "matcher/candidates.h"
#include "matcher/match_context.h"
#include "matcher/match_engine.h"
#include "matcher/matcher.h"
#include "rewrite/operators.h"
#include "why/picky.h"
#include "why/question.h"

namespace whyq {
namespace {

// Materializes the arena-backed candidate list for vector comparisons.
std::vector<NodeId> ToVec(const MatchContext::CandidateSet& c) {
  return std::vector<NodeId>(c.begin(), c.end());
}

std::vector<NodeId> DirectFilter(const Graph& g, const QueryNode& qn) {
  std::vector<NodeId> out;
  for (NodeId v : g.NodesWithLabel(qn.label)) {
    if (IsCandidate(g, v, qn)) out.push_back(v);
  }
  return out;
}

TEST(MatchContextTest, LookupMatchesDirectFilter) {
  Figure1 f = MakeFigure1();
  MatchContext ctx(f.graph);
  for (QNodeId u = 0; u < f.query.node_count(); ++u) {
    const QueryNode& qn = f.query.node(u);
    const MatchContext::CandidateSet& c = ctx.Lookup(qn);
    std::vector<NodeId> expect = DirectFilter(f.graph, qn);
    EXPECT_EQ(ToVec(c), expect) << "query node " << u;
    // Bitmap agrees with the list on every data node.
    for (NodeId v = 0; v < f.graph.node_count(); ++v) {
      bool in_list = std::binary_search(expect.begin(), expect.end(), v);
      EXPECT_EQ(c.Test(v), in_list) << "node " << v;
    }
  }
  EXPECT_EQ(ctx.stats().hits, 0u);
  EXPECT_GT(ctx.stats().misses, 0u);
}

TEST(MatchContextTest, SecondLookupIsAHit) {
  Figure1 f = MakeFigure1();
  MatchContext ctx(f.graph);
  const QueryNode& qn = f.query.node(f.query.output());
  const MatchContext::CandidateSet& a = ctx.Lookup(qn);
  const MatchContext::CandidateSet& b = ctx.Lookup(qn);
  EXPECT_EQ(&a, &b);  // stable address
  EXPECT_EQ(ctx.stats().hits, 1u);
  EXPECT_EQ(ctx.stats().misses, 1u);
  EXPECT_EQ(ctx.entry_count(), 1u);
}

TEST(MatchContextTest, LiteralOrderDoesNotSplitEntries) {
  Figure1 f = MakeFigure1();
  QueryNode qn = f.query.node(f.query.output());
  SymbolId price = *f.graph.attr_names().Find("Price");
  Literal extra;
  extra.attr = price;
  extra.op = CompareOp::kGe;
  extra.constant = Value(int64_t{100});
  qn.literals.push_back(extra);
  QueryNode reversed = qn;
  std::reverse(reversed.literals.begin(), reversed.literals.end());
  ASSERT_GE(qn.literals.size(), 2u);

  MatchContext ctx(f.graph);
  const MatchContext::CandidateSet& a = ctx.Lookup(qn);
  const MatchContext::CandidateSet& b = ctx.Lookup(reversed);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(ctx.entry_count(), 1u);
  EXPECT_EQ(ctx.stats().hits, 1u);
}

TEST(MatchContextTest, SupersetLiteralsBuildByDelta) {
  Figure1 f = MakeFigure1();
  const QueryNode& base = f.query.node(f.query.output());
  ASSERT_FALSE(base.literals.empty());
  QueryNode refined = base;
  SymbolId price = *f.graph.attr_names().Find("Price");
  Literal tighter;
  tighter.attr = price;
  tighter.op = CompareOp::kGe;
  tighter.constant = Value(int64_t{550});
  refined.literals.push_back(tighter);

  MatchContext ctx(f.graph);
  ctx.Lookup(base);  // miss: bucket scan
  const MatchContext::CandidateSet& r = ctx.Lookup(refined);
  EXPECT_EQ(ctx.stats().misses, 1u);
  EXPECT_EQ(ctx.stats().delta_builds, 1u);
  // The delta filter must agree with the direct filter exactly.
  EXPECT_EQ(ToVec(r), DirectFilter(f.graph, refined));
}

TEST(MatchContextTest, SeedInstallsExternalResult) {
  Figure1 f = MakeFigure1();
  const QueryNode& qn = f.query.node(f.query.output());
  std::vector<NodeId> computed =
      Candidates(f.graph, f.query, f.query.output());

  MatchContext ctx(f.graph);
  ctx.Seed(qn, computed);
  EXPECT_EQ(ctx.stats().misses, 1u);  // the scan happened, just elsewhere
  const MatchContext::CandidateSet& c = ctx.Lookup(qn);
  EXPECT_EQ(ctx.stats().hits, 1u);  // served from the seeded entry
  EXPECT_EQ(ToVec(c), computed);
  // Re-seeding an existing constraint is a no-op.
  ctx.Seed(qn, {});
  EXPECT_EQ(ToVec(ctx.Lookup(qn)), computed);
}

TEST(MatchContextTest, PrimeMemoizesEveryQueryNode) {
  Figure1 f = MakeFigure1();
  MatchContext ctx(f.graph);
  ctx.Prime(f.query);
  size_t entries = ctx.entry_count();
  EXPECT_GT(entries, 0u);
  uint64_t misses = ctx.stats().misses;
  // Every node resolves as a hit now.
  for (QNodeId u = 0; u < f.query.node_count(); ++u) {
    ctx.Lookup(f.query.node(u));
  }
  EXPECT_EQ(ctx.entry_count(), entries);
  EXPECT_EQ(ctx.stats().misses + ctx.stats().delta_builds,
            misses + ctx.stats().delta_builds);
  EXPECT_EQ(ctx.stats().hits, static_cast<uint64_t>(f.query.node_count()));
}

TEST(MatchContextTest, PermutedLiteralsShareOneEntry) {
  Figure1 f = MakeFigure1();
  QueryNode qn = f.query.node(f.query.output());
  SymbolId price = *f.graph.attr_names().Find("Price");
  qn.literals.push_back(Literal{price, CompareOp::kGe, Value(int64_t{100})});
  qn.literals.push_back(Literal{price, CompareOp::kLe, Value(900.5)});
  qn.literals.push_back(Literal{price, CompareOp::kGe, Value(int64_t{100})});
  ASSERT_GE(qn.literals.size(), 4u);
  std::vector<size_t> perm(qn.literals.size());
  for (size_t i = 0; i < perm.size(); ++i) perm[i] = i;

  MatchContext ctx(f.graph);
  const MatchContext::CandidateSet* first = nullptr;
  uint64_t lookups = 0;
  do {
    QueryNode permuted;
    permuted.label = qn.label;
    for (size_t i : perm) permuted.literals.push_back(qn.literals[i]);
    const MatchContext::CandidateSet& c = ctx.Lookup(permuted);
    if (first == nullptr) first = &c;
    EXPECT_EQ(&c, first);
    ++lookups;
  } while (std::next_permutation(perm.begin(), perm.end()));
  EXPECT_EQ(ctx.entry_count(), 1u);
  EXPECT_EQ(ctx.stats().hits, lookups - 1);
  EXPECT_EQ(ToVec(*first), DirectFilter(f.graph, qn));
  // A different multiplicity of the same literal is a different key.
  QueryNode fewer = qn;
  fewer.literals.pop_back();
  ctx.Lookup(fewer);
  EXPECT_EQ(ctx.entry_count(), 2u);
}

// One node per row, label "T", string attributes `a` and `b`, and an
// optional attribute `x`; plus one node of another label.
struct TinyNode {
  std::string a;
  std::string b;
  std::optional<Value> x;
};

Graph TinyGraph(const std::vector<TinyNode>& rows) {
  GraphBuilder b;
  for (const TinyNode& r : rows) {
    NodeId v = b.AddNode("T");
    b.SetAttr(v, "a", Value(r.a));
    b.SetAttr(v, "b", Value(r.b));
    if (r.x.has_value()) b.SetAttr(v, "x", *r.x);
  }
  b.AddNode("Other");
  return b.Build();
}

TEST(MatchContextTest, SeparatorBytesInStringsStayDistinct) {
  // Constants built from separator bytes and length-prefix shapes: a key
  // that concatenated literal encodings could make distinct constraints
  // collide.
  const std::vector<std::string> strings = {
      "", "\x01", "\n", "3:", "1:\x01", "a\x01", "a", "\x01" "a", "a\n3:b",
      "3:a", "a\n", "\n3:"};
  std::vector<TinyNode> rows;
  for (const std::string& x : strings) {
    for (const std::string& y : strings) rows.push_back({x, y, std::nullopt});
  }
  Graph g = TinyGraph(rows);
  SymbolId label = *g.node_labels().Find("T");
  SymbolId a = *g.attr_names().Find("a");
  SymbolId b = *g.attr_names().Find("b");

  std::vector<QueryNode> constraints;
  for (const std::string& x : strings) {
    QueryNode one;
    one.label = label;
    one.literals.push_back(Literal{a, CompareOp::kEq, Value(x)});
    constraints.push_back(one);
    for (const std::string& y : {std::string("\n"), std::string("3:")}) {
      QueryNode two = one;
      two.literals.push_back(Literal{b, CompareOp::kEq, Value(y)});
      constraints.push_back(two);
    }
  }
  MatchContext ctx(g);
  for (int round = 0; round < 2; ++round) {
    for (const QueryNode& qn : constraints) {
      const MatchContext::CandidateSet& c = ctx.Lookup(qn);
      ASSERT_EQ(ToVec(c), DirectFilter(g, qn));
      EXPECT_EQ(c.size(), qn.literals.size() == 1 ? strings.size() : 1u);
    }
  }
  EXPECT_EQ(ctx.entry_count(), constraints.size());
  EXPECT_EQ(ctx.stats().hits, constraints.size());
}

TEST(MatchContextTest, SignedZeroAndIntDoubleLiteralsGiveCorrectSets) {
  std::vector<TinyNode> rows = {
      {"", "", Value(int64_t{5})}, {"", "", Value(5.0)},
      {"", "", Value(5.5)},        {"", "", Value(int64_t{0})},
      {"", "", Value(0.0)},        {"", "", Value(-0.0)},
      {"", "", Value(-1.0)},       {"", "", Value("5")},
      {"", "", std::nullopt},
  };
  Graph g = TinyGraph(rows);
  SymbolId label = *g.node_labels().Find("T");
  SymbolId x = *g.attr_names().Find("x");
  const std::vector<Value> constants = {
      Value(int64_t{5}), Value(5.0), Value(int64_t{0}), Value(0.0),
      Value(-0.0), Value(std::nan("")), Value("5")};
  const std::vector<CompareOp> ops = {CompareOp::kLt, CompareOp::kLe,
                                      CompareOp::kEq, CompareOp::kGe,
                                      CompareOp::kGt};
  std::vector<QueryNode> constraints;
  for (const Value& c : constants) {
    for (CompareOp op : ops) {
      QueryNode qn;
      qn.label = label;
      qn.literals.push_back(Literal{x, op, c});
      constraints.push_back(qn);
    }
  }
  // Two lookup orders, each in a fresh context: whichever of an equal pair
  // (0.0 / -0.0) is built first, both read the right set.
  for (bool reversed : {false, true}) {
    std::vector<QueryNode> order = constraints;
    if (reversed) std::reverse(order.begin(), order.end());
    MatchContext ctx(g);
    for (int round = 0; round < 2; ++round) {
      for (const QueryNode& qn : order) {
        EXPECT_EQ(ToVec(ctx.Lookup(qn)), DirectFilter(g, qn))
            << qn.literals[0].constant.ToString() << " "
            << CompareOpName(qn.literals[0].op);
      }
    }
    // int 5 and double 5.0 are distinct keys; 0.0 and -0.0 are one; a NaN
    // constant hits its own entry on the second round.
    EXPECT_EQ(ctx.entry_count(), (constants.size() - 1) * ops.size());
  }
}

// --- Equivalence property: context vs context-free, random rewrites. ----

// Applies every matcher API with and without a context and demands
// byte-identical results.
void ExpectEquivalent(const Graph& g, const Query& q,
                      const std::vector<NodeId>& probes,
                      MatchSemantics semantics, MatchContext* ctx) {
  std::unique_ptr<MatchEngine> plain = MakeMatchEngine(g, semantics);
  std::unique_ptr<MatchEngine> memo = MakeMatchEngine(g, semantics, ctx);

  EXPECT_EQ(plain->MatchOutput(q), memo->MatchOutput(q));
  EXPECT_EQ(plain->TestAnswers(q, probes), memo->TestAnswers(q, probes));
  NodeSet exclude(probes, g.node_count());
  EXPECT_EQ(plain->CountAnswersNotIn(q, exclude, 3),
            memo->CountAnswersNotIn(q, exclude, 3));
}

TEST(MatchContextEquivalenceTest, RandomRewritesBothSemantics) {
  for (uint64_t seed : {11u, 23u}) {
    Graph g = GenerateProfile(DatasetProfile::kDBpedia, 1200, seed);
    Rng rng(seed * 101 + 7);
    QueryGenConfig qc;
    qc.edges = 4;
    qc.literals_per_node = 2;
    qc.min_answers = 1;
    std::optional<GeneratedQuery> gen = GenerateQuery(g, qc, rng);
    ASSERT_TRUE(gen.has_value()) << "seed " << seed;
    const Query& q = gen->query;

    // Rewrite universe: refinement + relaxation picky operators for the
    // generated answers (first answers as unexpected/missing stand-ins).
    AnswerConfig cfg;
    std::vector<NodeId> entities(gen->answers.begin(),
                                 gen->answers.begin() +
                                     std::min<size_t>(2, gen->answers.size()));
    std::vector<EditOp> ops =
        GenPickyWhy(g, q, gen->answers, entities, cfg);
    std::vector<EditOp> relax = GenPickyWhyNot(g, q, entities, cfg);
    ops.insert(ops.end(), relax.begin(), relax.end());

    // Probe nodes: answers plus random nodes (mix of members/non-members).
    std::vector<NodeId> probes = gen->answers;
    for (int i = 0; i < 8; ++i) {
      probes.push_back(static_cast<NodeId>(rng.Index(g.node_count())));
    }

    for (MatchSemantics sem :
         {MatchSemantics::kIsomorphism, MatchSemantics::kSimulation}) {
      // One context reused across the whole rewrite sweep — the memo must
      // stay correct as constraints accumulate, exactly like inside one
      // Why/Why-not question.
      MatchContext ctx(g);
      ExpectEquivalent(g, q, probes, sem, &ctx);
      for (int trial = 0; trial < 12 && !ops.empty(); ++trial) {
        OperatorSet set;
        for (size_t idx : rng.SampleDistinct(ops.size(),
                                             1 + rng.Index(3))) {
          set.push_back(ops[idx]);
        }
        Query rw = ApplyOperators(q, set);
        ExpectEquivalent(g, rw, probes, sem, &ctx);
      }
    }
  }
}

// --- Counter-based perf regression on a fixed BSBM fixture. -------------

struct RunCounters {
  std::vector<NodeId> answers;
  std::vector<uint8_t> tested;
  MatcherStats stats;
};

RunCounters RunMatch(const Graph& g, const Query& q,
                     const std::vector<NodeId>& probes, MatchContext* ctx) {
  Matcher m(g);
  m.set_context(ctx);
  RunCounters r;
  r.answers = m.MatchOutput(q);
  r.tested = m.TestAnswers(q, probes);
  r.stats = m.stats();
  return r;
}

TEST(MatchContextRegressionTest, BsbmCountersBoundedAndAccounted) {
  BsbmConfig bc;
  bc.products = 400;  // ~2.3k nodes; fixed seed -> fixed fixture
  bc.seed = 9;
  Graph g = GenerateBsbm(bc);
  Rng rng(41);
  QueryGenConfig qc;
  qc.edges = 4;
  qc.literals_per_node = 2;
  qc.min_answers = 2;
  std::optional<GeneratedQuery> gen = GenerateQuery(g, qc, rng);
  ASSERT_TRUE(gen.has_value());
  const Query& q = gen->query;
  std::vector<NodeId> probes = gen->answers;
  for (int i = 0; i < 32; ++i) {
    probes.push_back(static_cast<NodeId>(rng.Index(g.node_count())));
  }

  RunCounters free = RunMatch(g, q, probes, nullptr);
  MatchContext ctx(g);
  RunCounters memo = RunMatch(g, q, probes, &ctx);

  ASSERT_EQ(free.answers, memo.answers);
  ASSERT_EQ(free.tested, memo.tested);

  // The context path never attempts more than the context-free path ...
  EXPECT_LE(memo.stats.embeddings_tried, free.stats.embeddings_tried);
  EXPECT_LE(memo.stats.iso_tests, free.stats.iso_tests);
  // ... and on this literal-rich fixture it strictly prunes.
  EXPECT_LT(memo.stats.embeddings_tried, free.stats.embeddings_tried);
  EXPECT_GT(memo.stats.ctx_pruned, 0u);

  // Exact accounting: every attempt the context skipped is either a root
  // candidate the bucket scan would have iso-tested or an extension the
  // free path would have tried (MatchOutput + TestAnswers only — the
  // early-exit APIs may overstate root prunes).
  EXPECT_EQ(free.stats.embeddings_tried + free.stats.iso_tests,
            memo.stats.embeddings_tried + memo.stats.iso_tests +
                memo.stats.ctx_pruned);

  // Absolute budgets for the fixed fixture (recorded: 13031/1042 attempts/
  // iso-tests context-free, 3808/481 with the context; ~15-20% slack). A
  // pruning regression — candidate memo gone stale, label slices scanning
  // too wide — trips these before it would ever show up in a benchmark.
  EXPECT_LE(free.stats.embeddings_tried, 15000u);
  EXPECT_LE(free.stats.iso_tests, 1250u);
  EXPECT_LE(memo.stats.embeddings_tried, 4500u);
  EXPECT_LE(memo.stats.iso_tests, 580u);

  // Deterministic: a second identical run over a fresh context reproduces
  // the counters bit-for-bit.
  MatchContext ctx2(g);
  RunCounters memo2 = RunMatch(g, q, probes, &ctx2);
  EXPECT_EQ(memo2.stats.embeddings_tried, memo.stats.embeddings_tried);
  EXPECT_EQ(memo2.stats.iso_tests, memo.stats.iso_tests);
  EXPECT_EQ(memo2.stats.ctx_pruned, memo.stats.ctx_pruned);
  EXPECT_EQ(memo2.stats.ctx_misses, memo.stats.ctx_misses);
}

}  // namespace
}  // namespace whyq
