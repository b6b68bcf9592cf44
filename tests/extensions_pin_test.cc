// Answer pin for the Section V extensions: AnswerWhyEmpty and
// AnswerWhySoMany over a fixed generated BSBM query pool, under both match
// semantics, hashed into one digest.
//
// The digest covers what each extension returns: found, the operators it
// picks, their cost, the answer counts before and after (Why-so-many) and
// the sample answers (Why-empty). A change that only restructures the
// searches must leave it alone. When a change moves these answers on
// purpose, re-record kExtensionsDigest from the failure message and say
// why in the change's notes.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <optional>
#include <vector>

#include "common/image.h"
#include "gen/bsbm.h"
#include "gen/query_gen.h"
#include "matcher/simulation.h"
#include "rewrite/operators.h"
#include "why/extensions.h"

namespace whyq {
namespace {

constexpr uint64_t kExtensionsDigest = 0x1ea386711d63ed9bull;

const Graph& PoolGraph() {
  static const Graph* g = new Graph(GenerateBsbm(BsbmConfig{200, 11}));
  return *g;
}

std::vector<GeneratedQuery> QueryPool(const Graph& g) {
  std::vector<GeneratedQuery> pool;
  for (uint64_t seed = 1; pool.size() < 8 && seed <= 64; ++seed) {
    Rng rng(seed * 7919 + 5);
    QueryGenConfig qc;
    qc.edges = 1 + seed % 3;
    qc.literals_per_node = 1 + seed % 2;
    qc.min_answers = 4;
    qc.max_answers = 150;
    qc.slack = 0.5;
    std::optional<GeneratedQuery> gq = GenerateQuery(g, qc, rng);
    if (gq.has_value()) pool.push_back(std::move(*gq));
  }
  return pool;
}

// Q with the complement of its first literal added beside it (x <= c gains
// x > c, x = c gains x > c): a query no node can match, which Why-empty
// has to relax.
Query Contradicted(const Query& q) {
  Query out = q;
  for (QNodeId u = 0; u < q.node_count(); ++u) {
    if (q.node(u).literals.empty()) continue;
    Literal l = q.node(u).literals.front();
    switch (l.op) {
      case CompareOp::kLt:
        l.op = CompareOp::kGe;
        break;
      case CompareOp::kLe:
        l.op = CompareOp::kGt;
        break;
      case CompareOp::kGe:
        l.op = CompareOp::kLt;
        break;
      case CompareOp::kGt:
        l.op = CompareOp::kLe;
        break;
      case CompareOp::kEq:
        l.op = CompareOp::kGt;
        break;
    }
    out.AddLiteral(u, l);
    break;
  }
  return out;
}

void HashDouble(Fnv& f, double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  f.U64(bits);
}

TEST(ExtensionsPinTest, WhyEmptyAndWhySoManyBothSemantics) {
  const Graph& g = PoolGraph();
  std::vector<GeneratedQuery> pool = QueryPool(g);
  ASSERT_GE(pool.size(), 6u);
  Fnv f;
  size_t empty_asked = 0;
  size_t empty_found = 0;
  size_t many_asked = 0;
  size_t many_found = 0;
  for (MatchSemantics sem :
       {MatchSemantics::kIsomorphism, MatchSemantics::kSimulation}) {
    AnswerConfig cfg;
    cfg.budget = 4.0;
    cfg.semantics = sem;
    cfg.max_picky_ops = 24;
    cfg.threads = 1;
    for (const GeneratedQuery& gq : pool) {
      const Query& q = gq.query;
      std::vector<NodeId> base = sem == MatchSemantics::kSimulation
                                     ? SimulationAnswers(g, q)
                                     : gq.answers;
      for (size_t k : {size_t{1}, base.size() / 2}) {
        WhySoManyResult r = AnswerWhySoMany(g, q, base, k, cfg);
        f.U64(r.found ? 1 : 0);
        f.Str(DescribeOperators(r.ops, g));
        HashDouble(f, r.cost);
        f.U64(r.before);
        f.U64(r.after);
        ++many_asked;
        many_found += r.found ? 1 : 0;
      }
      WhyEmptyResult r = AnswerWhyEmpty(g, Contradicted(q), cfg);
      f.U64(r.found ? 1 : 0);
      f.Str(DescribeOperators(r.ops, g));
      HashDouble(f, r.cost);
      f.U64(r.sample_answers.size());
      for (NodeId v : r.sample_answers) f.U64(v);
      ++empty_asked;
      empty_found += r.found ? 1 : 0;
    }
  }
  // A pool where nothing is found pins nothing of the greedy.
  EXPECT_GT(empty_found, 0u);
  EXPECT_GT(many_found, 0u);
  EXPECT_EQ(f.h, kExtensionsDigest)
      << "extensions digest 0x" << std::hex << f.h << std::dec << " over "
      << many_asked << " Why-so-many (" << many_found << " found) and "
      << empty_asked << " Why-empty (" << empty_found << " found)";
}

}  // namespace
}  // namespace whyq
