// Answer pin: all six algorithms (ExactWhy, ApproxWhy, IsoWhy, ExactWhyNot,
// FastWhyNot, IsoWhyNot) over a fixed generated BSBM question pool, under
// both match semantics and at threads 1 and 4, hashed into two digests.
//
// The answer digest covers what a search returns and the search work it
// reports: which operators it picks, its closeness, guard and cost, the
// picky set size, MBS counts, greedy rounds and guard checks. Any change
// to them moves it. A change that only makes the search cheaper must
// leave it alone.
//
// The work digest covers the candidate-memo counters of the serial runs,
// which a change to how much matching a search does moves on purpose. At
// threads 4 each executor slot has its own context, and which slot claims
// which item is a scheduling accident, so the per-slot hit/miss split (and
// with it the sum) may differ from run to run; those counters are left out.
// Every answer field is part of the parallel determinism contract and is
// hashed at both widths.
//
// When a change moves answers on purpose, re-record kAnswerDigest from the
// failure message and say why in the change's notes; likewise kWorkDigest
// when a change moves the matching work.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "common/image.h"
#include "common/stats_fields.h"
#include "gen/bsbm.h"
#include "gen/query_gen.h"
#include "gen/question_gen.h"
#include "matcher/simulation.h"
#include "query/query_parser.h"
#include "rewrite/operators.h"
#include "why/why_algorithms.h"
#include "why/whynot_algorithms.h"

namespace whyq {
namespace {

constexpr uint64_t kAnswerDigest = 0xeeeb0c1cd8c929aaull;
constexpr uint64_t kWorkDigest = 0x9266599a710f5c3dull;

struct PoolItem {
  GeneratedQuery gq;
  WhyQuestion why;
  WhyNotQuestion whynot;
};

const Graph& PoolGraph() {
  static const Graph* g = new Graph(GenerateBsbm(BsbmConfig{200, 11}));
  return *g;
}

std::vector<PoolItem> QuestionPool(const Graph& g) {
  std::vector<PoolItem> pool;
  for (uint64_t seed = 1; pool.size() < 6 && seed <= 64; ++seed) {
    Rng rng(seed * 6151 + 17);
    QueryGenConfig qc;
    qc.edges = 2 + seed % 2;
    qc.literals_per_node = 1 + seed % 2;
    qc.min_answers = 3;
    qc.max_answers = 120;
    qc.slack = 0.5;
    std::optional<GeneratedQuery> gq = GenerateQuery(g, qc, rng);
    if (!gq.has_value()) continue;
    PoolItem item;
    item.gq = std::move(*gq);
    item.why = GenerateWhyQuestion(item.gq, 2, rng);
    std::optional<WhyNotQuestion> wn =
        GenerateWhyNotQuestion(g, item.gq, 2, seed % 2, rng);
    if (!wn.has_value() || item.why.unexpected.empty()) continue;
    item.whynot = std::move(*wn);
    pool.push_back(std::move(item));
  }
  return pool;
}

AnswerConfig PinConfig(MatchSemantics semantics, size_t threads) {
  AnswerConfig cfg;
  cfg.budget = 4.0;
  cfg.guard_m = 2;
  cfg.semantics = semantics;
  cfg.max_picky_ops = 24;
  // Small enough that some exact runs stop at the cap and take the greedy
  // fallback; no wall-clock limit, so truncation is deterministic.
  cfg.max_mbs = 48;
  cfg.exact_time_limit_ms = 0;
  cfg.threads = threads;
  return cfg;
}

void HashDouble(Fnv& f, double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  f.U64(bits);
}

void HashAnswer(const Graph& g, const RewriteAnswer& a, Fnv& f) {
  f.Str(DescribeOperators(a.ops, g));
  f.Str(WriteQuery(a.rewritten, g));
  HashDouble(f, a.eval.closeness);
  f.U64(a.eval.guard);
  f.U64(a.eval.guard_ok ? 1 : 0);
  HashDouble(f, a.cost);
  HashDouble(f, a.estimated_closeness);
  f.U64(a.found ? 1 : 0);
  f.U64(a.exhaustive ? 1 : 0);
  f.U64(a.picky_count);
  f.U64(a.sets_enumerated);
  f.U64(a.sets_verified);
  f.U64(a.guard_checks);
}

void HashWork(const RewriteAnswer& a, Fnv& f) {
#define WHYQ_HASH_CTX(name, key, help) f.U64(a.ctx.name);
  WHYQ_CTX_COUNTERS(WHYQ_HASH_CTX)
#undef WHYQ_HASH_CTX
}

TEST(AnswerDigestTest, SixAlgorithmsBothSemanticsBothWidths) {
  const Graph& g = PoolGraph();
  std::vector<PoolItem> pool = QuestionPool(g);
  ASSERT_GE(pool.size(), 4u);
  Fnv answer_f;
  Fnv work_f;
  auto hash = [&](const RewriteAnswer& a, size_t threads) {
    HashAnswer(g, a, answer_f);
    if (threads == 1) HashWork(a, work_f);
  };
  size_t answers = 0;
  size_t found = 0;
  for (MatchSemantics sem :
       {MatchSemantics::kIsomorphism, MatchSemantics::kSimulation}) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      AnswerConfig cfg = PinConfig(sem, threads);
      for (const PoolItem& item : pool) {
        const Query& q = item.gq.query;
        std::vector<NodeId> base = sem == MatchSemantics::kSimulation
                                       ? SimulationAnswers(g, q)
                                       : item.gq.answers;
        for (auto algo : {&ExactWhy, &ApproxWhy, &IsoWhy}) {
          RewriteAnswer a = algo(g, q, base, item.why, cfg);
          hash(a, threads);
          ++answers;
          found += a.found ? 1 : 0;
        }
        for (auto algo : {&ExactWhyNot, &FastWhyNot, &IsoWhyNot}) {
          RewriteAnswer a = algo(g, q, base, item.whynot, cfg);
          hash(a, threads);
          ++answers;
          found += a.found ? 1 : 0;
        }
      }
    }
  }
  // A pool where nothing is found pins nothing of the searches.
  EXPECT_GT(found, answers / 4);
  EXPECT_EQ(answer_f.h, kAnswerDigest)
      << "answer digest 0x" << std::hex << answer_f.h << std::dec << " over "
      << answers << " answers (" << found << " found)";
  EXPECT_EQ(work_f.h, kWorkDigest)
      << "work digest 0x" << std::hex << work_f.h << std::dec << " over "
      << answers << " answers";
}

}  // namespace
}  // namespace whyq
