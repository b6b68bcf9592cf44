// Picky pin: the exact operator sequences GenPickyWhy and GenPickyWhyNot
// generate, hashed field by field (kind, nodes, edge label and direction,
// literals, constants with their kind and bits) in generation order. The
// generation order fixes the candidate indexing of every search, and with
// it the answers, so a change that only makes generation cheaper must leave
// both digests alone.
//
// The pin covers the 40 oracle instances under both semantics (the Why and
// Why-not questions of the exactness oracle) and a set of generated BSBM-500
// questions, each at a cap that truncates the picky set and at one that
// does not.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <optional>
#include <vector>

#include "common/image.h"
#include "gen/bsbm.h"
#include "gen/query_gen.h"
#include "gen/question_gen.h"
#include "oracle_instances.h"
#include "rewrite/evaluation.h"
#include "why/picky.h"

namespace whyq {
namespace {

constexpr uint64_t kOracleDigest = 0x330be0ec424d0e0full;
constexpr uint64_t kBsbmDigest = 0x4e512ad892356f35ull;

void HashValue(Fnv& f, const Value& v) {
  if (v.is_int()) {
    f.U64(0);
    f.U64(static_cast<uint64_t>(v.as_int()));
  } else if (v.is_double()) {
    double d = v.as_double();
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    f.U64(1);
    f.U64(bits);
  } else {
    f.U64(2);
    f.Str(v.as_string());
  }
}

void HashLiteral(Fnv& f, const Literal& l) {
  f.U64(l.attr);
  f.U64(static_cast<uint64_t>(l.op));
  HashValue(f, l.constant);
}

void HashOps(Fnv& f, const std::vector<EditOp>& ops) {
  f.U64(ops.size());
  for (const EditOp& op : ops) {
    f.U64(static_cast<uint64_t>(op.kind));
    f.U64(op.u);
    f.U64(op.v);
    f.U64(op.edge_label);
    f.U64(op.edge_forward ? 1 : 0);
    HashLiteral(f, op.before);
    HashLiteral(f, op.after);
    f.U64(op.new_node.has_value() ? 1 : 0);
    if (op.new_node.has_value()) {
      f.U64(op.new_node->label);
      f.U64(op.new_node->literals.size());
      for (const Literal& l : op.new_node->literals) HashLiteral(f, l);
    }
  }
}

TEST(PickyPinTest, OracleInstances) {
  Fnv f;
  size_t ops = 0;
  for (int seed = 0; seed < 40; ++seed) {
    oracle::Instance inst =
        oracle::MakeInstance(static_cast<uint64_t>(seed) * 389 + 11);
    const Graph& g = inst.g;
    const Query& q = inst.q;
    Rng rng(static_cast<uint64_t>(seed) * 613 + 7);
    for (MatchSemantics semantics :
         {MatchSemantics::kIsomorphism, MatchSemantics::kSimulation}) {
      AnswerConfig cfg = oracle::OracleConfig(seed, semantics);
      oracle::OracleQuestions qs = oracle::MakeQuestions(inst, semantics, rng);
      WhyEvaluator why(g, qs.answers, qs.why, cfg.guard_m, semantics);
      WhyNotEvaluator whynot(g, qs.answers, qs.whynot, cfg.guard_m,
                             semantics);
      for (size_t cap : {cfg.max_picky_ops, size_t{100000}}) {
        cfg.max_picky_ops = cap;
        std::vector<EditOp> w =
            GenPickyWhy(g, q, qs.answers, why.unexpected(), cfg);
        std::vector<EditOp> n = GenPickyWhyNot(g, q, whynot.missing(), cfg);
        HashOps(f, w);
        HashOps(f, n);
        ops += w.size() + n.size();
      }
    }
  }
  EXPECT_GT(ops, 400u);
  EXPECT_EQ(f.h, kOracleDigest)
      << "oracle picky digest 0x" << std::hex << f.h << std::dec << " over "
      << ops << " operators";
}

TEST(PickyPinTest, Bsbm500Queries) {
  Graph g = GenerateBsbm(BsbmConfig{500, 7});
  QueryGenConfig qc;
  qc.edges = 4;
  qc.literals_per_node = 2;
  qc.slack = 0.6;
  qc.min_answers = 8;
  qc.max_answers = 40;
  Fnv f;
  size_t questions = 0;
  size_t ops = 0;
  for (uint64_t k = 0; k < 48 && questions < 24; ++k) {
    Rng query_rng(7 * 1000003 + k);
    Rng rng(58 * 1000003 + k);
    std::optional<GeneratedQuery> gq = GenerateQuery(g, qc, query_rng);
    if (!gq.has_value()) continue;
    WhyQuestion why = GenerateWhyQuestion(*gq, 3, rng);
    std::optional<WhyNotQuestion> whynot =
        GenerateWhyNotQuestion(g, *gq, 3, 0, rng);
    if (why.unexpected.empty() || !whynot.has_value()) continue;
    ++questions;
    for (size_t cap : {size_t{24}, size_t{100000}}) {
      AnswerConfig cfg;
      cfg.max_picky_ops = cap;
      std::vector<EditOp> w =
          GenPickyWhy(g, gq->query, gq->answers, why.unexpected, cfg);
      std::vector<EditOp> n =
          GenPickyWhyNot(g, gq->query, whynot->missing, cfg);
      HashOps(f, w);
      HashOps(f, n);
      ops += w.size() + n.size();
    }
  }
  EXPECT_GE(questions, 16u);
  EXPECT_EQ(f.h, kBsbmDigest)
      << "BSBM picky digest 0x" << std::hex << f.h << std::dec << " over "
      << questions << " questions, " << ops << " operators";
}

}  // namespace
}  // namespace whyq
