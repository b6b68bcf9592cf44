// Picky pin: the exact operator sequences GenPickyWhy and GenPickyWhyNot
// generate, hashed field by field (kind, nodes, edge label and direction,
// literals, constants with their kind and bits) in generation order. The
// generation order fixes the candidate indexing of every search, and with
// it the answers, so a change that only makes generation cheaper must leave
// both digests alone.
//
// The pin covers the 40 oracle instances under both semantics (the Why and
// Why-not questions of the exactness oracle), a set of generated BSBM-500
// questions, and four query shapes over random graphs whose nodes carry
// varying attribute subsets: a path with the output in the middle (its
// eccentricity below the diameter), a single node (depth 0), a query with a
// node outside the output component, and a Why question that names every
// answer (an empty desired side). Each runs at a cap that truncates the
// picky set and at one that does not.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <optional>
#include <vector>

#include "common/dictionary.h"
#include "common/image.h"
#include "gen/bsbm.h"
#include "gen/query_gen.h"
#include "gen/question_gen.h"
#include "matcher/matcher.h"
#include "oracle_instances.h"
#include "rewrite/evaluation.h"
#include "why/picky.h"

namespace whyq {
namespace {

constexpr uint64_t kOracleDigest = 0x330be0ec424d0e0full;
constexpr uint64_t kBsbmDigest = 0x4e512ad892356f35ull;
constexpr uint64_t kMiddleOutputDigest = 0x594885c0c2cecf7cull;
constexpr uint64_t kSingleNodeDigest = 0x1b508a5f58a20828ull;
constexpr uint64_t kOutsideComponentDigest = 0x3d03c58406e23cf7ull;
constexpr uint64_t kEmptyDesiredDigest = 0xd7dcca2505c5d021ull;

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
            GenPickyWhy(g, q, qs.answers, why.targets(), cfg);
        std::vector<EditOp> n = GenPickyWhyNot(g, q, whynot.targets(), cfg);
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

// A random graph for the query shapes: three labels, two edge labels, and
// four attributes (two integer, one string, one double) that each node
// carries with probability 1/2. The attributes on a neighborhood therefore
// vary from node to node, and their ids (interned on first use) are not in
// the order the nodes carry them.
Graph MakeShapeGraph(uint64_t seed) {
  Rng rng(seed);
  GraphBuilder b;
  constexpr size_t kNodes = 60;
  const char* const strings[] = {"p", "q", "r"};
  for (size_t i = 0; i < kNodes; ++i) {
    NodeId v = b.AddNode(NumberedName("L", rng.Index(3)));
    if (rng.Chance(0.5)) b.SetAttr(v, "w", Value(rng.Uniform(0, 5)));
    if (rng.Chance(0.5)) b.SetAttr(v, "x", Value(rng.Uniform(0, 9)));
    if (rng.Chance(0.5)) b.SetAttr(v, "y", Value(strings[rng.Index(3)]));
    if (rng.Chance(0.5)) {
      b.SetAttr(v, "z", Value(static_cast<double>(rng.Uniform(0, 40)) / 4));
    }
  }
  for (size_t i = 0; i < 3 * kNodes; ++i) {
    b.AddEdge(static_cast<NodeId>(rng.Index(kNodes)),
              static_cast<NodeId>(rng.Index(kNodes)),
              NumberedName("r", rng.Index(2)));
  }
  return b.Build();
}

// A loose literal the data node v satisfies, on its first attribute: an
// upper bound at its value, or equality for a string. None when v carries
// no attribute.
std::optional<Literal> LiteralOn(const Graph& g, NodeId v) {
  if (g.attrs(v).empty()) return std::nullopt;
  const AttrEntry& e = g.attrs(v)[0];
  Literal l;
  l.attr = e.attr;
  l.op = e.value.is_string() ? CompareOp::kEq : CompareOp::kLe;
  l.constant = e.value;
  return l;
}

// A query shaped as a random data path of `len` distinct nodes (each step
// an edge of either direction): one query node per path node, with its
// label, the path's edges, and a literal from LiteralOn on every other
// node. The path itself is a match, so the query has answers. None when
// the walk from a random start dead-ends `tries` times.
std::optional<Query> PathQuery(const Graph& g, size_t len, Rng& rng) {
  for (int tries = 0; tries < 20; ++tries) {
    std::vector<NodeId> walk{
        static_cast<NodeId>(rng.Index(g.node_count()))};
    Query q;
    q.AddNode(g.label(walk[0]));
    while (walk.size() < len) {
      NodeId v = walk.back();
      std::vector<std::pair<HalfEdge, bool>> steps;
      for (const HalfEdge& e : g.out_edges(v)) steps.push_back({e, true});
      for (const HalfEdge& e : g.in_edges(v)) steps.push_back({e, false});
      std::erase_if(steps, [&](const std::pair<HalfEdge, bool>& s) {
        return std::find(walk.begin(), walk.end(), s.first.other) !=
               walk.end();
      });
      if (steps.empty()) break;
      auto [e, forward] = steps[rng.Index(steps.size())];
      QNodeId prev = static_cast<QNodeId>(walk.size() - 1);
      QNodeId next = q.AddNode(g.label(e.other));
      if (forward) {
        q.AddEdge(prev, next, e.label);
      } else {
        q.AddEdge(next, prev, e.label);
      }
      walk.push_back(e.other);
    }
    if (walk.size() < len) continue;
    for (size_t i = 0; i < walk.size(); i += 2) {
      std::optional<Literal> l = LiteralOn(g, walk[i]);
      if (l.has_value()) q.AddLiteral(static_cast<QNodeId>(i), *l);
    }
    return q;
  }
  return std::nullopt;
}

// Hashes the picky sets of one query shape over 24 random graphs: the Why
// question names half the answers (every answer with `all_unexpected`),
// the Why-not question up to four non-answers of the output label, each at
// a truncating cap and an open one. `make` builds the shape on a graph (or
// gives up on it).
uint64_t ShapeDigest(
    const std::function<std::optional<Query>(const Graph&, Rng&)>& make,
    bool all_unexpected, size_t* instances, size_t* ops) {
  Fnv f;
  for (uint64_t seed = 0; seed < 24; ++seed) {
    Graph g = MakeShapeGraph(seed * 7919 + 3);
    Rng rng(seed * 104729 + 5);
    std::optional<Query> q = make(g, rng);
    if (!q.has_value()) continue;
    std::vector<NodeId> answers = Matcher(g).MatchOutput(*q);
    if (answers.empty()) continue;
    std::vector<NodeId> unexpected;
    for (NodeId v : answers) {
      if (all_unexpected || unexpected.empty() || rng.Chance(0.5)) {
        unexpected.push_back(v);
      }
    }
    std::vector<NodeId> missing;
    for (NodeId v : g.NodesWithLabel(q->node(q->output()).label)) {
      if (missing.size() < 4 &&
          !std::binary_search(answers.begin(), answers.end(), v)) {
        missing.push_back(v);
      }
    }
    ++*instances;
    for (size_t cap : {size_t{12}, size_t{100000}}) {
      AnswerConfig cfg;
      cfg.max_picky_ops = cap;
      std::vector<EditOp> w = GenPickyWhy(g, *q, answers, unexpected, cfg);
      std::vector<EditOp> n = GenPickyWhyNot(g, *q, missing, cfg);
      HashOps(f, w);
      HashOps(f, n);
      *ops += w.size() + n.size();
    }
  }
  return f.h;
}

void ExpectShapeDigest(
    const std::function<std::optional<Query>(const Graph&, Rng&)>& make,
    bool all_unexpected, uint64_t expected) {
  size_t instances = 0;
  size_t ops = 0;
  uint64_t h = ShapeDigest(make, all_unexpected, &instances, &ops);
  EXPECT_GE(instances, 16u);
  EXPECT_GT(ops, 400u);
  EXPECT_EQ(h, expected) << "shape picky digest 0x" << std::hex << h
                         << std::dec << " over " << instances
                         << " instances, " << ops << " operators";
}

// A five-node path whose output is its second or third node: the output's
// eccentricity (3 or 2) is below the diameter (4), so the neighborhoods
// end short of the query's diameter.
TEST(PickyPinTest, PathWithOutputInTheMiddle) {
  ExpectShapeDigest(
      [](const Graph& g, Rng& rng) {
        std::optional<Query> q = PathQuery(g, 5, rng);
        if (q.has_value()) q->SetOutput(static_cast<QNodeId>(1 + rng.Index(2)));
        return q;
      },
      false, kMiddleOutputDigest);
}

// A single query node: every neighborhood is its seeds alone (depth 0).
TEST(PickyPinTest, SingleNodeQuery) {
  ExpectShapeDigest(
      [](const Graph& g, Rng& rng) {
        std::optional<Query> q = PathQuery(g, 1, rng);
        if (q.has_value()) q->SetOutput(0);
        return q;
      },
      false, kSingleNodeDigest);
}

// A three-node path with the output at one end, plus a fourth node joined
// to nothing: the picky operators cover the output component only.
TEST(PickyPinTest, NodeOutsideTheOutputComponent) {
  ExpectShapeDigest(
      [](const Graph& g, Rng& rng) {
        std::optional<Query> q = PathQuery(g, 3, rng);
        if (q.has_value()) {
          QNodeId lone = q->AddNode(g.label(
              static_cast<NodeId>(rng.Index(g.node_count()))));
          Literal l;
          l.attr = 0;
          l.op = CompareOp::kGe;
          l.constant = Value(1);
          q->AddLiteral(lone, l);
          q->SetOutput(0);
        }
        return q;
      },
      false, kOutsideComponentDigest);
}

// A Why question that names every answer: the desired side is empty.
TEST(PickyPinTest, EveryAnswerUnexpected) {
  ExpectShapeDigest(
      [](const Graph& g, Rng& rng) {
        std::optional<Query> q = PathQuery(g, 3, rng);
        if (q.has_value()) q->SetOutput(static_cast<QNodeId>(rng.Index(2)));
        return q;
      },
      true, kEmptyDesiredDigest);
}

}  // namespace
}  // namespace whyq
