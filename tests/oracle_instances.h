// The oracle suites' random instances, shared by tests/oracle_test.cc and
// tests/picky_pin_test.cc: small attributed graphs with a small query each,
// the Why and Why-not questions asked about them, and the search caps the
// exactness oracle runs them under.

#ifndef WHYQ_TESTS_ORACLE_INSTANCES_H_
#define WHYQ_TESTS_ORACLE_INSTANCES_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/dictionary.h"
#include "common/rng.h"
#include "graph/graph.h"
#include "matcher/matcher.h"
#include "matcher/simulation.h"
#include "query/query.h"
#include "why/question.h"

namespace whyq {
namespace oracle {

struct Instance {
  Graph g;
  Query q;
};

// Random small attributed graph + random small query over its label space.
inline Instance MakeInstance(uint64_t seed) {
  Rng rng(seed);
  Instance inst;
  GraphBuilder b;
  size_t n = 5 + rng.Index(8);           // 5..12 nodes
  size_t n_labels = 2 + rng.Index(3);    // 2..4 labels
  size_t n_elabels = 1 + rng.Index(2);   // 1..2 edge labels
  for (size_t i = 0; i < n; ++i) {
    NodeId v = b.AddNode(NumberedName("L", rng.Index(n_labels)));
    b.SetAttr(v, "x", Value(rng.Uniform(0, 4)));
    if (rng.Chance(0.5)) b.SetAttr(v, "y", Value(rng.Uniform(0, 2)));
  }
  size_t m = n + rng.Index(2 * n);
  for (size_t i = 0; i < m; ++i) {
    b.AddEdge(static_cast<NodeId>(rng.Index(n)),
              static_cast<NodeId>(rng.Index(n)),
              NumberedName("r", rng.Index(n_elabels)));
  }
  inst.g = b.Build();

  Query& q = inst.q;
  size_t qn = 2 + rng.Index(2);  // 2..3 query nodes
  for (size_t i = 0; i < qn; ++i) {
    SymbolId label = static_cast<SymbolId>(rng.Index(n_labels));
    q.AddNode(label);
    if (rng.Chance(0.6)) {
      Literal l;
      l.attr = 0;  // "x"
      l.op = rng.Chance(0.5) ? CompareOp::kLe : CompareOp::kGe;
      l.constant = Value(rng.Uniform(0, 4));
      q.AddLiteral(static_cast<QNodeId>(i), l);
    }
  }
  // Connected-ish edge set: a path plus an optional extra edge.
  for (size_t i = 1; i < qn; ++i) {
    QNodeId a = static_cast<QNodeId>(i - 1);
    QNodeId bq = static_cast<QNodeId>(i);
    if (rng.Chance(0.5)) std::swap(a, bq);
    q.AddEdge(a, bq, static_cast<SymbolId>(rng.Index(n_elabels)));
  }
  if (qn == 3 && rng.Chance(0.5)) {
    q.AddEdge(0, 2, static_cast<SymbolId>(rng.Index(n_elabels)));
  }
  q.SetOutput(static_cast<QNodeId>(rng.Index(qn)));
  return inst;
}

// Budget and guard vary with the seed, so some optima are below 1.
inline AnswerConfig OracleConfig(int seed, MatchSemantics semantics) {
  AnswerConfig cfg;
  cfg.budget = 1.5 + 0.5 * (seed % 3);
  cfg.guard_m = static_cast<size_t>(seed % 2);
  cfg.semantics = semantics;
  cfg.max_picky_ops = 10;
  cfg.max_mbs = size_t{1} << 20;  // far above the 2^10 subsets: never hit
  return cfg;
}

// The oracle's questions on one instance under one semantics: a Why
// question over a random half of the answers (when there are any) and a
// Why-not question over up to four non-answers of the output label.
struct OracleQuestions {
  std::vector<NodeId> answers;
  WhyQuestion why;
  WhyNotQuestion whynot;
};

inline OracleQuestions MakeQuestions(const Instance& inst,
                                     MatchSemantics semantics, Rng& rng) {
  const Graph& g = inst.g;
  const Query& q = inst.q;
  OracleQuestions out;
  out.answers = semantics == MatchSemantics::kSimulation
                    ? SimulationAnswers(g, q)
                    : Matcher(g).MatchOutput(q);
  for (NodeId v : out.answers) {
    if (out.why.unexpected.empty() || rng.Chance(0.5)) {
      out.why.unexpected.push_back(v);
    }
  }
  for (NodeId v : g.NodesWithLabel(q.node(q.output()).label)) {
    if (out.whynot.missing.size() < 4 &&
        std::find(out.answers.begin(), out.answers.end(), v) ==
            out.answers.end()) {
      out.whynot.missing.push_back(v);
    }
  }
  return out;
}

}  // namespace oracle
}  // namespace whyq

#endif  // WHYQ_TESTS_ORACLE_INSTANCES_H_
