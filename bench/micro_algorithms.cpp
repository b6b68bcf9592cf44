// Microbenchmarks for the core answering pipeline: picky-set generation
// (on BSBM-500 questions), MBS enumeration, and the six end-to-end
// algorithms on a fixed question.

#include <benchmark/benchmark.h>

#include "whyq.h"

namespace whyq {
namespace {

struct Fixture {
  Graph g;
  GeneratedQuery gq;
  WhyQuestion why;
  WhyNotQuestion whynot;
  bool ok = false;
};

const Fixture& SharedFixture() {
  static Fixture* f = [] {
    auto* out = new Fixture();
    out->g = GenerateProfile(DatasetProfile::kDBpedia, 15000, 7);
    // Reuse the harness workload builder (it loosens generation knobs
    // progressively when the graph is too selective).
    WorkloadConfig wc;
    wc.items = 1;
    wc.query.edges = 4;
    wc.query.literals_per_node = 2;
    wc.query.slack = 0.6;
    wc.query.min_answers = 6;
    wc.seed = 11;
    Workload w = MakeWorkload(out->g, wc);
    if (!w.items.empty()) {
      out->gq = std::move(w.items[0].gq);
      out->why = std::move(w.items[0].why);
      out->whynot = std::move(w.items[0].whynot);
      out->ok = true;
    }
    return out;
  }();
  return *f;
}

AnswerConfig Config() {
  AnswerConfig cfg;
  cfg.budget = 4.0;
  cfg.guard_m = 2;
  cfg.exact_time_limit_ms = 3000;
  return cfg;
}

// Picky generation on BSBM-500 (graph seed 7): 24 generated questions,
// queries from the query pool seed 7 and questions from seed 58, in the
// shape of the perfbench `exact` workload (4 edges, 2 literals per node,
// 8-40 answers, |V_N| = |V_C| = 3). One iteration generates the picky sets
// of all 24 at the exact workload's cap of 24 operators.
struct PickyFixture {
  Graph g;
  std::vector<GeneratedQuery> queries;
  std::vector<WhyQuestion> why;
  std::vector<WhyNotQuestion> whynot;
};

const PickyFixture& Bsbm500Picky() {
  static PickyFixture* f = [] {
    auto* out = new PickyFixture();
    out->g = GenerateBsbm(BsbmConfig{500, 7});
    QueryGenConfig qc;
    qc.edges = 4;
    qc.literals_per_node = 2;
    qc.slack = 0.6;
    qc.min_answers = 8;
    qc.max_answers = 40;
    for (uint64_t k = 0; k < 48 && out->queries.size() < 24; ++k) {
      Rng query_rng(7 * 1000003 + k);
      Rng rng(58 * 1000003 + k);
      std::optional<GeneratedQuery> gq = GenerateQuery(out->g, qc, query_rng);
      if (!gq.has_value()) continue;
      WhyQuestion why = GenerateWhyQuestion(*gq, 3, rng);
      std::optional<WhyNotQuestion> whynot =
          GenerateWhyNotQuestion(out->g, *gq, 3, 0, rng);
      if (why.unexpected.empty() || !whynot.has_value()) continue;
      out->queries.push_back(std::move(*gq));
      out->why.push_back(std::move(why));
      out->whynot.push_back(std::move(*whynot));
    }
    return out;
  }();
  return *f;
}

void BM_GenPickyWhy(benchmark::State& state) {
  const PickyFixture& f = Bsbm500Picky();
  AnswerConfig cfg;
  cfg.max_picky_ops = 24;
  for (auto _ : state) {
    for (size_t i = 0; i < f.queries.size(); ++i) {
      benchmark::DoNotOptimize(GenPickyWhy(f.g, f.queries[i].query,
                                           f.queries[i].answers,
                                           f.why[i].unexpected, cfg));
    }
  }
  state.counters["questions"] = static_cast<double>(f.queries.size());
}
BENCHMARK(BM_GenPickyWhy)->Unit(benchmark::kMicrosecond);

void BM_GenPickyWhyNot(benchmark::State& state) {
  const PickyFixture& f = Bsbm500Picky();
  AnswerConfig cfg;
  cfg.max_picky_ops = 24;
  for (auto _ : state) {
    for (size_t i = 0; i < f.queries.size(); ++i) {
      benchmark::DoNotOptimize(GenPickyWhyNot(f.g, f.queries[i].query,
                                              f.whynot[i].missing, cfg));
    }
  }
  state.counters["questions"] = static_cast<double>(f.queries.size());
}
BENCHMARK(BM_GenPickyWhyNot)->Unit(benchmark::kMicrosecond);

void BM_MbsEnumeration(benchmark::State& state) {
  // Pure enumeration over synthetic costs (no verification), showing the
  // cost of the partial-enumeration scheme itself.
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<double> costs(n);
  for (size_t i = 0; i < n; ++i) {
    costs[i] = 0.5 + static_cast<double>(i % 7) * 0.35;
  }
  std::vector<std::vector<size_t>> conflicts(n);
  for (auto _ : state) {
    size_t emitted = 0;
    EnumerateMaximalBoundedSetsBatched(
        costs, conflicts, 4.0, 5000, /*batch_size=*/1,
        [&](const std::vector<std::vector<size_t>>&,
            const std::vector<std::optional<size_t>>&) {
          ++emitted;
          return true;
        });
    benchmark::DoNotOptimize(emitted);
  }
}
BENCHMARK(BM_MbsEnumeration)->Arg(16)->Arg(32)->Arg(64);

// Under simulation the question is asked of Q's simulation answers, a
// superset of the isomorphism answers that holds the same V_N.
template <RewriteAnswer (*Algo)(const Graph&, const Query&,
                                const std::vector<NodeId>&,
                                const WhyQuestion&, const AnswerConfig&),
          MatchSemantics kSemantics = MatchSemantics::kIsomorphism>
void BM_WhyAlgorithm(benchmark::State& state) {
  const Fixture& f = SharedFixture();
  if (!f.ok) {
    state.SkipWithError("no fixture");
    return;
  }
  AnswerConfig cfg = Config();
  cfg.semantics = kSemantics;
  const std::vector<NodeId> answers =
      kSemantics == MatchSemantics::kSimulation
          ? SimulationAnswers(f.g, f.gq.query)
          : f.gq.answers;
  double closeness = 0.0;
  for (auto _ : state) {
    RewriteAnswer a = Algo(f.g, f.gq.query, answers, f.why, cfg);
    closeness = a.eval.closeness;
    benchmark::DoNotOptimize(a);
  }
  state.counters["closeness"] = closeness;
}
BENCHMARK(BM_WhyAlgorithm<ExactWhy>)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_WhyAlgorithm<ApproxWhy>)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_WhyAlgorithm<IsoWhy>)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_WhyAlgorithm<ApproxWhy, MatchSemantics::kSimulation>)
    ->Name("BM_WhyAlgorithm<ApproxWhy>/simulation")
    ->Unit(benchmark::kMillisecond);

template <RewriteAnswer (*Algo)(const Graph&, const Query&,
                                const std::vector<NodeId>&,
                                const WhyNotQuestion&, const AnswerConfig&)>
void BM_WhyNotAlgorithm(benchmark::State& state) {
  const Fixture& f = SharedFixture();
  if (!f.ok) {
    state.SkipWithError("no fixture");
    return;
  }
  AnswerConfig cfg = Config();
  double closeness = 0.0;
  for (auto _ : state) {
    RewriteAnswer a = Algo(f.g, f.gq.query, f.gq.answers, f.whynot, cfg);
    closeness = a.eval.closeness;
    benchmark::DoNotOptimize(a);
  }
  state.counters["closeness"] = closeness;
}
BENCHMARK(BM_WhyNotAlgorithm<ExactWhyNot>)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_WhyNotAlgorithm<FastWhyNot>)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_WhyNotAlgorithm<IsoWhyNot>)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Intra-question thread scaling (AnswerConfig::threads): the same question
// at 1/2/4/8 executor slots. Answers are bit-identical across widths (see
// why/why_algorithms.cc), so the only thing these curves measure is wall
// clock. Run on a BSBM e-commerce graph — the acceptance fixture for the
// parallel MBS verification — sized so ExactWhy has a real enumeration to
// chew on. NOTE: on a single-core container the curve is flat or slightly
// regressive (oversubscription); see EXPERIMENTS.md for the recorded
// numbers and the multi-core expectation.

const Fixture& BsbmFixture() {
  static Fixture* f = [] {
    auto* out = new Fixture();
    BsbmConfig bc;
    bc.products = 2000;
    bc.seed = 7;
    out->g = GenerateBsbm(bc);
    WorkloadConfig wc;
    wc.items = 1;
    wc.query.edges = 4;
    wc.query.literals_per_node = 2;
    wc.query.slack = 0.6;
    wc.query.min_answers = 6;
    wc.seed = 11;
    Workload w = MakeWorkload(out->g, wc);
    if (!w.items.empty()) {
      out->gq = std::move(w.items[0].gq);
      out->why = std::move(w.items[0].why);
      out->whynot = std::move(w.items[0].whynot);
      out->ok = true;
    }
    return out;
  }();
  return *f;
}

// Deterministic caps: no wall-clock limit (it would flatten every curve at
// the limit) — the emission cap alone bounds the exact search, so each
// width verifies the same candidate sets and time tracks the parallel
// verification work.
AnswerConfig ScalingConfig(int64_t threads) {
  AnswerConfig cfg = Config();
  cfg.exact_time_limit_ms = 0;
  cfg.max_mbs = 2000;
  cfg.threads = static_cast<size_t>(threads);
  return cfg;
}

template <RewriteAnswer (*Algo)(const Graph&, const Query&,
                                const std::vector<NodeId>&,
                                const WhyQuestion&, const AnswerConfig&)>
void BM_WhyThreadScaling(benchmark::State& state) {
  const Fixture& f = BsbmFixture();
  if (!f.ok) {
    state.SkipWithError("no fixture");
    return;
  }
  AnswerConfig cfg = ScalingConfig(state.range(0));
  double closeness = 0.0;
  for (auto _ : state) {
    RewriteAnswer a = Algo(f.g, f.gq.query, f.gq.answers, f.why, cfg);
    closeness = a.eval.closeness;
    benchmark::DoNotOptimize(a);
  }
  state.counters["closeness"] = closeness;
}
BENCHMARK(BM_WhyThreadScaling<ExactWhy>)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_WhyThreadScaling<ApproxWhy>)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

template <RewriteAnswer (*Algo)(const Graph&, const Query&,
                                const std::vector<NodeId>&,
                                const WhyNotQuestion&, const AnswerConfig&)>
void BM_WhyNotThreadScaling(benchmark::State& state) {
  const Fixture& f = BsbmFixture();
  if (!f.ok) {
    state.SkipWithError("no fixture");
    return;
  }
  AnswerConfig cfg = ScalingConfig(state.range(0));
  double closeness = 0.0;
  for (auto _ : state) {
    RewriteAnswer a = Algo(f.g, f.gq.query, f.gq.answers, f.whynot, cfg);
    closeness = a.eval.closeness;
    benchmark::DoNotOptimize(a);
  }
  state.counters["closeness"] = closeness;
}
BENCHMARK(BM_WhyNotThreadScaling<ExactWhyNot>)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_WhyNotThreadScaling<FastWhyNot>)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace whyq

BENCHMARK_MAIN();
