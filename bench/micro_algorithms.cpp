// Microbenchmarks for the core answering pipeline: picky-set generation,
// MBS enumeration, and the six end-to-end algorithms on a fixed question.

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

void BM_GenPickyWhy(benchmark::State& state) {
  const Fixture& f = SharedFixture();
  if (!f.ok) {
    state.SkipWithError("no fixture");
    return;
  }
  AnswerConfig cfg = Config();
  for (auto _ : state) {
    benchmark::DoNotOptimize(GenPickyWhy(f.g, f.gq.query, f.gq.answers,
                                         f.why.unexpected, cfg));
  }
}
BENCHMARK(BM_GenPickyWhy);

void BM_GenPickyWhyNot(benchmark::State& state) {
  const Fixture& f = SharedFixture();
  if (!f.ok) {
    state.SkipWithError("no fixture");
    return;
  }
  AnswerConfig cfg = Config();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        GenPickyWhyNot(f.g, f.gq.query, f.whynot.missing, cfg));
  }
}
BENCHMARK(BM_GenPickyWhyNot);

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
        [&](const std::vector<std::vector<size_t>>&) {
          ++emitted;
          return true;
        });
    benchmark::DoNotOptimize(emitted);
  }
}
BENCHMARK(BM_MbsEnumeration)->Arg(16)->Arg(32)->Arg(64);

template <RewriteAnswer (*Algo)(const Graph&, const Query&,
                                const std::vector<NodeId>&,
                                const WhyQuestion&, const AnswerConfig&)>
void BM_WhyAlgorithm(benchmark::State& state) {
  const Fixture& f = SharedFixture();
  if (!f.ok) {
    state.SkipWithError("no fixture");
    return;
  }
  AnswerConfig cfg = Config();
  double closeness = 0.0;
  for (auto _ : state) {
    RewriteAnswer a = Algo(f.g, f.gq.query, f.gq.answers, f.why, cfg);
    closeness = a.eval.closeness;
    benchmark::DoNotOptimize(a);
  }
  state.counters["closeness"] = closeness;
}
BENCHMARK(BM_WhyAlgorithm<ExactWhy>)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_WhyAlgorithm<ApproxWhy>)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_WhyAlgorithm<IsoWhy>)->Unit(benchmark::kMillisecond);

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
// why/exact_search.h), so the only thing these curves measure is wall
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
