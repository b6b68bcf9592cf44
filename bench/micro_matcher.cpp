// Microbenchmarks for the matching substrate: candidate filtering, full
// answer computation, incremental single-node verification, and capped
// guard counting. These are the primitives whose costs the paper's
// complexity analysis is stated in (|N_d(...)|, |Q|, number of iso tests).

#include <benchmark/benchmark.h>

#include <bit>

#include "whyq.h"

namespace whyq {
namespace {

struct Fixture {
  Graph g;
  GeneratedQuery gq;
  bool ok = false;
};

const Fixture& SharedFixture(DatasetProfile p, size_t edges) {
  static std::map<std::pair<int, size_t>, Fixture>* cache =
      new std::map<std::pair<int, size_t>, Fixture>();
  auto key = std::make_pair(static_cast<int>(p), edges);
  auto it = cache->find(key);
  if (it != cache->end()) return it->second;
  Fixture f;
  f.g = GenerateProfile(p, DefaultProfileNodes(p) / 4, 7);
  Rng rng(11);
  QueryGenConfig cfg;
  cfg.edges = edges;
  cfg.literals_per_node = 2;
  cfg.slack = 0.6;
  cfg.min_answers = 4;
  for (int attempt = 0; attempt < 12 && !f.ok; ++attempt) {
    std::optional<GeneratedQuery> gq = GenerateQuery(f.g, cfg, rng);
    if (gq.has_value()) {
      f.gq = std::move(*gq);
      f.ok = true;
    }
  }
  return cache->emplace(key, std::move(f)).first->second;
}

void BM_CandidateFilter(benchmark::State& state) {
  const Fixture& f =
      SharedFixture(DatasetProfile::kDBpedia, static_cast<size_t>(4));
  if (!f.ok) {
    state.SkipWithError("no query generated");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Candidates(f.g, f.gq.query, f.gq.query.output()));
  }
}
BENCHMARK(BM_CandidateFilter);

void BM_MatchOutput(benchmark::State& state) {
  const Fixture& f = SharedFixture(DatasetProfile::kDBpedia,
                                   static_cast<size_t>(state.range(0)));
  if (!f.ok) {
    state.SkipWithError("no query generated");
    return;
  }
  Matcher m(f.g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.MatchOutput(f.gq.query));
  }
  state.counters["answers"] = static_cast<double>(f.gq.answers.size());
}
BENCHMARK(BM_MatchOutput)->Arg(2)->Arg(4)->Arg(6);

void BM_IsAnswerIncremental(benchmark::State& state) {
  const Fixture& f =
      SharedFixture(DatasetProfile::kDBpedia, static_cast<size_t>(4));
  if (!f.ok) {
    state.SkipWithError("no query generated");
    return;
  }
  Matcher m(f.g);
  size_t i = 0;
  for (auto _ : state) {
    NodeId v = f.gq.answers[i++ % f.gq.answers.size()];
    benchmark::DoNotOptimize(m.IsAnswer(f.gq.query, v));
  }
}
BENCHMARK(BM_IsAnswerIncremental);

void BM_CountAnswersCapped(benchmark::State& state) {
  const Fixture& f =
      SharedFixture(DatasetProfile::kDBpedia, static_cast<size_t>(4));
  if (!f.ok) {
    state.SkipWithError("no query generated");
    return;
  }
  Matcher m(f.g);
  NodeSet exclude(f.gq.answers, f.g.node_count());
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.CountAnswersNotIn(
        f.gq.query, exclude, static_cast<size_t>(state.range(0))));
  }
}
BENCHMARK(BM_CountAnswersCapped)->Arg(0)->Arg(2)->Arg(16);

void BM_PathIndexBuild(benchmark::State& state) {
  const Fixture& f =
      SharedFixture(DatasetProfile::kDBpedia, static_cast<size_t>(4));
  if (!f.ok) {
    state.SkipWithError("no query generated");
    return;
  }
  for (auto _ : state) {
    PathIndex idx(f.gq.query, static_cast<size_t>(state.range(0)));
    benchmark::DoNotOptimize(idx.path_count());
  }
}
BENCHMARK(BM_PathIndexBuild)->Arg(4)->Arg(8)->Arg(16);

void BM_SimulationAnswers(benchmark::State& state) {
  const Fixture& f = SharedFixture(DatasetProfile::kDBpedia,
                                   static_cast<size_t>(state.range(0)));
  if (!f.ok) {
    state.SkipWithError("no query generated");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(SimulationAnswers(f.g, f.gq.query));
  }
}
BENCHMARK(BM_SimulationAnswers)->Arg(2)->Arg(4)->Arg(6);

void BM_PathIndexTest(benchmark::State& state) {
  const Fixture& f =
      SharedFixture(DatasetProfile::kDBpedia, static_cast<size_t>(4));
  if (!f.ok) {
    state.SkipWithError("no query generated");
    return;
  }
  PathIndex idx(f.gq.query, 8);
  MatchContext ctx(f.g);
  PathIndex::Probe probe(idx, ctx, f.gq.query);
  size_t i = 0;
  for (auto _ : state) {
    NodeId v = f.gq.answers[i++ % f.gq.answers.size()];
    benchmark::DoNotOptimize(probe.Passes(v));
  }
}
BENCHMARK(BM_PathIndexTest);

// --- MBS-verification-shaped workload: the tentpole case for the -------
// request-scoped MatchContext. One "request" verifies a sweep of rewrites
// Q ⊕ O of a single Why question's query — exactly what ExactWhy's
// evaluator does per maximal bounded set: a capped guard count plus a
// batched answer test per rewrite. Refinement operators (AddE/AddL/RfL)
// edit one literal each, so the context ANDs the memoized bitmaps of the
// untouched literals with at most one new literal bitmap instead of
// re-evaluating every literal over the label bucket.

struct MbsFixture {
  Graph g;
  Query query;
  std::vector<NodeId> answers;
  std::vector<Query> rewrites;  // the verification sweep
  std::vector<NodeId> probes;   // the "missing entities" answer test
  bool ok = false;
};

const MbsFixture& SharedMbsFixture() {
  static MbsFixture* f = [] {
    auto* fx = new MbsFixture();
    BsbmConfig bc;
    bc.products = 2000;  // ~11k nodes, deterministic
    bc.seed = 9;
    fx->g = GenerateBsbm(bc);
    Rng rng(41);
    QueryGenConfig cfg;
    cfg.edges = 4;
    cfg.literals_per_node = 2;
    cfg.min_answers = 2;
    for (int attempt = 0; attempt < 12 && !fx->ok; ++attempt) {
      std::optional<GeneratedQuery> gq = GenerateQuery(fx->g, cfg, rng);
      if (!gq.has_value()) continue;
      fx->query = gq->query;
      fx->answers = gq->answers;
      fx->ok = true;
    }
    if (!fx->ok) return fx;
    // Rewrite sweep: refinement picky operators for a Why question that
    // asks to drop one unexpected answer, applied singly and in
    // non-conflicting adjacent pairs — the set shapes an MBS enumeration
    // actually verifies.
    AnswerConfig acfg;
    std::vector<NodeId> unexpected(fx->answers.begin(),
                                   fx->answers.begin() + 1);
    std::vector<EditOp> ops =
        GenPickyWhy(fx->g, fx->query, fx->answers, unexpected, acfg);
    if (ops.size() > 48) ops.resize(48);
    for (const EditOp& op : ops) {
      fx->rewrites.push_back(ApplyOperators(fx->query, {op}));
    }
    for (size_t i = 0; i + 1 < ops.size(); i += 2) {
      if (OpsConflict(ops[i], ops[i + 1])) continue;
      fx->rewrites.push_back(
          ApplyOperators(fx->query, {ops[i], ops[i + 1]}));
    }
    // Probes: the original answers (the batched "which answers survive this
    // refinement" test the Why evaluator issues) plus same-label decoys.
    fx->probes = fx->answers;
    whyq::NodeSpan bucket =
        fx->g.NodesWithLabel(fx->query.node(fx->query.output()).label);
    for (size_t i = 0; i < bucket.size() && i < 16; ++i) {
      fx->probes.push_back(bucket[i]);
    }
    fx->ok = !fx->rewrites.empty();
    return fx;
  }();
  return *f;
}

// One full verification sweep; returns the matcher counters.
MatcherStats VerifySweep(const MbsFixture& f, MatchContext& ctx) {
  Matcher m(ctx);
  NodeSet exclude(f.answers, f.g.node_count());
  for (const Query& rw : f.rewrites) {
    benchmark::DoNotOptimize(m.CountAnswersNotIn(rw, exclude, 2));
    benchmark::DoNotOptimize(m.TestAnswers(rw, f.probes));
  }
  return m.stats();
}

void BM_MbsVerificationContext(benchmark::State& state) {
  const MbsFixture& f = SharedMbsFixture();
  if (!f.ok) {
    state.SkipWithError("no fixture");
    return;
  }
  MatcherStats s;
  for (auto _ : state) {
    // Request-scoped: one fresh context per sweep, shared by every rewrite
    // in it — the lifetime the service/evaluators give it.
    MatchContext ctx(f.g);
    s = VerifySweep(f, ctx);
  }
  state.counters["rewrites"] = static_cast<double>(f.rewrites.size());
  state.counters["embeddings_tried"] = static_cast<double>(s.embeddings_tried);
  state.counters["iso_tests"] = static_cast<double>(s.iso_tests);
  uint64_t lookups = s.ctx_hits + s.ctx_misses + s.ctx_delta_builds;
  state.counters["ctx_hit_rate"] =
      lookups == 0 ? 0.0
                   : static_cast<double>(s.ctx_hits) /
                         static_cast<double>(lookups);
  state.counters["ctx_delta_builds"] = static_cast<double>(s.ctx_delta_builds);
  state.counters["ctx_pruned"] = static_cast<double>(s.ctx_pruned);
}
BENCHMARK(BM_MbsVerificationContext);

// RxL variants of the fixture query's nodes: each loosens one literal's
// constant, so none is a refinement of anything memoized.
std::vector<QueryNode> RelaxedVariants(const MbsFixture& f) {
  std::vector<NodeId> missing;
  NodeSpan bucket = f.g.NodesWithLabel(f.query.node(f.query.output()).label);
  for (size_t i = 0; i < bucket.size() && missing.size() < 4; ++i) {
    if (std::find(f.answers.begin(), f.answers.end(), bucket[i]) ==
        f.answers.end()) {
      missing.push_back(bucket[i]);
    }
  }
  std::vector<QueryNode> out;
  for (const EditOp& op : GenPickyWhyNot(f.g, f.query, missing, {})) {
    if (op.kind != OpKind::kRxL) continue;
    out.push_back(ApplyOperators(f.query, {op}).node(op.u));
  }
  return out;
}

// A warmed context (every node of the query memoized) looking up the RxL
// variants: each is a candidate-memo miss, the shape of a why-not guard
// check or relaxed verification. From the second iteration on, the graph's
// literal store holds the variants' bitmaps, as on a served epoch, so the
// misses are delta builds.
void BM_ContextRelaxedMiss(benchmark::State& state) {
  const MbsFixture& f = SharedMbsFixture();
  static const std::vector<QueryNode>* variants =
      new std::vector<QueryNode>(RelaxedVariants(f));
  if (!f.ok || variants->empty()) {
    state.SkipWithError("no fixture");
    return;
  }
  MatchContext::Stats s;
  for (auto _ : state) {
    state.PauseTiming();
    MatchContext ctx(f.g);
    ctx.Prime(f.query);
    ctx.ResetStats();
    state.ResumeTiming();
    for (const QueryNode& qn : *variants) {
      benchmark::DoNotOptimize(ctx.Lookup(qn).size());
    }
    s = ctx.stats();
  }
  state.counters["variants"] = static_cast<double>(variants->size());
  state.counters["ctx_misses"] = static_cast<double>(s.misses);
  state.counters["ctx_delta_builds"] = static_cast<double>(s.delta_builds);
}
BENCHMARK(BM_ContextRelaxedMiss);

// --- Literal bitmaps: one literal over one BSBM-500 label bucket --------
// The inner loop of every candidate-set build: one literal's bitmap from
// the epoch's literal store. Arg `hit` picks the arm. hit:0 asks a fresh
// LiteralStore each iteration, so every iteration is a miss that scans the
// label's typed column (one ctx_literal_scans); hit:1 asks the graph's own
// store, warmed before timing, so every iteration finds the stored bitmap
// (one ctx_literal_hits). Arg `lit`: 0, an int range literal (Offer.price
// <= 3000); 1, a double constant on the same int column (Offer.price <
// 2500.5); 2, a string equality (Product.brand = the first product's
// brand).

const Graph& Bsbm500() {
  static const Graph* g = [] {
    BsbmConfig bc;
    bc.products = 500;
    bc.seed = 58;
    return new Graph(GenerateBsbm(bc));
  }();
  return *g;
}

void BM_LiteralBitmap(benchmark::State& state) {
  const Graph* g = &Bsbm500();
  const Dictionary& labels = g->node_labels();
  const Dictionary& attrs = g->attr_names();
  SymbolId label = kInvalidSymbol;
  Literal lit;
  switch (state.range(1)) {
    case 0:
      label = *labels.Find("Offer");
      lit = Literal{*attrs.Find("price"), CompareOp::kLe,
                    Value(int64_t{3000})};
      break;
    case 1:
      label = *labels.Find("Offer");
      lit = Literal{*attrs.Find("price"), CompareOp::kLt, Value(2500.5)};
      break;
    default: {
      label = *labels.Find("Product");
      SymbolId brand = *attrs.Find("brand");
      lit = Literal{brand, CompareOp::kEq,
                    *g->GetAttr(g->NodesWithLabel(label)[0], brand)};
    }
  }
  const bool hit = state.range(0) == 1;
  Arena overflow;
  bool scanned = false;
  auto ask = [&](LiteralStore& store) {
    return store.Bitmap(*g, label, lit.attr, lit.op, lit.constant, overflow,
                        &scanned);
  };
  // Warms the hit arm; the miss arm's bitmaps die with their stores.
  const uint64_t* bits = ask(g->literal_store());
  for (auto _ : state) {
    if (hit) {
      benchmark::DoNotOptimize(ask(g->literal_store()));
    } else {
      LiteralStore fresh;
      benchmark::DoNotOptimize(ask(fresh));
    }
  }
  if (scanned == hit) state.SkipWithError("the arm did not hit/miss");
  NodeSpan bucket = g->NodesWithLabel(label);
  const size_t span = (bucket[bucket.size() - 1] >> 6) - (bucket[0] >> 6) + 1;
  size_t matched = 0;
  for (size_t w = 0; w < span; ++w) matched += std::popcount(bits[w]);
  state.counters["bucket"] = static_cast<double>(bucket.size());
  state.counters["matched"] = static_cast<double>(matched);
}
BENCHMARK(BM_LiteralBitmap)
    ->ArgsProduct({{0, 1}, {0, 1, 2}})
    ->ArgNames({"hit", "lit"});

// --- Guard admission over a why-not question's relaxations -------------
// The exact why-not search admits each candidate set through
// WhyNotEvaluator::GuardOk: a capped count of the answers outside
// Q(u_o,G) ∪ V_C. Each iteration is one request: a fresh evaluator (and
// with it one context) checks the guard of every RxL/RmL/RmE picky
// operator of a BSBM-500 query, singly and in non-conflicting adjacent
// pairs. iso_tests are the backtracking searches of the same sweep,
// replayed once through a Matcher outside the timed loop.

struct GuardFixture {
  Query query;
  std::vector<NodeId> answers;
  WhyNotQuestion question;
  std::vector<Query> rewrites;
  bool ok = false;
};

const GuardFixture& SharedGuardFixture() {
  static GuardFixture* f = [] {
    auto* fx = new GuardFixture();
    const Graph& g = Bsbm500();
    Rng rng(58);
    QueryGenConfig cfg;
    cfg.edges = 4;
    cfg.literals_per_node = 2;
    cfg.min_answers = 2;
    std::optional<GeneratedQuery> gq = GenerateQuery(g, cfg, rng);
    if (!gq.has_value()) return fx;
    fx->query = gq->query;
    fx->answers = gq->answers;
    const SymbolId label = fx->query.node(fx->query.output()).label;
    for (NodeId v : g.NodesWithLabel(label)) {
      if (fx->question.missing.size() == 4) break;
      if (!std::binary_search(fx->answers.begin(), fx->answers.end(), v)) {
        fx->question.missing.push_back(v);
      }
    }
    std::vector<EditOp> ops =
        GenPickyWhyNot(g, fx->query, fx->question.missing, {});
    for (const EditOp& op : ops) {
      fx->rewrites.push_back(ApplyOperators(fx->query, {op}));
    }
    for (size_t i = 0; i + 1 < ops.size(); i += 2) {
      if (OpsConflict(ops[i], ops[i + 1])) continue;
      fx->rewrites.push_back(
          ApplyOperators(fx->query, {ops[i], ops[i + 1]}));
    }
    fx->ok = !fx->rewrites.empty();
    return fx;
  }();
  return *f;
}

void BM_GuardRelaxationSweep(benchmark::State& state) {
  const GuardFixture& f = SharedGuardFixture();
  if (!f.ok) {
    state.SkipWithError("no fixture");
    return;
  }
  const Graph& g = Bsbm500();
  size_t admitted = 0;
  uint64_t pruned = 0;
  for (auto _ : state) {
    WhyNotEvaluator ev(g, f.answers, f.question, /*guard_m=*/2);
    admitted = 0;
    for (const Query& rw : f.rewrites) admitted += ev.GuardOk(rw) ? 1 : 0;
    pruned = ev.context().stats().pruned;
  }
  WhyNotEvaluator ev(g, f.answers, f.question, /*guard_m=*/2);
  Matcher m(g);
  for (const Query& rw : f.rewrites) {
    m.CountAnswersNotIn(rw, ev.protected_set(), ev.guard_m());
  }
  state.counters["rewrites"] = static_cast<double>(f.rewrites.size());
  state.counters["admitted"] = static_cast<double>(admitted);
  state.counters["iso_tests"] = static_cast<double>(m.stats().iso_tests);
  state.counters["ctx_pruned"] = static_cast<double>(pruned);
}
BENCHMARK(BM_GuardRelaxationSweep);

// --- Cold start: frozen snapshot mmap vs GraphBuilder rebuild -----------
// The snapshot promise (docs/SNAPSHOT_FORMAT.md) is that re-opening a
// built graph costs a header validation plus one checksum pass over the
// image — no sorting, no index construction. The rebuild baseline times
// exactly the work the snapshot skips: repopulating a GraphBuilder from
// pre-extracted rows and running Build() (adjacency sort, dedup, label
// index, attribute ranges). Extraction/IO is hoisted out of both loops.

struct ColdStartFixture {
  std::string path;  // snapshot image of SharedMbsFixture().g
  // Pre-extracted rows of the same graph, ready to feed a GraphBuilder.
  std::vector<std::string> labels;
  std::vector<std::vector<std::pair<std::string, Value>>> attrs;
  std::vector<std::tuple<NodeId, NodeId, std::string>> edges;
  uint64_t image_bytes = 0;
  bool ok = false;
};

const ColdStartFixture& SharedColdStartFixture() {
  static ColdStartFixture* f = [] {
    auto* fx = new ColdStartFixture();
    const MbsFixture& mbs = SharedMbsFixture();
    if (!mbs.ok) return fx;
    const Graph& g = mbs.g;
    fx->path = "/tmp/whyq_micro_matcher_coldstart.whyqsnap";
    std::string err;
    if (!GraphSnapshot::Write(g, fx->path, &err)) return fx;
    GraphSnapshot::Info info;
    if (GraphSnapshot::ReadInfo(fx->path, &info, &err)) {
      fx->image_bytes = info.file_bytes;
    }
    for (NodeId v = 0; v < g.node_count(); ++v) {
      fx->labels.push_back(g.NodeLabelName(g.label(v)));
      auto& row = fx->attrs.emplace_back();
      for (const AttrEntry& e : g.attrs(v)) {
        row.emplace_back(g.AttrName(e.attr), e.value);
      }
      for (const HalfEdge& e : g.out_edges(v)) {
        fx->edges.emplace_back(v, e.other, g.EdgeLabelName(e.label));
      }
    }
    fx->ok = true;
    return fx;
  }();
  return *f;
}

void BM_ColdStartGraphRebuild(benchmark::State& state) {
  const ColdStartFixture& f = SharedColdStartFixture();
  if (!f.ok) {
    state.SkipWithError("no fixture");
    return;
  }
  size_t nodes = 0;
  for (auto _ : state) {
    GraphBuilder b;
    for (size_t v = 0; v < f.labels.size(); ++v) {
      b.AddNode(f.labels[v]);
      for (const auto& [name, value] : f.attrs[v]) {
        b.SetAttr(static_cast<NodeId>(v), name, value);
      }
    }
    for (const auto& [u, v, label] : f.edges) {
      b.AddEdge(u, v, label);
    }
    Graph rebuilt = b.Build();
    nodes = rebuilt.node_count();
    benchmark::DoNotOptimize(rebuilt);
  }
  state.counters["nodes"] = static_cast<double>(nodes);
  state.counters["edges"] = static_cast<double>(f.edges.size());
}
BENCHMARK(BM_ColdStartGraphRebuild);

void BM_ColdStartSnapshotLoad(benchmark::State& state) {
  const ColdStartFixture& f = SharedColdStartFixture();
  if (!f.ok) {
    state.SkipWithError("no fixture");
    return;
  }
  size_t nodes = 0;
  for (auto _ : state) {
    std::string err;
    std::unique_ptr<GraphSnapshot> snap = GraphSnapshot::Load(f.path, &err);
    if (snap == nullptr) {
      state.SkipWithError(("load failed: " + err).c_str());
      return;
    }
    nodes = snap->graph().node_count();
    benchmark::DoNotOptimize(snap);
  }
  state.counters["nodes"] = static_cast<double>(nodes);
  state.counters["image_bytes"] = static_cast<double>(f.image_bytes);
}
BENCHMARK(BM_ColdStartSnapshotLoad);

}  // namespace
}  // namespace whyq

BENCHMARK_MAIN();
