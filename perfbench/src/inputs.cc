// Input generation and loading. Everything a run measures is a pure
// function of (workload, seed, seconds): the graph, the queries, the
// questions, the update batches and the operation order. Generation runs in
// its own process, so neither set-up time nor peak RSS of the measured run
// includes it.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <tuple>

#include "bench.h"

namespace perfbench {
namespace {

using whyq::AnswerConfig;
using whyq::Graph;
using whyq::Rng;
using whyq::UpdateBatch;
using whyq::UpdateOp;

// Workload sizes. The per-second rates set how much fixed work a run of
// `--seconds` carries; they were calibrated on a 4-core host so a run's
// timed phase lasts about `--seconds`, but the work itself never depends on
// how fast the host is. The question graph is small because question cost
// grows with candidate-set size: on BSBM-2000 single isomorphism questions
// took up to 25 s (NOTES.md, "Noise findings").
constexpr size_t kQuestionProducts = 500;      // interactive and exact graph
constexpr double kInteractiveItemsPerSecond = 6.5;   // 1 why + 6 why-not
constexpr double kExactItemsPerSecond = 48.0;        // 1 why + 2 why-not
constexpr size_t kChurnProducts = 4000;        // heap-resident, updatable
constexpr double kChurnUpdatesPerSecond = 36.0;
// With 100 reads per update, updates took half of the time and their page
// faults and plan-file writes moved CPU per operation 25 % between runs.
constexpr size_t kChurnReadsPerUpdate = 400;
constexpr size_t kChurnScanEvery = 8;          // 1 read in 8 is a scan read
constexpr size_t kChurnIntersectEvery = 4;     // 1 batch in 4 intersects
constexpr size_t kChurnDisjointOps = 6;
constexpr size_t kGenThreads = 4;
constexpr uint64_t kGraphSeed = 7;
constexpr uint64_t kPoolSeed = 7;  // the fixed query pool
constexpr size_t kItemAttempts = 50;
// Queries with a symmetric star of this many leaves are not generated; see
// NOTES.md "Noise findings" for the cost that excluded them.
constexpr size_t kMaxSameLeaves = 3;

// The paper's default question shape (Section VI): |E_Q| = 4, two literals
// per node, |V_N| = |V_C| = 3, tree topology.
whyq::WorkloadConfig QuestionShape() {
  whyq::WorkloadConfig w;
  w.query.edges = 4;
  w.query.literals_per_node = 2;
  w.query.slack = 0.6;
  w.query.min_answers = 8;
  w.query.max_answers = 40;
  w.why_size = 3;
  w.whynot_size = 3;
  return w;
}

size_t Scaled(double per_second, double seconds) {
  return std::max<size_t>(2, static_cast<size_t>(per_second * seconds + 0.5));
}

// True when some query node has `limit` or more neighbours reached through
// the same edge label and direction and carrying the same node label: a
// symmetric star, whose leaves an injective matcher must try in every
// order.
bool HasSymmetricStar(const whyq::Query& q, size_t limit) {
  std::map<std::tuple<whyq::QNodeId, whyq::SymbolId, bool, whyq::SymbolId>,
           size_t>
      leaves;
  for (const whyq::QueryEdge& e : q.edges()) {
    size_t out = ++leaves[{e.src, e.label, true, q.node(e.dst).label}];
    size_t in = ++leaves[{e.dst, e.label, false, q.node(e.src).label}];
    if (out >= limit || in >= limit) return true;
  }
  return false;
}

// One generated question item: a query with a why and a why-not question.
// The query is the k-th of a fixed pool (drawn from Rng(kPoolSeed, k)); the
// seed draws the questions (V_N, V_C) asked about it, as a benchmark with
// fixed query templates draws its parameters. Drawing the queries from the
// seed as well moved the why-class IQM by 25 % between seeds: a run's few
// hundred queries differ in their mix of output labels (76 vs 98 Offer
// queries of 320), and question cost depends mostly on the query.
// MakeWorkload is not used because it loosens slack and literals after
// repeated failures, so its query shape drifts too.
std::optional<whyq::Workload::Item> MakeItem(const Graph& g, uint64_t seed,
                                             size_t k) {
  Rng query_rng(kPoolSeed * 1000003 + k);
  Rng rng(seed * 1000003 + k);
  whyq::WorkloadConfig shape = QuestionShape();
  for (size_t attempt = 0; attempt < kItemAttempts; ++attempt) {
    std::optional<whyq::GeneratedQuery> gq =
        whyq::GenerateQuery(g, shape.query, query_rng);
    if (!gq.has_value() || HasSymmetricStar(gq->query, kMaxSameLeaves)) {
      continue;
    }
    whyq::Workload::Item item;
    item.why = whyq::GenerateWhyQuestion(*gq, shape.why_size, rng);
    std::optional<whyq::WhyNotQuestion> wn = whyq::GenerateWhyNotQuestion(
        g, *gq, shape.whynot_size, 0, rng);
    if (item.why.unexpected.empty() || !wn.has_value() ||
        wn->missing.empty()) {
      return std::nullopt;
    }
    item.whynot = std::move(*wn);
    item.gq = std::move(*gq);
    return item;
  }
  return std::nullopt;
}

// `items` items with distinct queries, generated on kGenThreads threads.
std::vector<whyq::Workload::Item> MakeItems(const Graph& g, size_t items,
                                            uint64_t seed) {
  // Candidates beyond `items` absorb failures and duplicate queries.
  const size_t candidates = items + items / 4 + 8;
  std::vector<std::optional<whyq::Workload::Item>> made(candidates);
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kGenThreads; ++t) {
    threads.emplace_back([&] {
      for (size_t k = next++; k < candidates; k = next++) {
        made[k] = MakeItem(g, seed, k);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<whyq::Workload::Item> out;
  std::set<std::string> seen;
  for (std::optional<whyq::Workload::Item>& item : made) {
    if (out.size() == items) break;
    if (!item.has_value()) continue;
    if (!seen.insert(whyq::WriteQuery(item->gq.query, g)).second) continue;
    out.push_back(std::move(*item));
  }
  return out;
}

void WriteLines(std::ostream& os, const std::string& head,
                const std::string& body) {
  size_t lines =
      static_cast<size_t>(std::count(body.begin(), body.end(), '\n'));
  os << head << " " << lines << "\n" << body;
}

void WriteOp(std::ostream& os, const Op& op) {
  os << "op " << OpKindName(op.kind) << " "
     << (op.kind == Op::kUpdate ? op.batch : op.query);
  for (NodeId v : op.entities) os << " " << v;
  os << "\n";
}

// A batch that provably misses every hot query: new nodes under a
// benchmark-only label, an attribute on each and a chain edge between them.
// Node ids continue from `*next_node`, the node count the batch will see;
// chain edges only link benchmark nodes (ids >= `first`).
UpdateBatch DisjointBatch(NodeId first, NodeId* next_node, size_t seq) {
  UpdateBatch b;
  NodeId prev = whyq::kInvalidNode;
  for (size_t i = 0; i < kChurnDisjointOps; ++i) {
    switch (i % 3) {
      case 0:
        b.ops.push_back(UpdateOp::AddNode("BenchNode"));
        prev = (*next_node)++;
        break;
      case 1:
        b.ops.push_back(UpdateOp::SetAttr(
            prev, "bench_heat", whyq::Value(static_cast<int64_t>(seq))));
        break;
      default:
        if (prev > first) {
          b.ops.push_back(UpdateOp::AddEdge(prev, prev - 1, "bench_link"));
        } else {
          b.ops.push_back(UpdateOp::SetAttr(
              prev, "bench_cold", whyq::Value(static_cast<int64_t>(seq))));
        }
        break;
    }
  }
  return b;
}

// A batch inside hot query `gq`'s footprint: two nodes carrying the label of
// a literal-bearing query node get that literal's attribute overwritten with
// a value copied from another node of the label. The cache must drop the
// query's prepared entry, and the answer count may change.
UpdateBatch IntersectingBatch(const Graph& g, const whyq::GeneratedQuery& gq,
                              Rng& rng) {
  const whyq::Query& q = gq.query;
  std::vector<std::pair<whyq::SymbolId, whyq::SymbolId>> slots;  // label,attr
  for (whyq::QNodeId u = 0; u < q.node_count(); ++u) {
    for (const whyq::Literal& lit : q.node(u).literals) {
      slots.emplace_back(q.node(u).label, lit.attr);
    }
  }
  UpdateBatch b;
  if (slots.empty()) return b;
  auto [label, attr] = slots[rng.Index(slots.size())];
  whyq::NodeSpan nodes = g.NodesWithLabel(label);
  for (int i = 0; i < 2; ++i) {
    NodeId target = nodes[rng.Index(nodes.size())];
    NodeId donor = nodes[rng.Index(nodes.size())];
    const whyq::Value* v = g.GetAttr(donor, attr);
    if (v == nullptr) continue;
    b.ops.push_back(UpdateOp::SetAttr(target, g.AttrName(attr), *v));
  }
  return b;
}

bool GenerateQuestions(const std::string& workload, uint64_t seed,
                       double seconds, std::ostream& os, const Graph& g) {
  const bool exact = workload == "exact";
  size_t items = exact ? Scaled(kExactItemsPerSecond, seconds)
                       : Scaled(kInteractiveItemsPerSecond, seconds);
  // Why-not questions cost a fraction of why questions and their latency is
  // bimodal, so each query carries several for a steady why-not IQM. With
  // three per interactive query, the normalised why-not IQM still spread
  // 0.107 over ten seeds, and one slow seed repeated its value.
  const size_t whynots_per_query = exact ? 2 : 6;
  std::vector<whyq::Workload::Item> made = MakeItems(g, items, seed);
  if (made.size() < items) return false;
  const AnswerConfig cfg = exact ? ExactConfig() : InteractiveConfig();
  std::vector<Op> ops;
  for (size_t i = 0; i < made.size(); ++i) {
    const whyq::Workload::Item& item = made[i];
    WriteLines(os, "query", whyq::WriteQuery(item.gq.query, g));
    ops.push_back({Op::kWhy, i, item.why.unexpected, 0});
    // Generation samples V_C outside the isomorphism answer; under
    // simulation the answer can be larger, so V_C keeps only non-answers.
    std::vector<NodeId> answers = AnswerSet(g, item.gq.query, cfg.semantics);
    Rng rng((seed * 1000003 + i) ^ 0x9e3779b97f4a7c15ULL);
    for (size_t k = 0; k < whynots_per_query; ++k) {
      std::optional<whyq::WhyNotQuestion> w =
          k == 0 ? std::optional<whyq::WhyNotQuestion>(item.whynot)
                 : whyq::GenerateWhyNotQuestion(g, item.gq, 3, 0, rng);
      if (!w.has_value()) continue;
      std::vector<NodeId> missing;
      for (NodeId v : w->missing) {
        if (!std::binary_search(answers.begin(), answers.end(), v)) {
          missing.push_back(v);
        }
      }
      if (!missing.empty()) ops.push_back({Op::kWhyNot, i, missing, 0});
    }
  }
  for (const Op& op : ops) WriteOp(os, op);
  return true;
}

// Churn: reads of hot and scanned queries with an update batch after every
// kChurnReadsPerUpdate reads. Hot reads pick one of the first
// kChurnHotQueries queries at random and stay cache-resident; every
// kChurnScanEvery-th read is the next query of a cyclic scan over the other
// kChurnScanQueries, more than the prepared cache keeps beside the hot set,
// so scanned reads miss the cache. Their plans load from the store: each
// is saved when its query is prepared, and restamped by an update that
// lands while the query is cached, so only the first read after an update
// of a query that was not cached prepares it again. All reads are
// why-so-many questions whose target is already met: the search is trivial.
bool GenerateChurn(uint64_t seed, double seconds, std::ostream& os,
                   const Graph& g) {
  Rng rng(seed);
  Rng query_rng(kPoolSeed);  // the queries come from the fixed pool
  whyq::QueryGenConfig qc;
  qc.edges = 4;
  qc.literals_per_node = 2;
  qc.slack = 0.6;
  qc.min_answers = 8;
  qc.max_answers = 1000;
  const size_t wanted = kChurnHotQueries + kChurnScanQueries;
  std::vector<whyq::GeneratedQuery> pool;
  std::set<std::string> seen;
  for (size_t attempt = 0; pool.size() < wanted && attempt < 16 * wanted;
       ++attempt) {
    std::optional<whyq::GeneratedQuery> gq =
        whyq::GenerateQuery(g, qc, query_rng);
    if (!gq.has_value() || HasSymmetricStar(gq->query, kMaxSameLeaves)) {
      continue;
    }
    if (!seen.insert(whyq::WriteQuery(gq->query, g)).second) continue;
    pool.push_back(std::move(*gq));
  }
  if (pool.size() < wanted) return false;
  for (const whyq::GeneratedQuery& gq : pool) {
    WriteLines(os, "query", whyq::WriteQuery(gq.query, g));
  }

  size_t updates = Scaled(kChurnUpdatesPerSecond, seconds);
  const NodeId first = static_cast<NodeId>(g.node_count());
  NodeId next_node = first;
  size_t scan = 0;
  std::vector<Op> ops;
  for (size_t u = 0; u < updates; ++u) {
    for (size_t r = 1; r <= kChurnReadsPerUpdate; ++r) {
      size_t q = r % kChurnScanEvery == 0
                     ? kChurnHotQueries + scan++ % kChurnScanQueries
                     : rng.Index(kChurnHotQueries);
      ops.push_back({Op::kRead, q, {}, 0});
    }
    bool intersects = u % kChurnIntersectEvery == kChurnIntersectEvery - 1;
    UpdateBatch b =
        intersects
            ? IntersectingBatch(g, pool[rng.Index(kChurnHotQueries)], rng)
            : DisjointBatch(first, &next_node, u);
    if (b.empty()) return false;
    std::ostringstream body;
    whyq::WriteUpdateBatch(b, body);
    WriteLines(os, intersects ? "batch 1" : "batch 0", body.str());
    ops.push_back({Op::kUpdate, 0, {}, u});
  }
  for (const Op& op : ops) WriteOp(os, op);
  return true;
}

}  // namespace

const char* OpKindName(Op::Kind k) {
  switch (k) {
    case Op::kWhy:
      return "why";
    case Op::kWhyNot:
      return "whynot";
    case Op::kRead:
      return "read";
    case Op::kUpdate:
      return "update";
  }
  return "?";
}

AnswerConfig ChurnConfig() {
  AnswerConfig cfg;  // paper defaults: B = 4, m = 2, isomorphism
  cfg.budget = 4.0;
  cfg.guard_m = 2;
  return cfg;
}

AnswerConfig InteractiveConfig() {
  // Simulation semantics: polynomial matching keeps the question cost
  // bounded. Under isomorphism a symmetric star query (four Reviews of one
  // Person) took 22 s in ApproxWhy against a 100 ms median, and the wire
  // protocol offers no picky-set cap to bound it.
  AnswerConfig cfg = ChurnConfig();
  cfg.semantics = whyq::MatchSemantics::kSimulation;
  return cfg;
}

AnswerConfig ExactConfig() {
  AnswerConfig cfg = ChurnConfig();
  // Count caps only, no time limit: a truncated question does the same work
  // on every host. The caps bound the isomorphism blow-ups that otherwise
  // dominate a run (see NOTES.md).
  cfg.max_mbs = 32;
  cfg.max_picky_ops = 24;
  cfg.est_guard_scan = 200;
  cfg.exact_time_limit_ms = 0;
  return cfg;
}

bool GenerateInputs(const std::string& workload, uint64_t seed,
                    double seconds, const std::string& dir,
                    std::string* error) {
  if (workload != "interactive" && workload != "exact" &&
      workload != "churn") {
    *error = "unknown workload '" + workload + "'";
    return false;
  }
  std::filesystem::create_directories(dir);
  // The dataset is fixed, like a benchmark database at a stated scale; the
  // seed draws the queries, questions and batches. With the graph drawn from
  // the seed too, the why-class IQM moved 20 % between seeds.
  whyq::BsbmConfig bc;
  bc.products = workload == "churn" ? kChurnProducts : kQuestionProducts;
  bc.seed = kGraphSeed;
  Graph g = whyq::GenerateBsbm(bc);
  if (!whyq::WriteGraphToFile(g, dir + "/graph.tsv")) {
    *error = "cannot write " + dir + "/graph.tsv";
    return false;
  }
  std::ostringstream os;
  os << "workload " << workload << "\nseed " << seed << "\nseconds "
     << seconds << "\n";
  bool ok = workload == "churn"
                ? GenerateChurn(seed, seconds, os, g)
                : GenerateQuestions(workload, seed, seconds, os, g);
  if (!ok) {
    *error = "could not generate enough " + workload + " inputs for seed " +
             std::to_string(seed);
    return false;
  }
  std::ofstream out(dir + "/workload.txt");
  out << os.str();
  if (!out) {
    *error = "cannot write " + dir + "/workload.txt";
    return false;
  }
  return true;
}

bool LoadInputs(const std::string& dir, Inputs* in, std::string* error) {
  std::ifstream is(dir + "/workload.txt");
  if (!is) {
    *error = "cannot read " + dir + "/workload.txt";
    return false;
  }
  in->graph_path = dir + "/graph.tsv";
  auto read_body = [&](size_t lines) {
    std::string body, line;
    for (size_t i = 0; i < lines && std::getline(is, line); ++i) {
      body += line + "\n";
    }
    return body;
  };
  std::string line;
  while (std::getline(is, line)) {
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "workload") {
      ls >> in->workload;
    } else if (key == "seed") {
      ls >> in->seed;
    } else if (key == "seconds") {
      ls >> in->seconds;
    } else if (key == "query") {
      size_t n = 0;
      ls >> n;
      in->queries.push_back(read_body(n));
    } else if (key == "batch") {
      int intersects = 0;
      size_t n = 0;
      ls >> intersects >> n;
      std::istringstream body(read_body(n));
      std::optional<UpdateBatch> b = whyq::ReadUpdateBatch(body, error);
      if (!b.has_value()) return false;
      in->batches.push_back(std::move(*b));
      in->batch_intersects.push_back(intersects != 0);
    } else if (key == "op") {
      std::string kind;
      size_t index = 0;
      ls >> kind >> index;
      Op op;
      if (kind == "why") {
        op.kind = Op::kWhy;
      } else if (kind == "whynot") {
        op.kind = Op::kWhyNot;
      } else if (kind == "read") {
        op.kind = Op::kRead;
      } else if (kind == "update") {
        op.kind = Op::kUpdate;
      } else {
        *error = "bad op line: " + line;
        return false;
      }
      (op.kind == Op::kUpdate ? op.batch : op.query) = index;
      NodeId v = 0;
      while (ls >> v) op.entities.push_back(v);
      in->ops.push_back(std::move(op));
    } else if (!key.empty()) {
      *error = "bad line in workload.txt: " + line;
      return false;
    }
  }
  for (const Op& op : in->ops) {
    if (op.kind == Op::kUpdate ? op.batch >= in->batches.size()
                               : op.query >= in->queries.size()) {
      *error = "op refers past the generated queries/batches";
      return false;
    }
  }
  if (in->ops.empty()) {
    *error = "workload.txt holds no operations";
    return false;
  }
  return true;
}

}  // namespace perfbench
