// Parallel-vs-serial determinism: with an untruncated search, every
// algorithm must return *identical* answers at threads = 4 and threads = 1
// (same operators, rewritten query text, closeness, guard, cost, and even
// sets_verified) — the contract documented in why/why_algorithms.cc. Also
// covers cancellation: a parallel question past its deadline unwinds
// without leaking tasks into the shared pool. Test names carry "Parallel"
// so the CI thread-sanitizer job picks the whole file up.

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/thread_pool.h"
#include "gen/profiles.h"
#include "harness/experiment.h"
#include "matcher/match_engine.h"
#include "matcher/matcher.h"
#include "query/query_parser.h"
#include "rewrite/operators.h"
#include "service/service.h"
#include "why/why_algorithms.h"
#include "why/whynot_algorithms.h"

namespace whyq {
namespace {

std::shared_ptr<const Graph> SweepGraphPtr() {
  static std::shared_ptr<const Graph>* g = new std::shared_ptr<const Graph>(
      std::make_shared<const Graph>(
          GenerateProfile(DatasetProfile::kDBpedia, 2500, 31)));
  return *g;
}

const Graph& SweepGraph() { return *SweepGraphPtr(); }

Workload SweepWorkload(const Graph& g) {
  WorkloadConfig wc;
  wc.items = 2;
  wc.query.edges = 3;
  wc.query.min_answers = 4;
  wc.query.slack = 0.6;
  wc.seed = 77;
  return MakeWorkload(g, wc);
}

AnswerConfig BaseConfig(size_t threads) {
  AnswerConfig cfg;
  cfg.budget = 4.0;
  cfg.guard_m = 2;
  cfg.max_picky_ops = 96;
  // Determinism holds modulo wall-clock truncation; rule it out by using
  // the deterministic emission cap only.
  cfg.exact_time_limit_ms = 0;
  cfg.max_mbs = 20000;
  cfg.threads = threads;
  return cfg;
}

// Everything observable about an answer, flattened for exact comparison.
std::string Fingerprint(const Graph& g, const RewriteAnswer& a) {
  std::string s;
  s += a.found ? "found" : "not-found";
  s += "|ops=" + DescribeOperators(a.ops, g);
  s += "|rw=" + WriteQuery(a.rewritten, g);
  s += "|cl=" + std::to_string(a.eval.closeness);
  s += "|guard=" + std::to_string(a.eval.guard);
  s += "|cost=" + std::to_string(a.cost);
  s += "|est=" + std::to_string(a.estimated_closeness);
  s += "|verified=" + std::to_string(a.sets_verified);
  s += "|picky=" + std::to_string(a.picky_count);
  s += a.exhaustive ? "|exhaustive" : "|truncated";
  return s;
}

TEST(ParallelDeterminismTest, WhyAlgorithmsMatchSerial) {
  const Graph& g = SweepGraph();
  Workload w = SweepWorkload(g);
  ASSERT_FALSE(w.items.empty());
  size_t compared = 0;
  for (const Workload::Item& item : w.items) {
    Matcher m(g);
    std::vector<NodeId> answers = m.MatchOutput(item.gq.query);
    if (answers.empty()) continue;
    WhyQuestion why{{answers[0]}};
    for (auto algo : {&ExactWhy, &ApproxWhy, &IsoWhy}) {
      RewriteAnswer serial =
          algo(g, item.gq.query, answers, why, BaseConfig(1));
      RewriteAnswer parallel =
          algo(g, item.gq.query, answers, why, BaseConfig(4));
      EXPECT_EQ(Fingerprint(g, serial), Fingerprint(g, parallel));
      ++compared;
    }
  }
  EXPECT_GT(compared, 0u);
}

TEST(ParallelDeterminismTest, WhyNotAlgorithmsMatchSerial) {
  const Graph& g = SweepGraph();
  Workload w = SweepWorkload(g);
  ASSERT_FALSE(w.items.empty());
  size_t compared = 0;
  for (const Workload::Item& item : w.items) {
    Matcher m(g);
    std::vector<NodeId> answers = m.MatchOutput(item.gq.query);
    if (answers.empty()) continue;
    for (auto algo : {&ExactWhyNot, &FastWhyNot, &IsoWhyNot}) {
      RewriteAnswer serial =
          algo(g, item.gq.query, answers, item.whynot, BaseConfig(1));
      RewriteAnswer parallel =
          algo(g, item.gq.query, answers, item.whynot, BaseConfig(4));
      EXPECT_EQ(Fingerprint(g, serial), Fingerprint(g, parallel));
      ++compared;
    }
  }
  EXPECT_GT(compared, 0u);
}

// An already-cancelled parallel question must return promptly with a
// truncated answer and leave nothing queued in the shared pool — the
// synchronous-ParallelFor guarantee a deadline-driven service relies on.
TEST(ParallelDeterminismTest, CancelledParallelSearchLeaksNoTasks) {
  const Graph& g = SweepGraph();
  Workload w = SweepWorkload(g);
  ASSERT_FALSE(w.items.empty());
  Matcher m(g);
  std::vector<NodeId> answers = m.MatchOutput(w.items[0].gq.query);
  ASSERT_FALSE(answers.empty());
  CancelToken token;
  token.Cancel();
  AnswerConfig cfg = BaseConfig(4);
  cfg.cancel = &token;
  WhyQuestion why{{answers[0]}};
  RewriteAnswer a = ExactWhy(g, w.items[0].gq.query, answers, why, cfg);
  EXPECT_FALSE(a.exhaustive);
  RewriteAnswer b =
      FastWhyNot(g, w.items[0].gq.query, answers, w.items[0].whynot, cfg);
  EXPECT_FALSE(b.exhaustive);
  for (int i = 0; i < 100 && ThreadPool::Shared().queued_tasks() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(ThreadPool::Shared().queued_tasks(), 0u);
}

// The service's intra_threads knob must not change responses either: the
// synchronous Execute path at intra_threads = 4 matches intra_threads = 1.
TEST(ParallelDeterminismTest, ServiceIntraThreadsKeepsResponsesIdentical) {
  const Graph& g = SweepGraph();
  Workload w = SweepWorkload(g);
  ASSERT_FALSE(w.items.empty());
  std::shared_ptr<const Graph> shared = SweepGraphPtr();

  auto run = [&](size_t intra) {
    ServiceConfig sc;
    sc.workers = 1;
    sc.intra_threads = intra;
    WhyqService service(shared, sc);
    std::vector<std::string> out;
    for (const Workload::Item& item : w.items) {
      Matcher m(g);
      std::vector<NodeId> answers = m.MatchOutput(item.gq.query);
      if (answers.empty()) continue;
      ServiceRequest req;
      req.kind = RequestKind::kWhy;
      req.query_text = WriteQuery(item.gq.query, g);
      req.entities = {answers[0]};
      req.config = BaseConfig(0);  // 0: let the service decide
      ServiceResponse r = service.Execute(req);
      EXPECT_EQ(r.status, ResponseStatus::kOk);
      out.push_back(Fingerprint(g, r.answer));
    }
    return out;
  };
  EXPECT_EQ(run(1), run(4));
}

// Concurrent per-worker MatchContexts over one shared Graph: each thread
// owns its own context (the documented confinement contract) while all of
// them read the same label-partitioned adjacency concurrently. Every
// thread's answers, over a context reused across rounds, must equal the
// serial baseline over a fresh context per call; run under the CI
// thread-sanitizer job, this also proves the Graph's slice arrays are
// genuinely immutable shared state.
TEST(ParallelDeterminismTest, PerWorkerContextsMatchFreshContext) {
  const Graph& g = SweepGraph();
  Workload w = SweepWorkload(g);
  ASSERT_FALSE(w.items.empty());
  const Query& q = w.items[0].gq.query;

  std::vector<NodeId> baseline = Matcher(g).MatchOutput(q);
  std::vector<NodeId> probes = baseline;
  for (NodeId v = 0; v < 16 && v < g.node_count(); ++v) probes.push_back(v);
  std::vector<uint8_t> baseline_tested = Matcher(g).TestAnswers(q, probes);

  constexpr int kThreads = 4;
  std::vector<int> ok(kThreads, 0);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      MatchContext ctx(g);  // thread-confined memo
      Matcher m(ctx);
      bool good = true;
      for (int round = 0; round < 3; ++round) {
        good = good && m.MatchOutput(q) == baseline;
        good = good && m.TestAnswers(q, probes) == baseline_tested;
      }
      ok[t] = good ? 1 : 0;
    });
  }
  for (std::thread& th : workers) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(ok[t], 1) << "thread " << t;
}

}  // namespace
}  // namespace whyq
