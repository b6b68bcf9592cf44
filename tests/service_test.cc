#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.h"
#include "gen/bsbm.h"
#include "gen/figure1.h"
#include "matcher/matcher.h"
#include "query/query_parser.h"
#include "rewrite/operators.h"
#include "service/prepared.h"
#include "service/request.h"
#include "service/service.h"

namespace whyq {
namespace {

// A response's result, flattened for equality checks across execution modes
// (serial vs pooled, cold vs cached).
std::string ResultKey(const Graph& g, const ServiceResponse& r) {
  std::string key = ResponseStatusName(r.status);
  key += "|" + std::to_string(r.base_answers.size());
  key += "|found=" + std::to_string(r.answer.found);
  key += "|ops=" + DescribeOperators(r.answer.ops, g);
  key += "|cost=" + std::to_string(r.answer.cost);
  key += "|close=" + std::to_string(r.answer.eval.closeness);
  key += "|we=" + std::to_string(r.why_empty.found) + "," +
         std::to_string(r.why_empty.cost) + "," +
         DescribeOperators(r.why_empty.ops, g);
  key += "|wsm=" + std::to_string(r.why_so_many.found) + "," +
         std::to_string(r.why_so_many.before) + "->" +
         std::to_string(r.why_so_many.after) + "," +
         DescribeOperators(r.why_so_many.ops, g);
  return key;
}

class ServiceTest : public testing::Test {
 protected:
  ServiceTest() {
    Figure1 f = MakeFigure1();
    query_text_ = WriteQuery(f.query, f.graph);
    graph_ = std::make_shared<const Graph>(std::move(f.graph));
    a5_ = f.a5;
    s5_ = f.s5;
    s8_ = f.s8;
    s9_ = f.s9;
  }

  ServiceRequest Why(std::vector<NodeId> unexpected) {
    ServiceRequest r;
    r.kind = RequestKind::kWhy;
    r.query_text = query_text_;
    r.entities = std::move(unexpected);
    r.config.guard_m = 0;
    return r;
  }

  ServiceRequest WhyNot(std::vector<NodeId> missing) {
    ServiceRequest r;
    r.kind = RequestKind::kWhyNot;
    r.query_text = query_text_;
    r.entities = std::move(missing);
    r.config.budget = 5.0;
    return r;
  }

  std::shared_ptr<const Graph> graph_;
  std::string query_text_;
  NodeId a5_ = kInvalidNode;
  NodeId s5_ = kInvalidNode;
  NodeId s8_ = kInvalidNode;
  NodeId s9_ = kInvalidNode;
};

TEST_F(ServiceTest, ExecutesAllFourKinds) {
  ServiceConfig sc;
  sc.workers = 2;
  WhyqService service(graph_, sc);

  ServiceRequest why = Why({a5_, s5_});
  why.algo = AlgoChoice::kExact;
  ServiceResponse r1 = service.Execute(why);
  EXPECT_EQ(r1.status, ResponseStatus::kOk);
  EXPECT_EQ(r1.base_answers.size(), 3u);
  EXPECT_TRUE(r1.answer.found);
  EXPECT_FALSE(r1.truncated);

  ServiceRequest whynot = WhyNot({s8_, s9_});
  whynot.algo = AlgoChoice::kExact;
  ServiceResponse r2 = service.Execute(whynot);
  EXPECT_EQ(r2.status, ResponseStatus::kOk);
  EXPECT_TRUE(r2.answer.found);

  ServiceRequest we;
  we.kind = RequestKind::kWhyEmpty;
  we.query_text = query_text_;
  ServiceResponse r3 = service.Execute(we);
  EXPECT_EQ(r3.status, ResponseStatus::kOk);
  EXPECT_TRUE(r3.why_empty.found);
  EXPECT_TRUE(r3.why_empty.ops.empty());  // the query is non-empty already

  ServiceRequest wsm;
  wsm.kind = RequestKind::kWhySoMany;
  wsm.query_text = query_text_;
  wsm.target_k = 1;
  ServiceResponse r4 = service.Execute(wsm);
  EXPECT_EQ(r4.status, ResponseStatus::kOk);
}

TEST_F(ServiceTest, BadRequestsAreReported) {
  WhyqService service(graph_, ServiceConfig{1, 4, 4, 0});

  ServiceRequest bad_parse = Why({a5_});
  bad_parse.query_text = "node a\nedge oops";
  ServiceResponse r1 = service.Execute(bad_parse);
  EXPECT_EQ(r1.status, ResponseStatus::kBadRequest);
  EXPECT_FALSE(r1.error.empty());

  ServiceRequest no_entities = Why({});
  ServiceResponse r2 = service.Execute(no_entities);
  EXPECT_EQ(r2.status, ResponseStatus::kBadRequest);

  ServiceRequest out_of_range = Why({static_cast<NodeId>(1u << 30)});
  ServiceResponse r3 = service.Execute(out_of_range);
  EXPECT_EQ(r3.status, ResponseStatus::kBadRequest);

  StatsSnapshot s = service.Stats();
  EXPECT_EQ(s.bad_requests, 3u);
}

// The determinism invariant the pool must preserve: N workers racing over
// the same mixed workload produce responses identical to serial Execute().
// Run under TSan this doubles as the data-race stress test.
TEST_F(ServiceTest, PooledMatchesSerialByteForByte) {
  std::vector<ServiceRequest> workload;
  for (int i = 0; i < 6; ++i) {
    workload.push_back(Why({a5_, s5_}));
    workload.push_back(WhyNot({s8_, s9_}));
    ServiceRequest we;
    we.kind = RequestKind::kWhyEmpty;
    we.query_text = query_text_;
    workload.push_back(we);
    ServiceRequest wsm;
    wsm.kind = RequestKind::kWhySoMany;
    wsm.query_text = query_text_;
    wsm.target_k = 2;
    workload.push_back(wsm);
  }

  // Serial baseline on a fresh service (fresh cache).
  std::vector<std::string> expected;
  {
    WhyqService serial(graph_, ServiceConfig{1, 64, 8, 0});
    for (const ServiceRequest& req : workload) {
      expected.push_back(ResultKey(*graph_, serial.Execute(req)));
    }
  }

  // Pooled, repeated a few times to give the scheduler room to interleave.
  for (size_t workers : {2u, 4u}) {
    WhyqService pooled(graph_, ServiceConfig{workers, 64, 8, 0});
    std::vector<std::future<ServiceResponse>> futures;
    for (const ServiceRequest& req : workload) {
      std::optional<std::future<ServiceResponse>> f = pooled.Submit(req);
      ASSERT_TRUE(f.has_value());
      futures.push_back(std::move(*f));
    }
    for (size_t i = 0; i < futures.size(); ++i) {
      ServiceResponse r = futures[i].get();
      EXPECT_EQ(ResultKey(*graph_, r), expected[i])
          << "workers=" << workers << " request " << i;
    }
    StatsSnapshot s = pooled.Stats();
    EXPECT_EQ(s.completed, workload.size());
    EXPECT_EQ(s.truncated, 0u);
  }
}

TEST_F(ServiceTest, CacheHitsAndIdenticalResults) {
  WhyqService service(graph_, ServiceConfig{1, 16, 8, 0});
  ServiceRequest req = Why({a5_, s5_});
  ServiceResponse cold = service.Execute(req);
  ServiceResponse warm = service.Execute(req);
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(ResultKey(*graph_, cold), ResultKey(*graph_, warm));
  StatsSnapshot s = service.Stats();
  EXPECT_EQ(s.cache_hits, 1u);
  EXPECT_EQ(s.cache_misses, 1u);
  EXPECT_EQ(service.cache_size(), 1u);
}

TEST_F(ServiceTest, CacheKeyedBySemanticsAndPaths) {
  WhyqService service(graph_, ServiceConfig{1, 16, 8, 0});
  ServiceRequest req = Why({a5_, s5_});
  service.Execute(req);
  ServiceRequest other = req;
  other.config.path_index_paths = 3;  // different artifact: different key
  ServiceResponse r = service.Execute(other);
  EXPECT_FALSE(r.cache_hit);
  EXPECT_EQ(service.cache_size(), 2u);
}

TEST_F(ServiceTest, CacheDisabledWhenCapacityZero) {
  WhyqService service(graph_, ServiceConfig{1, 16, 0, 0});
  ServiceRequest req = Why({a5_, s5_});
  service.Execute(req);
  ServiceResponse r = service.Execute(req);
  EXPECT_FALSE(r.cache_hit);
  EXPECT_EQ(service.cache_size(), 0u);
}

TEST_F(ServiceTest, LruEvictsOldestPreparedQuery) {
  PreparedQueryCache cache(2);
  auto put = [&](const std::string& key) {
    bool complete = true;
    std::optional<Query> q = ParseQuery(query_text_, *graph_, nullptr);
    ASSERT_TRUE(q.has_value());
    cache.Put(key, PrepareQuery(*graph_, std::move(*q),
                                MatchSemantics::kIsomorphism, 4, nullptr,
                                &complete));
  };
  put("a");
  put("b");
  EXPECT_NE(cache.Get("a"), nullptr);  // touch: "b" is now LRU
  put("c");
  EXPECT_EQ(cache.Get("b"), nullptr);
  EXPECT_NE(cache.Get("a"), nullptr);
  EXPECT_NE(cache.Get("c"), nullptr);
}

TEST_F(ServiceTest, BackpressureRejectsWhenQueueFull) {
  // One worker wedged on slow requests + capacity-2 queue: further submits
  // must reject immediately, not block.
  ServiceConfig sc{1, 2, 0, 0};
  auto big = std::make_shared<const Graph>(GenerateBsbm(BsbmConfig{300, 7}));
  WhyqService service(big, sc);
  Query q;
  {
    std::optional<SymbolId> product = big->node_labels().Find("Product");
    std::optional<SymbolId> review = big->node_labels().Find("Review");
    std::optional<SymbolId> rev_of = big->edge_labels().Find("reviewOf");
    ASSERT_TRUE(product && review && rev_of);
    QNodeId p = q.AddNode(*product);
    QNodeId r = q.AddNode(*review);
    q.AddEdge(r, p, *rev_of);
    q.SetOutput(p);
  }
  ServiceRequest req;
  req.kind = RequestKind::kWhySoMany;
  req.query_text = WriteQuery(q, *big);
  req.target_k = 1;
  req.config.budget = 6.0;

  std::vector<std::future<ServiceResponse>> accepted;
  size_t rejections = 0;
  // Keep submitting until the bounded queue pushes back.
  for (int i = 0; i < 64 && rejections == 0; ++i) {
    std::optional<std::future<ServiceResponse>> f = service.Submit(req);
    if (f.has_value()) {
      accepted.push_back(std::move(*f));
    } else {
      ++rejections;
    }
  }
  EXPECT_GT(rejections, 0u);
  for (auto& f : accepted) {
    EXPECT_EQ(f.get().status, ResponseStatus::kOk);
  }
  EXPECT_EQ(service.Stats().rejected, rejections);
}

TEST_F(ServiceTest, SubmitAfterStopResolvesShutdown) {
  WhyqService service(graph_, ServiceConfig{1, 4, 4, 0});
  service.Stop();
  std::optional<std::future<ServiceResponse>> f = service.Submit(Why({a5_}));
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->get().status, ResponseStatus::kShutdown);
}

// The non-blocking admission path the daemon sits on: a full queue returns
// kQueueFull immediately and the callback never fires for rejected
// requests, while every accepted request's callback fires exactly once.
TEST_F(ServiceTest, TrySubmitReportsQueueFullWithoutInvokingCallback) {
  ServiceConfig sc{1, 2, 0, 0};
  auto big = std::make_shared<const Graph>(GenerateBsbm(BsbmConfig{300, 7}));
  WhyqService service(big, sc);
  Query q;
  {
    std::optional<SymbolId> product = big->node_labels().Find("Product");
    std::optional<SymbolId> review = big->node_labels().Find("Review");
    std::optional<SymbolId> rev_of = big->edge_labels().Find("reviewOf");
    ASSERT_TRUE(product && review && rev_of);
    QNodeId p = q.AddNode(*product);
    QNodeId r = q.AddNode(*review);
    q.AddEdge(r, p, *rev_of);
    q.SetOutput(p);
  }
  ServiceRequest req;
  req.kind = RequestKind::kWhySoMany;
  req.query_text = WriteQuery(q, *big);
  req.target_k = 1;
  req.config.budget = 6.0;

  std::atomic<size_t> delivered{0};
  size_t accepted = 0;
  size_t rejections = 0;
  for (int i = 0; i < 64 && rejections == 0; ++i) {
    SubmitResult sr = service.TrySubmit(
        req, [&delivered](ServiceResponse r) {
          EXPECT_EQ(r.status, ResponseStatus::kOk);
          delivered.fetch_add(1);
        });
    if (sr == SubmitResult::kAccepted) {
      ++accepted;
    } else {
      ASSERT_EQ(sr, SubmitResult::kQueueFull);
      ++rejections;
    }
  }
  EXPECT_GT(rejections, 0u);
  EXPECT_GT(accepted, 0u);

  // WaitDrained blocks until every accepted callback has been delivered —
  // the drain gauge the daemon's shutdown path relies on.
  EXPECT_TRUE(service.WaitDrained(60000));
  EXPECT_EQ(delivered.load(), accepted);
  EXPECT_EQ(service.InFlight(), 0u);
  EXPECT_EQ(service.Stats().rejected, rejections);
}

TEST_F(ServiceTest, TrySubmitAfterStopReportsShutdown) {
  WhyqService service(graph_, ServiceConfig{1, 4, 4, 0});
  service.Stop();
  bool fired = false;
  SubmitResult sr =
      service.TrySubmit(Why({a5_}), [&fired](ServiceResponse) {
        fired = true;
      });
  EXPECT_EQ(sr, SubmitResult::kShutdown);
  EXPECT_FALSE(fired);
  EXPECT_EQ(service.InFlight(), 0u);
}

TEST_F(ServiceTest, WaitDrainedIsImmediateWhenIdle) {
  WhyqService service(graph_, ServiceConfig{2, 16, 4, 0});
  EXPECT_EQ(service.InFlight(), 0u);
  EXPECT_TRUE(service.WaitDrained(0));

  // A mixed Submit/TrySubmit load drains to zero.
  std::vector<std::future<ServiceResponse>> futures;
  std::atomic<size_t> delivered{0};
  for (int i = 0; i < 4; ++i) {
    std::optional<std::future<ServiceResponse>> f = service.Submit(Why({a5_}));
    ASSERT_TRUE(f.has_value());
    futures.push_back(std::move(*f));
    ASSERT_EQ(service.TrySubmit(Why({a5_}),
                                [&delivered](ServiceResponse) {
                                  delivered.fetch_add(1);
                                }),
              SubmitResult::kAccepted);
  }
  EXPECT_TRUE(service.WaitDrained(60000));
  EXPECT_EQ(service.InFlight(), 0u);
  EXPECT_EQ(delivered.load(), 4u);
  for (auto& f : futures) {
    EXPECT_EQ(f.get().status, ResponseStatus::kOk);
  }
}

// Deadline behavior on a graph big enough that the full question would take
// far longer than the deadline: the response must come back promptly (the
// worker unwinds cooperatively) and be flagged truncated.
TEST_F(ServiceTest, TightDeadlineTruncatesInsteadOfHanging) {
  auto big = std::make_shared<const Graph>(GenerateBsbm(BsbmConfig{2000, 7}));
  Query q;
  {
    std::optional<SymbolId> product = big->node_labels().Find("Product");
    std::optional<SymbolId> review = big->node_labels().Find("Review");
    std::optional<SymbolId> offer = big->node_labels().Find("Offer");
    std::optional<SymbolId> rev_of = big->edge_labels().Find("reviewOf");
    std::optional<SymbolId> off_of = big->edge_labels().Find("offerOf");
    ASSERT_TRUE(product && review && offer && rev_of && off_of);
    QNodeId p = q.AddNode(*product);
    QNodeId r = q.AddNode(*review);
    QNodeId o = q.AddNode(*offer);
    q.AddEdge(r, p, *rev_of);
    q.AddEdge(o, p, *off_of);
    q.SetOutput(p);
  }
  WhyqService service(big, ServiceConfig{2, 16, 4, 0});

  // Exact Why over this query enumerates maximal bounded sets with an
  // isomorphism verification per set — seconds of work, far past the
  // deadline. The entities must be actual answers; any reviewed+offered
  // product is one.
  Matcher m(*big);
  std::vector<NodeId> answers = m.MatchOutput(q);
  ASSERT_GE(answers.size(), 2u);

  ServiceRequest req;
  req.kind = RequestKind::kWhy;
  req.query_text = WriteQuery(q, *big);
  req.entities = {answers[0], answers[1]};
  req.algo = AlgoChoice::kExact;
  req.config.budget = 8.0;
  req.config.guard_m = 0;
  req.deadline_ms = 15;

  Timer t;
  std::optional<std::future<ServiceResponse>> f = service.Submit(req);
  ASSERT_TRUE(f.has_value());
  ServiceResponse r = f->get();
  double elapsed = t.ElapsedMillis();
  EXPECT_EQ(r.status, ResponseStatus::kOk);
  EXPECT_TRUE(r.truncated);
  // Generous bound: polling granularity + preparation make the response a
  // little late, but nowhere near the seconds the full question takes.
  EXPECT_LT(elapsed, 40 * req.deadline_ms);
  EXPECT_EQ(service.Stats().truncated, 1u);

  // The same question without a deadline (greedy variant, so the test stays
  // fast) completes un-truncated, proving the truncation above came from the
  // deadline, not the workload.
  req.deadline_ms = 0;
  req.algo = AlgoChoice::kAuto;
  ServiceResponse full = service.Execute(req);
  EXPECT_EQ(full.status, ResponseStatus::kOk);
  EXPECT_FALSE(full.truncated);
}

TEST_F(ServiceTest, CancelTokenBasics) {
  CancelToken t;
  EXPECT_FALSE(t.Cancelled());
  EXPECT_FALSE(t.Expired());
  t.SetDeadlineAfterMillis(1e9);
  EXPECT_FALSE(t.Expired());
  EXPECT_GT(t.RemainingMillis(), 0.0);
  t.SetDeadlineAfterMillis(-1.0);  // documented no-op: ms <= 0 disarms none
  EXPECT_FALSE(t.Expired());
  t.SetDeadline(CancelToken::Clock::now());  // already past
  EXPECT_TRUE(t.Expired());
  EXPECT_FALSE(t.Cancelled());  // expiry is not cancellation
  CancelToken c;
  c.Cancel();
  EXPECT_TRUE(c.Cancelled());
  EXPECT_TRUE(c.Expired());
  EXPECT_TRUE(CancelRequested(&c));
  EXPECT_FALSE(CancelRequested(nullptr));
}

// Regression for the frozen-percentile bug: the old implementation kept
// only the first 65536 latency samples per class, so after warmup a latency
// regression never moved min/mean/p95/max. The histogram covers the whole
// stream: a mid-run shift after more than that many samples must show up.
TEST_F(ServiceTest, PercentilesTrackTrafficPastOldSampleBuffer) {
  ServiceStats stats;
  constexpr int kOldBufferSize = 65536;
  for (int i = 0; i < kOldBufferSize + 5000; ++i) {
    stats.RecordReceived();
    stats.RecordCompleted("why/auto", 1.0, false, true);
  }
  EXPECT_NEAR(stats.Snapshot().latency.at("why/auto").p95_ms, 1.0, 0.2);
  // Deliberate mid-run latency shift, entirely past the old buffer.
  for (int i = 0; i < 3 * kOldBufferSize; ++i) {
    stats.RecordReceived();
    stats.RecordCompleted("why/auto", 50.0, false, true);
  }
  const LatencySummary l = stats.Snapshot().latency.at("why/auto");
  EXPECT_GT(l.p95_ms, 40.0);  // old code: frozen at ~1.0
  EXPECT_DOUBLE_EQ(l.max_ms, 50.0);
  EXPECT_DOUBLE_EQ(l.min_ms, 1.0);
  EXPECT_EQ(l.count, static_cast<uint64_t>(4 * kOldBufferSize + 5000));
}

TEST_F(ServiceTest, DegenerateConfigIsClamped) {
  // queue_capacity 0 used to make every Submit reject with no diagnostic;
  // workers 0 would leave accepted futures unresolved forever.
  WhyqService service(graph_, ServiceConfig{0, 0, 4, 0});
  EXPECT_EQ(service.config().workers, 1u);
  EXPECT_EQ(service.config().queue_capacity, 1u);
  std::optional<std::future<ServiceResponse>> f =
      service.Submit(Why({a5_, s5_}));
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->get().status, ResponseStatus::kOk);
}

TEST_F(ServiceTest, ShutdownSubmitsAreCounted) {
  WhyqService service(graph_, ServiceConfig{1, 4, 4, 0});
  ServiceResponse ok = service.Execute(Why({a5_, s5_}));
  EXPECT_EQ(ok.status, ResponseStatus::kOk);
  service.Stop();
  std::optional<std::future<ServiceResponse>> f = service.Submit(Why({a5_}));
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->get().status, ResponseStatus::kShutdown);
  StatsSnapshot s = service.Stats();
  EXPECT_EQ(s.shutdown, 1u);
  // A shutdown-resolved submit is not "received": totals reconcile.
  EXPECT_EQ(s.received, 1u);
  EXPECT_EQ(s.received, s.completed + s.bad_requests);
  EXPECT_EQ(s.completed, s.cache_hits + s.cache_misses);
}

// Exception containment must be identical on the inline and pooled paths:
// both report kBadRequest and count it, neither lets the exception escape
// (a worker-thread escape would std::terminate the process).
TEST_F(ServiceTest, ExecuteContainsFailuresLikeWorkers) {
  WhyqService service(graph_, ServiceConfig{1, 4, 4, 0});
  ServiceRequest bad = Why({a5_});
  bad.query_text = "node a\nedge oops";
  ServiceResponse inline_r = service.Execute(bad);
  std::optional<std::future<ServiceResponse>> f = service.Submit(bad);
  ASSERT_TRUE(f.has_value());
  ServiceResponse pooled_r = f->get();
  EXPECT_EQ(inline_r.status, ResponseStatus::kBadRequest);
  EXPECT_EQ(pooled_r.status, ResponseStatus::kBadRequest);
  EXPECT_EQ(inline_r.error, pooled_r.error);
  StatsSnapshot s = service.Stats();
  EXPECT_EQ(s.bad_requests, 2u);
  EXPECT_EQ(s.received, 2u);
  EXPECT_EQ(s.received, s.completed + s.bad_requests);
}

TEST_F(ServiceTest, TraceDecomposesLatency) {
  WhyqService service(graph_, ServiceConfig{1, 4, 4, 0});
  ServiceRequest req = Why({a5_, s5_});
  ServiceResponse cold = service.Execute(req);
  ASSERT_EQ(cold.status, ResponseStatus::kOk);
  // Stage sum accounts for (nearly) all of the wall clock; timer residue
  // stays within 5% or a small absolute epsilon for tiny latencies.
  double slack = std::max(0.05 * cold.latency_ms, 0.2);
  EXPECT_LE(cold.trace.StagesTotalMs(), cold.latency_ms + slack);
  EXPECT_GE(cold.trace.StagesTotalMs(), cold.latency_ms - slack);
  EXPECT_GT(cold.trace.matcher_candidates, 0u);
  // The prepare sub-stages only run on a miss.
  ServiceResponse warm = service.Execute(req);
  ASSERT_TRUE(warm.cache_hit);
  EXPECT_DOUBLE_EQ(warm.trace.candidates_ms, 0.0);
  EXPECT_DOUBLE_EQ(warm.trace.answer_match_ms, 0.0);
  EXPECT_DOUBLE_EQ(warm.trace.path_index_ms, 0.0);
  EXPECT_EQ(warm.trace.matcher_candidates, cold.trace.matcher_candidates);
  // Greedy why reports its selection rounds.
  EXPECT_GT(warm.trace.greedy_rounds, 0u);
  // The stats roll the traces up.
  StatsSnapshot s = service.Stats();
  EXPECT_GT(s.stages.search_ms, 0.0);
  EXPECT_GT(s.stages.latency_ms, 0.0);
  EXPECT_EQ(s.work.matcher_candidates,
            cold.trace.matcher_candidates + warm.trace.matcher_candidates);
}

TEST_F(ServiceTest, SlowQueryLogRetainsNewestWithTraces) {
  ServiceStats stats;
  stats.ConfigureSlowLog(10.0, 2);
  RequestTrace t;
  t.search_ms = 11.0;
  stats.RecordCompleted("why/auto", 5.0, false, false, t);   // fast: dropped
  stats.RecordCompleted("why/auto", 11.0, false, false, t);  // slow #2
  stats.RecordCompleted("why/auto", 12.0, false, true, t);   // slow #3
  stats.RecordCompleted("why/auto", 13.0, true, false, t);   // slow #4
  StatsSnapshot s = stats.Snapshot();
  EXPECT_DOUBLE_EQ(s.slow_threshold_ms, 10.0);
  ASSERT_EQ(s.slow.size(), 2u);  // bounded: newest two retained
  EXPECT_DOUBLE_EQ(s.slow[0].latency_ms, 12.0);
  EXPECT_DOUBLE_EQ(s.slow[1].latency_ms, 13.0);
  EXPECT_EQ(s.slow[0].seq, 3u);
  EXPECT_TRUE(s.slow[1].truncated);
  EXPECT_DOUBLE_EQ(s.slow[1].trace.search_ms, 11.0);
  EXPECT_NE(s.ToString().find("slow queries"), std::string::npos);
  EXPECT_NE(s.ToJson().find("\"slow_queries\""), std::string::npos);
}

TEST_F(ServiceTest, PreparedCacheCapacityZeroIsInert) {
  PreparedQueryCache cache(0);
  bool complete = true;
  std::optional<Query> q = ParseQuery(query_text_, *graph_, nullptr);
  ASSERT_TRUE(q.has_value());
  cache.Put("k", PrepareQuery(*graph_, std::move(*q),
                              MatchSemantics::kIsomorphism, 4, nullptr,
                              &complete));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Get("k"), nullptr);
}

TEST_F(ServiceTest, PreparedCachePutRefreshesRecency) {
  PreparedQueryCache cache(2);
  auto put = [&](const std::string& key) {
    bool complete = true;
    std::optional<Query> q = ParseQuery(query_text_, *graph_, nullptr);
    ASSERT_TRUE(q.has_value());
    cache.Put(key, PrepareQuery(*graph_, std::move(*q),
                                MatchSemantics::kIsomorphism, 4, nullptr,
                                &complete));
  };
  put("a");
  put("b");
  put("a");  // refresh via Put, not Get: "b" becomes LRU
  put("c");
  EXPECT_EQ(cache.Get("b"), nullptr);
  EXPECT_NE(cache.Get("a"), nullptr);
  EXPECT_NE(cache.Get("c"), nullptr);
  EXPECT_EQ(cache.size(), 2u);
}

// Eviction racing lookups on a capacity-1 cache; run under TSan with the
// rest of the service tests. Entries returned by Get must stay valid after
// eviction (shared_ptr keeps them alive).
TEST_F(ServiceTest, PreparedCacheConcurrentGetPut) {
  PreparedQueryCache cache(1);
  std::optional<Query> base = ParseQuery(query_text_, *graph_, nullptr);
  ASSERT_TRUE(base.has_value());
  bool complete = true;
  std::shared_ptr<const PreparedQuery> value =
      PrepareQuery(*graph_, std::move(*base), MatchSemantics::kIsomorphism,
                   4, nullptr, &complete);
  constexpr int kThreads = 4;
  constexpr int kIters = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        std::string key = "k" + std::to_string((t + i) % 3);
        if (i % 2 == 0) {
          cache.Put(key, value);
        } else {
          std::shared_ptr<const PreparedQuery> got = cache.Get(key);
          if (got != nullptr) {
            EXPECT_EQ(got->answers.size(), value->answers.size());
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_LE(cache.size(), 1u);
}

TEST_F(ServiceTest, StatsSnapshotRendersLatencies) {
  ServiceStats stats;
  stats.RecordReceived();
  stats.RecordCompleted("why/auto", 1.5, false, true);
  stats.RecordReceived();
  stats.RecordCompleted("why/auto", 2.5, true, false);
  StatsSnapshot s = stats.Snapshot();
  EXPECT_EQ(s.received, 2u);
  EXPECT_EQ(s.completed, 2u);
  EXPECT_EQ(s.truncated, 1u);
  EXPECT_EQ(s.cache_hits, 1u);
  ASSERT_EQ(s.latency.count("why/auto"), 1u);
  const LatencySummary& l = s.latency.at("why/auto");
  EXPECT_EQ(l.count, 2u);
  EXPECT_DOUBLE_EQ(l.min_ms, 1.5);
  EXPECT_DOUBLE_EQ(l.max_ms, 2.5);
  EXPECT_DOUBLE_EQ(l.mean_ms, 2.0);
  EXPECT_FALSE(s.ToString().empty());
}

// Golden bytes for both renderings: every field holds a distinct value, so
// a renamed, dropped or reordered counter changes the output.
StatsSnapshot GoldenSnapshot() {
  StatsSnapshot s;
  s.received = 101;
  s.rejected = 102;
  s.shutdown = 103;
  s.completed = 104;
  s.truncated = 105;
  s.bad_requests = 106;
  s.cache_hits = 107;
  s.cache_misses = 108;
  s.updates_applied = 109;
  s.graph_generation = 110;
  s.cache_invalidated = 111;
  s.cache_rekeyed = 112;
  s.plan_store_hits = 113;
  s.plan_store_misses = 114;
  s.plan_store_writes = 115;
  s.plan_store_evictions = 116;
  s.plan_store_invalid = 117;
  LatencySummary l;
  l.count = 3;
  l.min_ms = 0.5;
  l.mean_ms = 1.75;
  l.p50_ms = 1.5;
  l.p95_ms = 2.25;
  l.p99_ms = 2.75;
  l.max_ms = 3.125;
  l.buckets = {{0.5, 1}, {1.5, 2}};
  s.latency["why/auto"] = l;
  l.count = 1;
  l.buckets = {{2.0, 1}};
  s.latency["whynot/\"exact\""] = l;
  s.stages.queue_ms = 1.5;
  s.stages.parse_ms = 2.5;
  s.stages.prepare_ms = 3.5;
  s.stages.candidates_ms = 0.25;
  s.stages.answer_match_ms = 0.375;
  s.stages.path_index_ms = 0.125;
  s.stages.search_ms = 20.0625;
  s.stages.latency_ms = 27.75;
  s.work.matcher_candidates = 201;
  s.work.mbs_enumerated = 202;
  s.work.mbs_verified = 203;
  s.work.guard_checks = 209;
  s.work.greedy_rounds = 204;
  s.work.ctx_hits = 205;
  s.work.ctx_misses = 206;
  s.work.ctx_delta_builds = 207;
  s.work.ctx_pruned = 208;
  s.slow_threshold_ms = 5.5;
  SlowQueryEntry e;
  e.seq = 7;
  e.klass = "why/exact";
  e.latency_ms = 9.25;
  e.truncated = true;
  e.cache_hit = false;
  e.trace.queue_ms = 0.75;
  e.trace.parse_ms = 1.25;
  e.trace.prepare_ms = 2.125;
  e.trace.candidates_ms = 0.0625;
  e.trace.answer_match_ms = 0.1875;
  e.trace.path_index_ms = 0.3125;
  e.trace.search_ms = 4.5;
  e.trace.matcher_candidates = 301;
  e.trace.mbs_enumerated = 302;
  e.trace.mbs_verified = 303;
  e.trace.guard_checks = 309;
  e.trace.greedy_rounds = 304;
  e.trace.ctx_hits = 305;
  e.trace.ctx_misses = 306;
  e.trace.ctx_delta_builds = 307;
  e.trace.ctx_pruned = 308;
  s.slow.push_back(e);
  e.seq = 8;
  e.truncated = false;
  e.cache_hit = true;
  e.trace = RequestTrace();
  s.slow.push_back(e);
  return s;
}

TEST_F(ServiceTest, StatsSnapshotToJsonGoldenBytes) {
  EXPECT_EQ(GoldenSnapshot().ToJson(),
            "{\"counters\":{\"received\":101,\"rejected\":102,"
            "\"shutdown\":103,\"completed\":104,\"truncated\":105,"
            "\"bad_requests\":106,\"cache_hits\":107,"
            "\"cache_misses\":108,\"updates_applied\":109,"
            "\"graph_generation\":110,\"cache_invalidated\":111,"
            "\"cache_rekeyed\":112,\"plan_store_hits\":113,"
            "\"plan_store_misses\":114,\"plan_store_writes\":115,"
            "\"plan_store_evictions\":116,\"plan_store_invalid\":117},"
            "\"latency_ms\":{\"why/auto\":{\"count\":3,\"min\":0.5,"
            "\"mean\":1.75,\"p50\":1.5,\"p95\":2.25,\"p99\":2.75,"
            "\"max\":3.125,\"buckets\":[[0.5,1],[1.5,2]]},"
            "\"whynot/\\\"exact\\\"\":{\"count\":1,\"min\":0.5,"
            "\"mean\":1.75,\"p50\":1.5,\"p95\":2.25,\"p99\":2.75,"
            "\"max\":3.125,\"buckets\":[[2,1]]}},"
            "\"stage_totals_ms\":{\"queue\":1.5,\"parse\":2.5,"
            "\"prepare\":3.5,\"candidates\":0.25,\"answer_match\":0.375,"
            "\"path_index\":0.125,\"search\":20.0625,\"latency\":27.75},"
            "\"work\":{\"matcher_candidates\":201,\"mbs_enumerated\":202,"
            "\"mbs_verified\":203,\"guard_checks\":209,"
            "\"greedy_rounds\":204,\"ctx_hits\":205,"
            "\"ctx_misses\":206,\"ctx_delta_builds\":207,"
            "\"ctx_pruned\":208},\"slow_queries\":{\"threshold_ms\":5.5,"
            "\"entries\":[{\"seq\":7,\"class\":\"why/exact\","
            "\"latency_ms\":9.25,\"truncated\":true,\"cache_hit\":false,"
            "\"stages_ms\":{\"queue\":0.75,\"parse\":1.25,"
            "\"prepare\":2.125,\"candidates\":0.0625,"
            "\"answer_match\":0.1875,\"path_index\":0.3125,"
            "\"search\":4.5,\"latency\":9.25},"
            "\"work\":{\"matcher_candidates\":301,\"mbs_enumerated\":302,"
            "\"mbs_verified\":303,\"guard_checks\":309,"
            "\"greedy_rounds\":304,\"ctx_hits\":305,"
            "\"ctx_misses\":306,\"ctx_delta_builds\":307,"
            "\"ctx_pruned\":308}},{\"seq\":8,\"class\":\"why/exact\","
            "\"latency_ms\":9.25,\"truncated\":false,\"cache_hit\":true,"
            "\"stages_ms\":{\"queue\":0,\"parse\":0,\"prepare\":0,"
            "\"candidates\":0,\"answer_match\":0,\"path_index\":0,"
            "\"search\":0,\"latency\":9.25},"
            "\"work\":{\"matcher_candidates\":0,\"mbs_enumerated\":0,"
            "\"mbs_verified\":0,\"guard_checks\":0,"
            "\"greedy_rounds\":0,\"ctx_hits\":0,"
            "\"ctx_misses\":0,\"ctx_delta_builds\":0,"
            "\"ctx_pruned\":0}}]}}");
}

TEST_F(ServiceTest, StatsSnapshotToStringGoldenBytes) {
  EXPECT_EQ(GoldenSnapshot().ToString(),
            "requests: received=101 rejected=102 completed=104 "
            "truncated=105 bad=106 shutdown=103\n"
            "prepared cache: hits=107 misses=108 (49.8% hit rate)\n"
            "plan store: hits=113 misses=114 writes=115 evictions=116 "
            "invalid=117\n"
            "updates: applied=109 generation=110 cache-invalidated=111 "
            "cache-rekeyed=112\n"
            "  why/auto: n=3 min=0.50ms mean=1.75ms p50=1.50ms "
            "p95=2.25ms p99=2.75ms max=3.12ms\n"
            "  whynot/\"exact\": n=1 min=0.50ms mean=1.75ms p50=1.50ms "
            "p95=2.25ms p99=2.75ms max=3.12ms\n"
            "stage totals: queue=1.5ms parse=2.5ms prepare=3.5ms "
            "(candidates=0.2ms match=0.4ms path-index=0.1ms) "
            "search=20.1ms | latency=27.8ms\n"
            "work totals: candidates=201 mbs-enumerated=202 "
            "mbs-verified=203 greedy-rounds=204\n"
            "ctx totals: hits=205 misses=206 delta-builds=207 pruned=208 "
            "(33.2% hit rate)\n"
            "slow queries (>= 5.5ms): 2 retained\n"
            "  #7 why/exact 9.25ms truncated\n"
            "    stages: queue=0.75ms parse=1.25ms prepare=2.12ms "
            "(candidates=0.06ms match=0.19ms path-index=0.31ms) "
            "search=4.50ms\n"
            "    work: candidates=301 mbs-enumerated=302 "
            "mbs-verified=303 greedy-rounds=304\n"
            "    ctx: hits=305 misses=306 delta-builds=307 pruned=308\n"
            "  #8 why/exact 9.25ms cached\n"
            "    stages: queue=0.00ms parse=0.00ms prepare=0.00ms "
            "search=0.00ms\n"
            "    work: candidates=0 mbs-enumerated=0 mbs-verified=0 "
            "greedy-rounds=0\n"
            "    ctx: hits=0 misses=0 delta-builds=0 pruned=0\n");
}

}  // namespace
}  // namespace whyq
