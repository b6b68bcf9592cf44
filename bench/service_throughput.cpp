// Throughput/scaling driver for the explanation service (DESIGN.md
// "Serving architecture"):
//   part a: requests/sec of one shared WhyqService at 1/2/4/8 workers over
//           a mixed why/whynot workload (same batch each row).
//   part b: prepared-question cache on vs off — repeated questions over a
//           small query pool amortize the MatchOutput + PathIndex build.
//   part c: fixed core budget of 8 split between inter-question workers and
//           intra-question threads (ServiceConfig::intra_threads) — where
//           should a deployment spend its cores?
//   part d: the same service behind the whyq_server socket daemon —
//           closed-loop clients over loopback TCP, req/s at saturation
//           (clients == workers) and at 2x overload against a small
//           admission queue, where rejected-with-retry_after_ms responses
//           shed the excess instead of queueing it.
//   part e: incremental updates — Graph::ApplyUpdate vs the full-rebuild
//           reference across batch sizes, then update/read interference:
//           closed-loop readers with and without a concurrent writer
//           publishing epochs through WhyqService::ApplyUpdate.
//   part f: persistent plan store across restarts — per-query store-load
//           vs PrepareQuery cost, then a simulated cold restart (fresh
//           service, warm vs absent store): time-to-first-hit and p95
//           over the first request round.
//
// EXPERIMENTS.md records the shapes: >1x scaling 1 -> 4 workers, a
// visible cache-hit speedup, overload shedding via admission control,
// incremental beating rebuild on small batches, and a store-warmed
// restart reaching steady-state cache-hit latency on its first request.

#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <future>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "common/net.h"
#include "graph/update.h"
#include "server/json.h"
#include "server/limits.h"
#include "server/server.h"
#include "service/plan.h"

namespace whyq::bench {
namespace {

std::vector<ServiceRequest> BuildRequests(const Graph& g, const Workload& w,
                                          size_t rounds) {
  std::vector<ServiceRequest> reqs;
  for (size_t r = 0; r < rounds; ++r) {
    for (const Workload::Item& item : w.items) {
      ServiceRequest why;
      why.kind = RequestKind::kWhy;
      why.query_text = WriteQuery(item.gq.query, g);
      why.entities = item.why.unexpected;
      why.config = DefaultAnswerConfig();
      reqs.push_back(why);

      ServiceRequest whynot = why;
      whynot.kind = RequestKind::kWhyNot;
      whynot.entities = item.whynot.missing;
      whynot.condition = item.whynot.condition;
      reqs.push_back(whynot);
    }
  }
  return reqs;
}

// Submits every request (spinning on backpressure), waits for all
// responses, and returns the wall-clock milliseconds for the whole batch.
double RunBatch(WhyqService* service,
                const std::vector<ServiceRequest>& reqs) {
  Timer timer;
  std::vector<std::future<ServiceResponse>> futures;
  futures.reserve(reqs.size());
  for (const ServiceRequest& req : reqs) {
    for (;;) {
      std::optional<std::future<ServiceResponse>> f = service->Submit(req);
      if (f.has_value()) {
        futures.push_back(std::move(*f));
        break;
      }
      std::this_thread::yield();
    }
  }
  for (auto& f : futures) f.get();
  return timer.ElapsedMillis();
}

void PartScaling(const std::shared_ptr<const Graph>& graph,
                 const std::vector<ServiceRequest>& reqs) {
  TextTable t({"workers", "batch_ms", "req_per_s", "speedup_vs_1", "hits",
               "why_p95_ms", "whynot_p95_ms"});
  // Per-class streaming-histogram p95 (whole batch, not a sample): shows
  // tail latency growing with queueing as the worker count shrinks.
  auto p95 = [](const StatsSnapshot& s, const char* klass) {
    auto it = s.latency.find(klass);
    if (it == s.latency.end() || it->second.count == 0) return std::string("-");
    return TextTable::Num(it->second.p95_ms, 2);
  };
  double base_ms = 0.0;
  for (size_t workers : {1u, 2u, 4u, 8u}) {
    ServiceConfig sc;
    sc.workers = workers;
    sc.queue_capacity = 64;
    sc.cache_capacity = 64;
    WhyqService service(graph, sc);
    double ms = RunBatch(&service, reqs);
    if (workers == 1) base_ms = ms;
    StatsSnapshot s = service.Stats();
    t.AddRow({std::to_string(workers), TextTable::Num(ms, 1),
              TextTable::Num(1000.0 * static_cast<double>(reqs.size()) / ms,
                             1),
              TextTable::Num(base_ms / ms), std::to_string(s.cache_hits),
              p95(s, "why/auto"), p95(s, "whynot/auto")});
  }
  std::printf(
      "%s\n",
      t.ToString("Part a: worker scaling (shared graph, mixed why/whynot)")
          .c_str());
}

// Per-request latency of a repeated question, cache off vs on. The cache
// amortizes the per-request *fixed* cost — the MatchOutput answer scan and
// the PathIndex build — so the probe is a question whose search phase is
// trivial (why-so-many already at its target): cold requests pay the full
// answer match, warm requests reuse the prepared artifacts.
void PartCache(const std::shared_ptr<const Graph>& graph,
               const Workload& w) {
  ServiceRequest req;
  req.kind = RequestKind::kWhySoMany;
  req.query_text = WriteQuery(w.items[0].gq.query, *graph);
  req.target_k = graph->node_count();  // already satisfied
  req.config = DefaultAnswerConfig();

  constexpr int kReps = 10;
  TextTable t({"cache", "mean_ms", "hits", "misses"});
  double mean[2] = {0.0, 0.0};
  int row = 0;
  for (size_t capacity : {0u, 64u}) {
    ServiceConfig sc;
    sc.workers = 1;
    sc.cache_capacity = capacity;
    WhyqService service(graph, sc);
    service.Execute(req);  // warmup (cold miss; populates the cache if on)
    Timer timer;
    for (int i = 0; i < kReps; ++i) service.Execute(req);
    mean[row] = timer.ElapsedMillis() / kReps;
    StatsSnapshot s = service.Stats();
    t.AddRow({capacity == 0 ? "off" : "on", TextTable::Num(mean[row], 2),
              std::to_string(s.cache_hits),
              std::to_string(s.cache_misses)});
    ++row;
  }
  std::printf(
      "%s",
      t.ToString("Part b: prepared-question cache (repeated question)")
          .c_str());
  std::printf("cache-hit speedup: %.2fx\n\n",
              mean[1] > 0 ? mean[0] / mean[1] : 0.0);
}

// Same batch, same 8-core budget, different split. Requests leave
// AnswerConfig::threads at 0 so each service substitutes its own
// intra_threads; throughput favors many workers (no fork/join overhead,
// per-question work is embarrassingly independent) while wide intra
// helps tail latency of single heavy questions — the table makes the
// throughput side of that trade-off concrete.
void PartCoreBudget(const std::shared_ptr<const Graph>& graph,
                    const std::vector<ServiceRequest>& reqs) {
  TextTable t({"workers", "intra_threads", "batch_ms", "req_per_s",
               "speedup_vs_8x1"});
  double base_ms = 0.0;
  for (auto [workers, intra] :
       {std::pair<size_t, size_t>{8, 1}, {4, 2}, {2, 4}, {1, 8}}) {
    ServiceConfig sc;
    sc.workers = workers;
    sc.intra_threads = intra;
    sc.queue_capacity = 64;
    sc.cache_capacity = 64;
    WhyqService service(graph, sc);
    double ms = RunBatch(&service, reqs);
    if (workers == 8) base_ms = ms;
    t.AddRow({std::to_string(workers), std::to_string(intra),
              TextTable::Num(ms, 1),
              TextTable::Num(1000.0 * static_cast<double>(reqs.size()) / ms,
                             1),
              TextTable::Num(base_ms / ms)});
  }
  std::printf(
      "%s\n",
      t.ToString("Part c: fixed 8-core budget, workers x intra_threads")
          .c_str());
}

// Encodes a request as one wire line. The why-not condition cannot travel
// over the wire (the protocol has no condition field); part d's load uses
// the entity lists alone, which is what a network client could offer.
std::string WireLine(const ServiceRequest& r) {
  std::string line = "{\"question\":\"";
  line += r.kind == RequestKind::kWhy ? "why" : "whynot";
  line += "\",\"query\":\"" + server::JsonEscape(r.query_text) + "\"";
  line += ",\"entities\":[";
  for (size_t i = 0; i < r.entities.size(); ++i) {
    if (i > 0) line += ",";
    line += server::JsonNumber(static_cast<double>(r.entities[i]));
  }
  line += "],\"budget\":" + server::JsonNumber(r.config.budget);
  line += ",\"guard\":" + server::JsonNumber(double(r.config.guard_m));
  line += "}\n";
  return line;
}

/// One closed-loop client: sends a request, blocks for the response, sends
/// the next. A "rejected" response is retried after its retry_after_ms
/// hint; everything else counts toward throughput.
struct ClientTotals {
  uint64_t ok = 0;
  uint64_t rejected = 0;
  std::vector<double> latencies_ms;
};

ClientTotals RunClient(uint16_t port, const std::vector<std::string>& lines,
                       size_t begin, size_t count) {
  ClientTotals totals;
  std::string error;
  UniqueFd fd = ConnectTcp(port, &error);
  if (!fd.valid()) return totals;
  std::string buf;
  auto read_line = [&](std::string* out) {
    for (;;) {
      size_t nl = buf.find('\n');
      if (nl != std::string::npos) {
        *out = buf.substr(0, nl);
        buf.erase(0, nl + 1);
        return true;
      }
      char chunk[4096];
      ssize_t n = recv(fd.get(), chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buf.append(chunk, static_cast<size_t>(n));
    }
  };
  for (size_t i = 0; i < count; ++i) {
    const std::string& line = lines[(begin + i) % lines.size()];
    Timer timer;
    for (;;) {
      if (send(fd.get(), line.data(), line.size(), MSG_NOSIGNAL) < 0) {
        return totals;
      }
      std::string resp;
      if (!read_line(&resp)) return totals;
      if (resp.find("\"status\":\"rejected\"") == std::string::npos) break;
      ++totals.rejected;
      server::JsonValue v;
      std::string perr;
      double wait_ms = server::kRetryAfterMs;
      if (server::ParseJson(resp, server::kMaxJsonDepth, &v, &perr)) {
        if (const server::JsonValue* retry = v.Find("retry_after_ms")) {
          wait_ms = retry->as_number();
        }
      }
      std::this_thread::sleep_for(
          std::chrono::microseconds(static_cast<long>(wait_ms * 1000)));
    }
    totals.latencies_ms.push_back(timer.ElapsedMillis());
    ++totals.ok;
  }
  return totals;
}

void PartSocket(const std::shared_ptr<const Graph>& graph,
                const std::vector<ServiceRequest>& reqs) {
  std::vector<std::string> lines;
  lines.reserve(reqs.size());
  for (const ServiceRequest& r : reqs) lines.push_back(WireLine(r));

  constexpr size_t kWorkers = 4;
  TextTable t({"mode", "clients", "queue", "req_per_s", "accepted_p95_ms",
               "ok", "rejected"});
  struct Row {
    const char* mode;
    size_t clients;
    size_t queue;
  };
  // Closed-loop saturation: one in-flight request per worker. Overload:
  // twice the clients against a queue too small to hide them — the excess
  // must come back as immediate rejections, not latency.
  for (const Row& row : {Row{"saturation", kWorkers, 64},
                         Row{"overload_2x", 2 * kWorkers, 2}}) {
    server::ServerConfig cfg;
    cfg.service.workers = kWorkers;
    cfg.service.queue_capacity = row.queue;
    cfg.service.cache_capacity = 64;
    server::WhyqServer server({{"bench", graph}}, cfg);
    std::string error;
    if (!server.Start(&error)) {
      std::fprintf(stderr, "server start failed: %s\n", error.c_str());
      return;
    }
    std::thread loop([&server] { server.Run(nullptr); });

    size_t per_client =
        std::max<size_t>(1, lines.size() / row.clients);
    std::vector<std::future<ClientTotals>> futures;
    Timer timer;
    for (size_t c = 0; c < row.clients; ++c) {
      futures.push_back(std::async(std::launch::async, RunClient,
                                   server.port(), std::cref(lines),
                                   c * per_client, per_client));
    }
    uint64_t ok = 0;
    uint64_t rejected = 0;
    std::vector<double> latencies;
    for (auto& f : futures) {
      ClientTotals totals = f.get();
      ok += totals.ok;
      rejected += totals.rejected;
      latencies.insert(latencies.end(), totals.latencies_ms.begin(),
                       totals.latencies_ms.end());
    }
    double elapsed_ms = timer.ElapsedMillis();
    server.RequestStop();
    loop.join();

    std::sort(latencies.begin(), latencies.end());
    double p95 = latencies.empty()
                     ? 0.0
                     : latencies[latencies.size() * 95 / 100];
    t.AddRow({row.mode, std::to_string(row.clients),
              std::to_string(row.queue),
              TextTable::Num(1000.0 * static_cast<double>(ok) / elapsed_ms,
                             1),
              TextTable::Num(p95, 2), std::to_string(ok),
              std::to_string(rejected)});
  }
  std::printf(
      "%s\n",
      t.ToString("Part d: whyq_server socket daemon (closed-loop clients)")
          .c_str());
}

// A batch of `ops` mutations valid against any epoch of `g`: new nodes
// under a bench-only label, an attribute on each, and a chain edge back to
// the previously added node. Everything lives on symbols no workload query
// mentions, so against the prepared cache the batch is pure rekey traffic —
// the interference measured below is the epoch publish itself, not cache
// rebuild work.
UpdateBatch MakeUpdateBatch(const Graph& g, size_t ops) {
  UpdateBatch b;
  NodeId next = static_cast<NodeId>(g.node_count());
  NodeId prev = kInvalidNode;
  for (size_t i = 0; i < ops; ++i) {
    switch (i % 3) {
      case 0:
        b.ops.push_back(UpdateOp::AddNode("BenchNode"));
        prev = next++;
        break;
      case 1:
        b.ops.push_back(UpdateOp::SetAttr(
            prev, "bench_heat", Value(static_cast<int64_t>(i))));
        break;
      default:
        if (next >= g.node_count() + 2) {
          b.ops.push_back(UpdateOp::AddEdge(prev, prev - 1, "bench_link"));
        } else {
          b.ops.push_back(UpdateOp::SetAttr(
              prev, "bench_cold", Value(static_cast<int64_t>(i))));
        }
        break;
    }
  }
  return b;
}

void PartUpdates(const std::shared_ptr<const Graph>& graph,
                 const Workload& w) {
  // --- e1: incremental ApplyUpdate vs. the full-rebuild reference --------
  // Same batch, same base epoch, mean over kReps applications. The
  // incremental path splices only the touched label runs; the rebuild pays
  // the whole graph every time, so its cost is flat in the batch size.
  constexpr int kReps = 5;
  TextTable t({"batch_ops", "incremental_ms", "rebuild_ms", "speedup"});
  for (size_t ops : {1u, 8u, 64u, 512u}) {
    UpdateBatch batch = MakeUpdateBatch(*graph, ops);
    double inc_ms = 0.0;
    double reb_ms = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      Graph next;
      UpdateResult r;
      Timer timer;
      if (!graph->ApplyUpdate(batch, &next, &r)) {
        std::fprintf(stderr, "incremental apply failed: %s\n",
                     r.error.c_str());
        return;
      }
      inc_ms += timer.ElapsedMillis();
      Graph rebuilt;
      Timer timer2;
      if (!ApplyUpdateByRebuild(*graph, batch, &rebuilt, &r)) {
        std::fprintf(stderr, "rebuild apply failed: %s\n", r.error.c_str());
        return;
      }
      reb_ms += timer2.ElapsedMillis();
    }
    inc_ms /= kReps;
    reb_ms /= kReps;
    t.AddRow({std::to_string(ops), TextTable::Num(inc_ms, 3),
              TextTable::Num(reb_ms, 3),
              TextTable::Num(inc_ms > 0 ? reb_ms / inc_ms : 0.0)});
  }
  std::printf(
      "%s\n",
      t.ToString("Part e1: ApplyUpdate incremental vs. full rebuild")
          .c_str());

  // --- e2: update/read interference --------------------------------------
  // Closed-loop readers against one service, first with the writer idle,
  // then with a writer publishing 8-op epochs as fast as it can. The
  // batches are footprint-disjoint from the probe, so surviving cache
  // entries are rekeyed and reads keep hitting — the p95 delta isolates
  // the cost of concurrent epoch publishes on the read path.
  ServiceRequest probe;
  probe.kind = RequestKind::kWhySoMany;
  probe.query_text = WriteQuery(w.items[0].gq.query, *graph);
  probe.target_k = graph->node_count();  // already satisfied: trivial search
  probe.config = DefaultAnswerConfig();

  constexpr size_t kReaders = 2;
  constexpr size_t kReadsPerReader = 2000;
  TextTable t2({"writer", "reads_per_s", "read_p95_ms", "cache_hits",
                "updates", "updates_per_s"});
  for (bool with_writer : {false, true}) {
    ServiceConfig sc;
    sc.workers = kReaders;
    sc.cache_capacity = 64;
    WhyqService service(graph, sc);
    service.Execute(probe);  // warm the prepared cache

    std::atomic<bool> readers_done{false};
    std::vector<std::vector<double>> lat(kReaders);
    std::vector<std::thread> readers;
    Timer timer;
    for (size_t i = 0; i < kReaders; ++i) {
      readers.emplace_back([&, i] {
        lat[i].reserve(kReadsPerReader);
        for (size_t r = 0; r < kReadsPerReader; ++r) {
          Timer one;
          service.Execute(probe);
          lat[i].push_back(one.ElapsedMillis());
        }
      });
    }
    uint64_t updates = 0;
    if (with_writer) {
      // Publish epochs until the readers finish; each batch is built
      // against the epoch it will apply to (node ids shift per publish).
      std::thread monitor([&] {
        for (std::thread& th : readers) th.join();
        readers_done.store(true);
      });
      while (!readers_done.load()) {
        UpdateResult ur;
        UpdateBatch batch = MakeUpdateBatch(*service.graph(), 8);
        if (!service.ApplyUpdate(batch, &ur)) {
          std::fprintf(stderr, "writer apply failed: %s\n", ur.error.c_str());
          break;
        }
        ++updates;
      }
      monitor.join();
    } else {
      for (std::thread& th : readers) th.join();
    }
    double elapsed_ms = timer.ElapsedMillis();

    std::vector<double> all;
    for (const auto& v : lat) all.insert(all.end(), v.begin(), v.end());
    std::sort(all.begin(), all.end());
    double p95 = all.empty() ? 0.0 : all[all.size() * 95 / 100];
    StatsSnapshot s = service.Stats();
    t2.AddRow({with_writer ? "on" : "off",
               TextTable::Num(1000.0 * static_cast<double>(all.size()) /
                                  elapsed_ms,
                              1),
               TextTable::Num(p95, 3), std::to_string(s.cache_hits),
               std::to_string(updates),
               TextTable::Num(1000.0 * static_cast<double>(updates) /
                                  elapsed_ms,
                              1)});
  }
  std::printf(
      "%s\n",
      t2.ToString("Part e2: read latency with a concurrent epoch writer")
          .c_str());
}

// Persistent plan store across restarts (docs/PLAN_FORMAT.md). f1 prices
// the two ways a process can obtain a prepared question — build it
// (PrepareQuery: answer match + candidates + PathIndex sample) or load it
// from the store (read + validate + re-parse) — per workload query.
// f2 simulates the deploy/crash cycle the store exists for: a fresh
// service (empty in-memory cache, the "restarted process") answers the
// first request round with no store and with the store a previous
// "process" left behind; with warm-load the very first request is already
// a prepared-cache hit, so time-to-first-hit collapses from a cold build
// to steady-state latency.
void PartPlanStore(const std::shared_ptr<const Graph>& graph,
                   const Workload& w) {
  const uint64_t fp = GraphFingerprint(*graph);
  const AnswerConfig base_cfg = DefaultAnswerConfig();
  const MatchSemantics sem = base_cfg.semantics;
  const size_t max_paths = base_cfg.path_index_paths;
  const PlanStamp stamp{fp, graph->identity(), graph->generation()};

  // --- f1: store load vs PrepareQuery, per query --------------------------
  const std::string cost_dir = "bench_plans_cost";
  std::filesystem::remove_all(cost_dir);
  {
    PlanStore store(cost_dir);
    constexpr int kLoadReps = 20;
    TextTable t({"query", "prepare_ms", "store_load_ms", "load_speedup"});
    double prep_total = 0.0;
    double load_total = 0.0;
    for (size_t i = 0; i < w.items.size(); ++i) {
      const Query& q = w.items[i].gq.query;
      std::string canonical = WriteQuery(q, *graph);
      bool complete = false;
      Timer prep_timer;
      std::shared_ptr<const PreparedQuery> built =
          PrepareQuery(*graph, Query(q), sem, max_paths,
                       /*cancel=*/nullptr, &complete);
      double prep_ms = prep_timer.ElapsedMillis();
      if (!complete) {
        std::fprintf(stderr, "part f: PrepareQuery did not complete\n");
        return;
      }
      store.SaveAsync(graph, built, canonical, max_paths, stamp);
      store.Flush();
      Timer load_timer;
      for (int rep = 0; rep < kLoadReps; ++rep) {
        if (store.TryLoad(*graph, fp, sem, max_paths, canonical) == nullptr) {
          std::fprintf(stderr, "part f: store probe missed a saved plan\n");
          return;
        }
      }
      double load_ms = load_timer.ElapsedMillis() / kLoadReps;
      prep_total += prep_ms;
      load_total += load_ms;
      t.AddRow({"q" + std::to_string(i), TextTable::Num(prep_ms, 3),
                TextTable::Num(load_ms, 3),
                TextTable::Num(load_ms > 0 ? prep_ms / load_ms : 0.0, 1)});
    }
    t.AddRow({"total", TextTable::Num(prep_total, 3),
              TextTable::Num(load_total, 3),
              TextTable::Num(load_total > 0 ? prep_total / load_total : 0.0,
                             1)});
    std::printf(
        "%s\n",
        t.ToString("Part f1: PrepareQuery vs. plan-store load, per query")
            .c_str());
  }
  std::filesystem::remove_all(cost_dir);

  // --- f2: cold restart, with vs. without a warm store --------------------
  // One probe per distinct workload query, each with a trivial search
  // (why-so-many already at its target, the part-b pattern): the measured
  // latency is the per-request *fixed* cost — answer match + candidates +
  // PathIndex — which is exactly what the store persists. A heavy
  // why-question would hide the restart cost behind its search phase.
  std::vector<ServiceRequest> probes;
  probes.reserve(w.items.size());
  for (const Workload::Item& item : w.items) {
    ServiceRequest probe;
    probe.kind = RequestKind::kWhySoMany;
    probe.query_text = WriteQuery(item.gq.query, *graph);
    probe.target_k = graph->node_count();  // already satisfied
    probe.config = base_cfg;
    probes.push_back(probe);
  }
  const size_t first_round = probes.size();
  const std::string store_dir = "bench_plans_restart";
  std::filesystem::remove_all(store_dir);
  {
    // The "previous process": populate the store, then shut down.
    ServiceConfig sc;
    sc.workers = 1;
    sc.cache_capacity = 64;
    sc.plan_store = std::make_shared<PlanStore>(store_dir);
    WhyqService service(graph, sc);
    for (size_t i = 0; i < first_round; ++i) service.Execute(probes[i]);
    sc.plan_store->Flush();
  }

  TextTable t({"store", "first_req_ms", "p95_first_round_ms", "cache_hits",
               "cache_misses"});
  for (bool with_store : {false, true}) {
    ServiceConfig sc;
    sc.workers = 1;
    sc.cache_capacity = 64;
    if (with_store) sc.plan_store = std::make_shared<PlanStore>(store_dir);
    WhyqService service(graph, sc);  // the restarted process
    std::vector<double> lat;
    lat.reserve(first_round);
    for (size_t i = 0; i < first_round; ++i) {
      Timer one;
      service.Execute(probes[i]);
      lat.push_back(one.ElapsedMillis());
    }
    double first_ms = lat[0];
    std::sort(lat.begin(), lat.end());
    double p95 = lat[lat.size() * 95 / 100];
    // Boot warm-load fills the in-memory cache, so a store-warmed restart
    // shows up as cache_hits == the whole round (store counters untouched:
    // warm loads are neither probes nor misses).
    StatsSnapshot s = service.Stats();
    t.AddRow({with_store ? "warm" : "none", TextTable::Num(first_ms, 3),
              TextTable::Num(p95, 3), std::to_string(s.cache_hits),
              std::to_string(s.cache_misses)});
  }
  std::filesystem::remove_all(store_dir);
  std::printf(
      "%s\n",
      t.ToString("Part f2: cold restart, first round with/without the store")
          .c_str());
}

int Main(int argc, char** argv) {
  Flags flags = ParseFlags(argc, argv);
  BsbmConfig bc;
  bc.products = static_cast<size_t>(2000.0 * flags.scale);
  bc.seed = 7;
  auto graph = std::make_shared<const Graph>(GenerateBsbm(bc));
  std::printf("graph: %s\n\n", ComputeStats(*graph).ToString().c_str());

  WorkloadConfig wc = DefaultWorkload(flags, 8);
  Workload w = MakeWorkload(*graph, wc);
  if (w.items.empty()) {
    std::fprintf(stderr, "no workload items generated\n");
    return 1;
  }
  // 4 rounds over the item pool: plenty of repeated questions, so both
  // parts exercise the cache the way a serving deployment would.
  std::vector<ServiceRequest> reqs = BuildRequests(*graph, w, 4);
  std::printf("workload: %zu items x 2 kinds x 4 rounds = %zu requests\n\n",
              w.items.size(), reqs.size());

  if (RunPart(flags, "a")) PartScaling(graph, reqs);
  if (RunPart(flags, "b")) PartCache(graph, w);
  if (RunPart(flags, "c")) PartCoreBudget(graph, reqs);
  if (RunPart(flags, "d")) PartSocket(graph, reqs);
  if (RunPart(flags, "e")) PartUpdates(graph, w);
  if (RunPart(flags, "f")) PartPlanStore(graph, w);
  return 0;
}

}  // namespace
}  // namespace whyq::bench

int main(int argc, char** argv) { return whyq::bench::Main(argc, argv); }
