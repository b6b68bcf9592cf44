// The three workloads: set-up, the timed phase, the traced serial replay and
// the metrics each prints. See perfbench/NOTES.md for why each exists.

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.h"
#include "graph/snapshot.h"
#include "server/json.h"
#include "server/limits.h"
#include "server/server.h"
#include "server/wire.h"
#include "service/plan.h"
#include "wire_client.h"

namespace perfbench {
namespace {

using whyq::AnswerConfig;
using whyq::Graph;
using whyq::ServiceRequest;
using whyq::ServiceResponse;
using whyq::server::JsonValue;

// Deployment shape: one client connection against one worker
// (interactive), one in-process caller (exact, and churn's serial reader
// and writer). With two interactive clients and workers, CPU per request
// stayed within 3 % over ten seeds but req/s spread 13 %: four busy threads
// on four shared vCPUs lose wall time to every hypervisor steal, while one
// busy thread (exact) spread 4 %. Churn over the socket (two readers, two
// workers, a writer) moved 30-75 % between runs for the same reason.
constexpr size_t kQuestionClients = 1;
constexpr size_t kInteractiveWorkers = 1;
// The timed phase runs a host-speed slice between two operations once this
// much time passed since the last one (about 5 % of the phase); set-up runs
// one before and one after each set-up.
constexpr double kSlicePeriodMs = 100;
// Set-ups per run; setup_s is their median. Each set-up reads the whole TSV
// graph and prepares every distinct query. Single set-ups moved 30-40 %
// within one process (two speeds, each lasting seconds on the shared host),
// so there are many, spread over the run: some before the timed phase (the
// last of them serves it) and the rest after it.
constexpr size_t kSetupsBefore = 10;
constexpr size_t kSetupsAfter = 11;
// Prepare requests set-up keeps in flight; below the daemon's queue
// capacity (server/limits.h kQueueCapacity = 256), so none is rejected.
constexpr size_t kPrepareWindow = 128;
// Picky operators per question whose guard check the trace prices.
constexpr size_t kGuardSample = 16;
// A why-so-many target every query already meets: the search is trivial,
// so a read costs the wire, the queue and the prepared-cache lookup.
constexpr uint64_t kReadTargetK = 1000000000;

bool IsChurn(const Inputs& in) { return in.workload == "churn"; }
bool OverSocket(const Inputs& in) { return in.workload == "interactive"; }

AnswerConfig ConfigFor(const Inputs& in) {
  if (in.workload == "exact") return ExactConfig();
  return IsChurn(in) ? ChurnConfig() : InteractiveConfig();
}

whyq::RequestKind KindOf(const Op& op) {
  switch (op.kind) {
    case Op::kWhy:
      return whyq::RequestKind::kWhy;
    case Op::kWhyNot:
      return whyq::RequestKind::kWhyNot;
    default:
      return whyq::RequestKind::kWhySoMany;
  }
}

ServiceRequest RequestFor(const Inputs& in, const Op& op) {
  ServiceRequest r;
  r.kind = KindOf(op);
  r.query_text = in.queries[op.query];
  r.entities = op.entities;
  r.algo = in.workload == "exact" ? whyq::AlgoChoice::kExact
                                  : whyq::AlgoChoice::kAuto;
  r.config = ConfigFor(in);
  r.target_k = kReadTargetK;
  return r;
}

std::string WireLine(const Inputs& in, const Op& op, size_t id) {
  using whyq::server::JsonEscape;
  std::string line = "{\"id\":" + std::to_string(id);
  if (op.kind == Op::kUpdate) {
    std::ostringstream os;
    whyq::WriteUpdateBatch(in.batches[op.batch], os);
    std::istringstream is(os.str());
    std::string l;
    line += ",\"op\":\"update\",\"ops\":[";
    bool first = true;
    while (std::getline(is, l)) {
      if (l.empty() || l[0] == '#') continue;
      line += (first ? "\"" : ",\"") + JsonEscape(l) + "\"";
      first = false;
    }
    return line + "]}\n";
  }
  const AnswerConfig cfg = ConfigFor(in);
  line += ",\"question\":\"";
  line += op.kind == Op::kWhy ? "why"
          : op.kind == Op::kWhyNot ? "whynot"
                                   : "whysomany";
  line += "\",\"query\":\"" + JsonEscape(in.queries[op.query]) + "\"";
  if (IsQuestion(op)) {
    line += ",\"entities\":[";
    for (size_t i = 0; i < op.entities.size(); ++i) {
      line += (i ? "," : "") + std::to_string(op.entities[i]);
    }
    line += "],\"algo\":\"";
    line += in.workload == "exact" ? "exact" : "auto";
    line += "\",\"budget\":" + whyq::server::JsonNumber(cfg.budget);
    line += ",\"guard\":" + std::to_string(cfg.guard_m);
    if (in.workload == "exact") {
      line += ",\"max_mbs\":" + std::to_string(cfg.max_mbs);
    }
  } else {
    line += ",\"target_k\":" + std::to_string(kReadTargetK);
  }
  if (cfg.semantics == whyq::MatchSemantics::kSimulation) {
    line += ",\"semantics\":\"sim\"";
  }
  return line + "}\n";
}

// ---------------------------------------------------------------------------
// Deployment and set-up.

/// One deployment of the program under test: the in-process service
/// (exact; churn, with a plan store) or the daemon on an ephemeral loopback
/// port (interactive).
struct Deployment {
  std::shared_ptr<const Graph> graph;  // epoch 0
  std::shared_ptr<whyq::PlanStore> plan_store;
  std::unique_ptr<whyq::WhyqService> service;
  std::unique_ptr<whyq::server::WhyqServer> server;
  std::thread loop;
  double load_ms = 0;

  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  ~Deployment() {
    if (server != nullptr) server->RequestStop();
    if (loop.joinable()) loop.join();
  }
};

/// Reads the graph, starts the service or daemon and prepares every
/// distinct query once. Everything here is inside setup_s.
std::unique_ptr<Deployment> SetUp(const Inputs& in, const std::string& dir,
                                  std::string* error) {
  auto d = std::make_unique<Deployment>();
  whyq::Timer load;
  std::optional<Graph> g = whyq::ReadGraphFromFile(in.graph_path, error);
  if (!g.has_value()) return nullptr;
  d->graph = std::make_shared<const Graph>(std::move(*g));
  d->load_ms = load.ElapsedMillis();

  Op read;
  read.kind = Op::kRead;
  if (!OverSocket(in)) {
    whyq::ServiceConfig sc;
    sc.workers = 1;  // requests run inline through Execute()
    sc.intra_threads = 1;
    sc.cache_capacity = in.queries.size();
    if (IsChurn(in)) {
      // As a `serve --plan-store` deployment: a store beside the cache.
      d->plan_store = std::make_shared<whyq::PlanStore>(dir + "/plans");
      sc.plan_store = d->plan_store;
      sc.cache_capacity = kChurnCacheCapacity;
    }
    d->service = std::make_unique<whyq::WhyqService>(d->graph, sc);
    for (size_t q = 0; q < in.queries.size(); ++q) {
      read.query = q;
      ServiceResponse r = d->service->Execute(RequestFor(in, read));
      if (r.status != whyq::ResponseStatus::kOk) {
        *error = "prepare failed: " + r.error;
        return nullptr;
      }
    }
    // Ready means every plan is on disk, not still queued for the writer.
    if (d->plan_store != nullptr) d->plan_store->Flush();
    return d;
  }
  whyq::server::ServerConfig cfg;
  cfg.service.intra_threads = 1;
  cfg.service.workers = kInteractiveWorkers;
  cfg.service.cache_capacity = in.queries.size();
  d->server = std::make_unique<whyq::server::WhyqServer>(
      std::vector<std::pair<std::string, std::shared_ptr<const Graph>>>{
          {"bench", d->graph}},
      cfg);
  if (!d->server->Start(error)) return nullptr;
  whyq::server::WhyqServer* srv = d->server.get();
  d->loop = std::thread([srv] { srv->Run(nullptr); });
  // Pipelined in windows below the queue capacity: set-up then costs the
  // preparations, not one round trip of thread wake-ups per query, which
  // moved setup_s by 80 % with the host's load.
  WireClient client(srv->port());
  std::string resp;
  for (size_t first = 0; first < in.queries.size();
       first += kPrepareWindow) {
    size_t last = std::min(in.queries.size(), first + kPrepareWindow);
    bool ok = true;
    for (size_t q = first; q < last && ok; ++q) {
      read.query = q;
      ok = client.Send(WireLine(in, read, q));
    }
    for (size_t q = first; q < last && ok; ++q) {
      ok = client.Receive(&resp) &&
           resp.find("\"status\":\"ok\"") != std::string::npos;
    }
    if (!ok) {
      *error = "prepare failed: " + client.error() + " " + resp;
      return nullptr;
    }
  }
  return d;
}

// ---------------------------------------------------------------------------
// Response decoding: wire replies after the timed phase, in-process
// responses as soon as their latency is taken (see TimeInProcess).

void FromWire(const Op& op, Outcome* o) {
  JsonValue v;
  std::string error;
  if (!whyq::server::ParseJson(o->response, whyq::server::kMaxJsonDepth, &v,
                               &error)) {
    o->ok = false;
    o->error = "unparsable response: " + error;
    return;
  }
  const JsonValue* status = v.Find("status");
  if (status == nullptr || !status->is_string() ||
      status->as_string() != "ok") {
    const JsonValue* e = v.Find("error");
    o->ok = false;
    o->error = (status && status->is_string() ? status->as_string() : "?") +
               ": " + (e && e->is_string() ? e->as_string() : "");
    return;
  }
  auto num = [](const JsonValue* obj, const char* key) {
    const JsonValue* f = obj ? obj->Find(key) : nullptr;
    return f && f->is_number() ? f->as_number() : 0.0;
  };
  auto flag = [](const JsonValue* obj, const char* key) {
    const JsonValue* f = obj ? obj->Find(key) : nullptr;
    return f && f->is_bool() && f->as_bool();
  };
  if (op.kind == Op::kUpdate) {
    o->generation = static_cast<uint64_t>(num(&v, "generation"));
    return;
  }
  o->truncated = flag(&v, "truncated");
  const JsonValue* answer = v.Find("answer");
  o->found = flag(answer, "found");
  o->cost = num(answer, "cost");
  o->closeness = num(answer, "closeness");
  if (const JsonValue* rw = answer ? answer->Find("rewritten") : nullptr) {
    if (rw->is_string()) o->rewritten = rw->as_string();
  }
  o->base_answers = static_cast<size_t>(
      op.kind == Op::kRead ? num(answer, "before") : num(&v, "base_answers"));
  const JsonValue* stats = v.Find("stats");
  o->cache_hit = flag(stats, "cache_hit");
  o->service_latency_ms = num(stats, "latency_ms");
  o->trace.queue_ms = num(stats, "queue_ms");
  o->trace.parse_ms = num(stats, "parse_ms");
  o->trace.prepare_ms = num(stats, "prepare_ms");
  o->trace.search_ms = num(stats, "search_ms");
}

void FromResponse(const ServiceResponse& r, Outcome* o) {
  o->ok = r.status == whyq::ResponseStatus::kOk;
  if (!o->ok) {
    o->error =
        std::string(whyq::ResponseStatusName(r.status)) + ": " + r.error;
    return;
  }
  o->truncated = r.truncated;
  o->found = r.answer.found;
  o->cost = r.answer.cost;
  o->closeness = r.answer.eval.closeness;
  if (o->found) o->rewritten = whyq::WriteQuery(r.answer.rewritten, *r.graph);
  o->base_answers = r.base_answers.size();
  o->picky = r.answer.picky_count;
  o->cache_hit = r.cache_hit;
  o->service_latency_ms = r.latency_ms;
  o->trace = r.trace;
}

void FromUpdate(const Deployment& d, const whyq::UpdateResult& r,
                Outcome* o) {
  if (!o->ok) {
    o->error = "update rejected: " + r.error;
    return;
  }
  o->generation = d.service->graph()->generation();
}

// ---------------------------------------------------------------------------
// Service counters, read from StatsSnapshot (in process) or the daemon's
// stats JSON, which is the same snapshot serialized.

struct Counters {
  double completed = 0, cache_hits = 0, cache_misses = 0;
  double updates = 0, invalidated = 0, rekeyed = 0;
  double plan_hits = 0, plan_misses = 0;
  double ctx_hits = 0, ctx_misses = 0, ctx_delta = 0, ctx_pruned = 0;
  double mbs_enumerated = 0, mbs_verified = 0, greedy_rounds = 0;
  double server_requests = 0, server_rejected = 0;

  Counters Minus(const Counters& b) const {
    Counters d;
    d.completed = completed - b.completed;
    d.cache_hits = cache_hits - b.cache_hits;
    d.cache_misses = cache_misses - b.cache_misses;
    d.updates = updates - b.updates;
    d.invalidated = invalidated - b.invalidated;
    d.rekeyed = rekeyed - b.rekeyed;
    d.plan_hits = plan_hits - b.plan_hits;
    d.plan_misses = plan_misses - b.plan_misses;
    d.ctx_hits = ctx_hits - b.ctx_hits;
    d.ctx_misses = ctx_misses - b.ctx_misses;
    d.ctx_delta = ctx_delta - b.ctx_delta;
    d.ctx_pruned = ctx_pruned - b.ctx_pruned;
    d.mbs_enumerated = mbs_enumerated - b.mbs_enumerated;
    d.mbs_verified = mbs_verified - b.mbs_verified;
    d.greedy_rounds = greedy_rounds - b.greedy_rounds;
    d.server_requests = server_requests - b.server_requests;
    d.server_rejected = server_rejected - b.server_rejected;
    return d;
  }
};

Counters ReadCounters(const Deployment& d) {
  Counters c;
  if (d.service != nullptr) {
    whyq::StatsSnapshot s = d.service->Stats();
    c.completed = double(s.completed);
    c.cache_hits = double(s.cache_hits);
    c.cache_misses = double(s.cache_misses);
    c.updates = double(s.updates_applied);
    c.invalidated = double(s.cache_invalidated);
    c.rekeyed = double(s.cache_rekeyed);
    c.plan_hits = double(s.plan_store_hits);
    c.plan_misses = double(s.plan_store_misses);
    c.ctx_hits = double(s.work.ctx_hits);
    c.ctx_misses = double(s.work.ctx_misses);
    c.ctx_delta = double(s.work.ctx_delta_builds);
    c.ctx_pruned = double(s.work.ctx_pruned);
    c.mbs_enumerated = double(s.work.mbs_enumerated);
    c.mbs_verified = double(s.work.mbs_verified);
    c.greedy_rounds = double(s.work.greedy_rounds);
    return c;
  }
  whyq::server::ServerSnapshot snap = d.server->Snapshot();
  c.server_requests = double(snap.requests);
  c.server_rejected = double(snap.rejected);
  JsonValue v;
  std::string error;
  if (!whyq::server::ParseJson(d.server->StatsJson(), 64, &v, &error)) {
    return c;
  }
  const JsonValue* svc = v.Find("service");
  svc = svc ? svc->Find("bench") : nullptr;
  const JsonValue* counters = svc ? svc->Find("counters") : nullptr;
  const JsonValue* work = svc ? svc->Find("work") : nullptr;
  auto num = [](const JsonValue* obj, const char* key) {
    const JsonValue* f = obj ? obj->Find(key) : nullptr;
    return f && f->is_number() ? f->as_number() : 0.0;
  };
  c.completed = num(counters, "completed");
  c.cache_hits = num(counters, "cache_hits");
  c.cache_misses = num(counters, "cache_misses");
  c.updates = num(counters, "updates_applied");
  c.invalidated = num(counters, "cache_invalidated");
  c.rekeyed = num(counters, "cache_rekeyed");
  c.plan_hits = num(counters, "plan_store_hits");
  c.plan_misses = num(counters, "plan_store_misses");
  c.ctx_hits = num(work, "ctx_hits");
  c.ctx_misses = num(work, "ctx_misses");
  c.ctx_delta = num(work, "ctx_delta_builds");
  c.ctx_pruned = num(work, "ctx_pruned");
  c.mbs_enumerated = num(work, "mbs_enumerated");
  c.mbs_verified = num(work, "mbs_verified");
  c.greedy_rounds = num(work, "greedy_rounds");
  return c;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// The timed phase. Load generators are closed loops that block on their
// socket or on the in-process call; over the socket the only shared state
// is an atomic op cursor.

struct Timed {
  double wall_ms = 0;  // without the host-speed slices
  double cpu_ms = 0;   // the same
  size_t slices = 0;   // host-speed slices run during the phase
  double factor = 1;   // latency-weighted mean of the ops' factors
};

// Takes the host-speed slices run since `speed0_ms` / `cpu0_ms` of them out
// of a phase's wall and CPU time.
void ExcludeSlices(const HostSpeed& speed, double speed0_ms, double cpu0_ms,
                   Timed* t) {
  t->wall_ms -= speed.TotalMs() - speed0_ms;
  t->cpu_ms -= speed.CpuMs() - cpu0_ms;
}

// The one client thread also runs the host-speed slices between its calls.
static_assert(kQuestionClients == 1, "HostSpeed is not thread-safe");

void TimeQuestionsOverSocket(const Inputs& in, Deployment* d,
                             const std::vector<std::string>& lines,
                             std::vector<Outcome>* out, HostSpeed* speed,
                             Timed* t) {
  std::vector<std::unique_ptr<WireClient>> clients;
  for (size_t c = 0; c < kQuestionClients; ++c) {
    clients.push_back(std::make_unique<WireClient>(d->server->port()));
  }
  std::atomic<size_t> next{0};
  double slices0_ms = speed->TotalMs(), slices0_cpu = speed->CpuMs();
  double cpu0 = ProcessCpuMs();
  whyq::Timer wall;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kQuestionClients; ++c) {
    threads.emplace_back([&, c] {
      WireClient& client = *clients[c];
      for (size_t i = next++; i < in.ops.size(); i = next++) {
        Outcome& o = (*out)[i];
        o.slice = speed->slices();
        whyq::Timer timer;
        o.ok = client.Call(lines[i], &o.response);
        o.latency_ms = timer.ElapsedMillis();
        if (!o.ok) o.error = "transport: " + client.error();
        speed->SliceEvery(kSlicePeriodMs);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  t->wall_ms = wall.ElapsedMillis();
  t->cpu_ms = ProcessCpuMs() - cpu0;
  ExcludeSlices(*speed, slices0_ms, slices0_cpu, t);
}

/// The in-process request of every op: one per question, and one per query
/// for reads (churn holds hundreds of thousands of reads of 16 queries).
/// Updates have none.
class Requests {
 public:
  explicit Requests(const Inputs& in) : in_(in) {
    if (IsChurn(in)) {
      Op read;
      read.kind = Op::kRead;
      for (size_t q = 0; q < in.queries.size(); ++q) {
        read.query = q;
        requests_.push_back(RequestFor(in, read));
      }
    } else {
      for (const Op& op : in.ops) requests_.push_back(RequestFor(in, op));
    }
  }
  const ServiceRequest& For(size_t i) const {
    return IsChurn(in_) ? requests_[in_.ops[i].query] : requests_[i];
  }

 private:
  const Inputs& in_;
  std::vector<ServiceRequest> requests_;
};

// One in-process caller: questions (exact), or reads with an update after
// every k-th read (churn), strictly in workload order. A response is
// decoded as soon as its latency is taken; churn's responses would pin
// every epoch if they were kept.
void TimeInProcess(const Inputs& in, Deployment* d, std::vector<Outcome>* out,
                   HostSpeed* speed, Timed* t) {
  Requests requests(in);
  double slices0_ms = speed->TotalMs(), slices0_cpu = speed->CpuMs();
  double cpu0 = ProcessCpuMs();
  whyq::Timer wall;
  for (size_t i = 0; i < in.ops.size(); ++i) {
    const Op& op = in.ops[i];
    Outcome& o = (*out)[i];
    o.slice = speed->slices();
    if (op.kind == Op::kUpdate) {
      whyq::UpdateResult ur;
      whyq::Timer timer;
      o.ok = d->service->ApplyUpdate(in.batches[op.batch], &ur);
      o.latency_ms = timer.ElapsedMillis();
      FromUpdate(*d, ur, &o);
    } else {
      whyq::Timer timer;
      ServiceResponse r = d->service->Execute(requests.For(i));
      o.latency_ms = timer.ElapsedMillis();
      FromResponse(r, &o);
    }
    speed->SliceEvery(kSlicePeriodMs);
  }
  t->wall_ms = wall.ElapsedMillis();
  t->cpu_ms = ProcessCpuMs() - cpu0;
  ExcludeSlices(*speed, slices0_ms, slices0_cpu, t);
}

// ---------------------------------------------------------------------------
// Spans of the traced replay. Recorded in memory from the benchmark's own
// code around each call into a layer, written out when the run ends.
//   request   the client's call (round trip or in-process Execute)
//   reported  a stage the program reported for that request (trace/stats),
//             laid out back to back inside the request span
//   probe     the benchmark calling a layer itself on the same inputs,
//             recorded after the request span, never inside it

struct Span {
  int64_t id = 0;
  int64_t parent = -1;
  int64_t req = -1;
  const char* kind = "";
  std::string name;
  double start_us = 0;
  double end_us = 0;
};

class Tracer {
 public:
  double Now() const { return clock_.ElapsedMillis() * 1000.0; }

  int64_t Add(const char* kind, std::string name, int64_t req,
              int64_t parent, double start_us, double end_us) {
    Span s;
    s.id = static_cast<int64_t>(spans_.size());
    s.parent = parent;
    s.req = req;
    s.kind = kind;
    s.name = std::move(name);
    s.start_us = start_us;
    s.end_us = end_us;
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }

  /// Adds the program-reported stages of `o` under request span `root`.
  void AddReported(const Outcome& o, int64_t req, int64_t root) {
    double at = spans_[root].start_us;
    auto stage = [&](const char* name, double ms) {
      if (ms <= 0) return;
      Add("reported", name, req, root, at, at + ms * 1000.0);
      at += ms * 1000.0;
    };
    stage("service.queue", o.trace.queue_ms);
    stage("service.parse", o.trace.parse_ms);
    stage("service.prepare", o.trace.prepare_ms);
    stage("why.search", o.trace.search_ms);
  }

  /// Mean duration (ms) of the spans called `name` (0 when there are none).
  double MeanMs(const std::string& name) const {
    double total = 0;
    size_t n = 0;
    for (const Span& s : spans_) {
      if (s.name != name) continue;
      total += s.end_us - s.start_us;
      ++n;
    }
    return n ? total / n / 1000.0 : 0.0;
  }

  /// Share of request-span time no reported child span covers.
  double UncoveredShare() const {
    double total = 0, covered = 0;
    for (const Span& s : spans_) {
      double dur = s.end_us - s.start_us;
      if (std::string(s.kind) == "request") total += dur;
      if (std::string(s.kind) == "reported") covered += dur;
    }
    return total > 0 ? std::max(0.0, 1.0 - covered / total) : 0.0;
  }

  /// Per span name: count, mean and mean self time (duration minus the
  /// reported children it contains), one report line each.
  std::vector<std::string> Summary() const {
    std::map<std::string, std::array<double, 3>> by;  // n, total, child
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0 && std::string(s.kind) == "reported") {
        child[s.parent] += s.end_us - s.start_us;
      }
    }
    for (const Span& s : spans_) {
      std::string key = std::string(s.kind) + " " + s.name;
      auto& a = by[key];
      a[0] += 1;
      a[1] += s.end_us - s.start_us;
      a[2] += child[s.id];
    }
    std::vector<std::string> lines;
    for (const auto& [key, a] : by) {
      lines.push_back(Fmt("span %-28s n=%-7.0f mean=%10.3f ms  self=%10.3f ms",
                          key.c_str(), a[0], a[1] / a[0] / 1000.0,
                          (a[1] - a[2]) / a[0] / 1000.0));
    }
    return lines;
  }

  bool Write(const std::string& path) const {
    std::ofstream os(path);
    os << "id\tparent\treq\tkind\tname\tstart_us\tend_us\n";
    for (const Span& s : spans_) {
      os << s.id << "\t" << s.parent << "\t" << s.req << "\t" << s.kind
         << "\t" << s.name << "\t" << Fmt("%.3f", s.start_us) << "\t"
         << Fmt("%.3f", s.end_us) << "\n";
    }
    return static_cast<bool>(os);
  }

 private:
  whyq::Timer clock_;
  std::vector<Span> spans_;
};

/// Rebuilds the ServiceResponse a wire reply encodes, so the trace can price
/// EncodeResponse for the socket workload. The operator list does not travel
/// over the wire, so the explanation it renders is the operator-free one.
ServiceResponse ResponseFromOutcome(const Op& op, const Outcome& o,
                                    const Graph& g) {
  ServiceResponse r;
  r.truncated = o.truncated;
  r.cache_hit = o.cache_hit;
  r.latency_ms = o.service_latency_ms;
  r.trace = o.trace;
  r.base_answers.assign(o.base_answers, 0);
  std::string error;
  std::optional<whyq::Query> rw;
  if (o.found) rw = whyq::ParseQuery(o.rewritten, g, &error);
  if (op.kind == Op::kRead) {
    r.why_so_many.found = true;
    r.why_so_many.before = r.why_so_many.after = o.base_answers;
  } else {
    r.answer.found = o.found && rw.has_value();
    r.answer.cost = o.cost;
    r.answer.eval.closeness = o.closeness;
    if (rw.has_value()) r.answer.rewritten = std::move(*rw);
  }
  return r;
}

/// Probe sums of the traced replay that are not span means.
struct ProbeTotals {
  double picky_ops = 0;
  double questions = 0;
  double plan_ops = 0;  // PlanStore writes + deletes caused by updates
  double updates = 0;
  whyq::PlanStore::Counters tryload;  // the plan.tryload probes' own counts
  double overhead_ms = 0;  // client round trip minus service latency
  double overhead_n = 0;
  std::array<double, 3> prepare_stages{};  // candidates, answer match, index
};

void ProbeQuestion(const Graph& g, const whyq::Query& q,
                   const std::vector<NodeId>& answers, const Op& op,
                   const AnswerConfig& cfg, int64_t req, int64_t root,
                   Tracer* tr, ProbeTotals* totals) {
  double t = tr->Now();
  std::vector<whyq::EditOp> picky =
      op.kind == Op::kWhy
          ? whyq::GenPickyWhy(g, q, answers, op.entities, cfg)
          : whyq::GenPickyWhyNot(g, q, op.entities, cfg);
  tr->Add("probe", "why.picky", req, root, t, tr->Now());
  totals->picky_ops += static_cast<double>(picky.size());
  totals->questions += 1;
  size_t sample = std::min(kGuardSample, picky.size());
  if (op.kind == Op::kWhy) {
    whyq::WhyEvaluator ev(g, answers, whyq::WhyQuestion{op.entities},
                          cfg.guard_m, cfg.semantics);
    for (size_t k = 0; k < sample; ++k) {
      t = tr->Now();
      ev.GuardOk(whyq::ApplyOperators(q, {picky[k]}));
      tr->Add("probe", "rewrite.guard", req, root, t, tr->Now());
    }
  } else {
    whyq::WhyNotQuestion w;
    w.missing = op.entities;
    whyq::WhyNotEvaluator ev(g, answers, w, cfg.guard_m, cfg.semantics);
    for (size_t k = 0; k < sample; ++k) {
      t = tr->Now();
      ev.GuardOk(whyq::ApplyOperators(q, {picky[k]}));
      tr->Add("probe", "rewrite.guard", req, root, t, tr->Now());
    }
  }
}

/// The traced serial replay: every op in workload order, one at a time, on
/// the same deployment as the timed run, with probes after each request.
void Replay(const Inputs& in, Deployment* d, const ParsedQueries& parsed,
            const std::vector<std::string>& lines, std::vector<Outcome>* out,
            Tracer* tr, ProbeTotals* totals) {
  const AnswerConfig cfg = ConfigFor(in);
  const Graph& g0 = *d->graph;

  // The matcher's preparation of each distinct query, stage by stage.
  for (const whyq::Query& q : parsed.queries) {
    whyq::RequestTrace trace;
    bool complete = false;
    double t = tr->Now();
    whyq::PrepareQuery(g0, q, cfg.semantics, cfg.path_index_paths, nullptr,
                       &complete, 1, &trace);
    tr->Add("probe", "matcher.prepare", -1, -1, t, tr->Now());
    totals->prepare_stages[0] += trace.candidates_ms;
    totals->prepare_stages[1] += trace.answer_match_ms;
    totals->prepare_stages[2] += trace.path_index_ms;
  }

  // A replica epoch chain prices Graph::ApplyUpdate and GraphFingerprint on
  // the same batches the service applies.
  std::shared_ptr<const Graph> replica = d->graph;
  double fp_start = tr->Now();
  uint64_t replica_fp = whyq::GraphFingerprint(*replica);  // epoch 0
  tr->Add("probe", "graph.fingerprint", -1, -1, fp_start, tr->Now());
  whyq::PlanStore* store = d->plan_store.get();

  std::unique_ptr<WireClient> client;
  if (OverSocket(in)) {
    client = std::make_unique<WireClient>(d->server->port());
  }
  Requests requests(in);
  for (size_t i = 0; i < in.ops.size(); ++i) {
    const Op& op = in.ops[i];
    Outcome& o = (*out)[i];
    const int64_t req = static_cast<int64_t>(i);
    ServiceResponse resp;
    whyq::UpdateResult ur;
    whyq::PlanStore::Counters before;
    if (op.kind == Op::kUpdate) {
      store->Flush();  // the update's own store work starts from idle
      before = store->counters();
    }
    double start = tr->Now();
    if (client != nullptr) {
      o.ok = client->Call(lines[i], &o.response);
    } else if (op.kind == Op::kUpdate) {
      o.ok = d->service->ApplyUpdate(in.batches[op.batch], &ur);
    } else {
      resp = d->service->Execute(requests.For(i));
    }
    double end = tr->Now();
    int64_t root =
        tr->Add("request", OpKindName(op.kind), req, -1, start, end);
    o.latency_ms = (end - start) / 1000.0;
    if (client == nullptr && op.kind == Op::kUpdate) {
      FromUpdate(*d, ur, &o);
    } else if (client == nullptr) {
      FromResponse(resp, &o);
    } else if (!o.ok) {
      o.error = "transport: " + client->error();
      continue;
    } else {
      FromWire(op, &o);
    }
    tr->AddReported(o, req, root);
    if (client != nullptr && o.ok) {
      totals->overhead_ms += o.latency_ms - o.service_latency_ms;
      totals->overhead_n += 1;
    }

    // Probes: wire parse and encode, query parse, picky generation and
    // guard admission, and for churn the update path and the plan store.
    double t = tr->Now();
    whyq::server::WireRequest wr;
    std::string error;
    whyq::server::ParseWireRequest(
        client != nullptr ? lines[i] : WireLine(in, op, i), &wr, &error);
    tr->Add("probe", "server.parse", req, root, t, tr->Now());
    if (op.kind == Op::kUpdate) {
      store->Flush();
      whyq::PlanStore::Counters after = store->counters();
      totals->plan_ops += double(after.writes - before.writes) +
                          double(after.invalid - before.invalid);
      totals->updates += 1;
      t = tr->Now();
      auto next = std::make_shared<Graph>();
      replica->ApplyUpdate(in.batches[op.batch], next.get(), &ur);
      tr->Add("probe", "graph.apply_update", req, root, t, tr->Now());
      t = tr->Now();
      replica_fp = whyq::GraphFingerprint(*next);
      tr->Add("probe", "graph.fingerprint", req, root, t, tr->Now());
      replica = std::move(next);
      continue;
    }
    if (!o.ok) continue;
    t = tr->Now();
    std::optional<whyq::Query> parsed_query =
        whyq::ParseQuery(in.queries[op.query], *replica, &error);
    std::string canonical = parsed_query.has_value()
                                ? whyq::WriteQuery(*parsed_query, *replica)
                                : "";
    tr->Add("probe", "query.parse", req, root, t, tr->Now());
    ServiceResponse encoded =
        client != nullptr ? ResponseFromOutcome(op, o, *replica)
                          : std::move(resp);
    t = tr->Now();
    whyq::server::EncodeResponse(wr.id_json, KindOf(op), encoded, *replica);
    tr->Add("probe", "server.encode", req, root, t, tr->Now());
    if (IsQuestion(op)) {
      ProbeQuestion(g0, parsed.queries[op.query], parsed.answers[op.query], op,
                    cfg, req, root, tr, totals);
    } else if (!o.cache_hit && store != nullptr) {
      // The load the read just went through (or the plan it just saved),
      // priced on the same store; its own hit or miss is kept apart from
      // the service's counts.
      store->Flush();
      whyq::PlanStore::Counters pre = store->counters();
      t = tr->Now();
      store->TryLoad(*replica, replica_fp, cfg.semantics, cfg.path_index_paths,
                     canonical);
      tr->Add("probe", "plan.tryload", req, root, t, tr->Now());
      whyq::PlanStore::Counters post = store->counters();
      totals->tryload.hits += post.hits - pre.hits;
      totals->tryload.misses += post.misses - pre.misses;
    }
  }
}

// ---------------------------------------------------------------------------
// Metrics.

struct ClassLatency {
  std::string name;
  std::vector<double> ms;
};

/// Splits responded ops into the two latency classes of the workload:
/// why / why-not, or read / update. `scaled`: each latency times its
/// host-speed factor.
std::pair<ClassLatency, ClassLatency> Classes(
    const Inputs& in, const std::vector<Outcome>& out, bool scaled) {
  ClassLatency a{IsChurn(in) ? "read" : "why", {}};
  ClassLatency b{IsChurn(in) ? "update" : "whynot", {}};
  for (const Outcome& o : out) {
    if (o.response.empty() && OverSocket(in)) continue;  // no reply at all
    Op::Kind k = in.ops[o.op].kind;
    (k == Op::kWhy || k == Op::kRead ? a : b)
        .ms.push_back(o.latency_ms * (scaled ? o.host_factor : 1.0));
  }
  return {std::move(a), std::move(b)};
}

void AddClassReport(const ClassLatency& c, std::vector<std::string>* report) {
  double tail = TailPercentile(c.ms.size());
  report->push_back(Fmt(
      "  %-7s n=%-6zu iqm=%.3f ms  p50=%.3f ms  p%g=%.3f ms", c.name.c_str(),
      c.ms.size(), Iqm(c.ms), Percentile(c.ms, 50), tail,
      tail > 0 ? Percentile(c.ms, tail) : 0.0));
}

uint64_t Digest(const Inputs& in, const std::vector<Outcome>& out) {
  uint64_t h = 1469598103934665603ULL;
  for (const Outcome& o : out) {
    const Op& op = in.ops[o.op];
    std::string rec;
    if (IsQuestion(op)) {
      rec = Fmt("%zu|%d|%d|%.12g|%.12g|%zu|", o.op, int(o.found),
                int(o.truncated), o.closeness, o.cost, o.base_answers) +
            o.rewritten;
    } else if (op.kind == Op::kUpdate) {
      rec = Fmt("%zu|gen=%llu", o.op, (unsigned long long)o.generation);
    } else {
      rec = Fmt("%zu|ok=%d|%zu", o.op, int(o.ok), o.base_answers);
    }
    h = Fnv(h, rec);
  }
  return h;
}

/// Corrupts answers so the checks must fail (the benchmark's self-test).
void TamperWith(const Inputs& in, Tamper how, std::vector<Outcome>* out) {
  for (Outcome& o : *out) {
    const Op& op = in.ops[o.op];
    if (!o.ok) continue;
    if (how == Tamper::kDominance) {
      o.found = o.found && !IsQuestion(op);
    } else if (op.kind == Op::kRead) {
      o.base_answers += 1000000;
      return;
    } else if (IsQuestion(op) && o.found) {
      o.closeness += 0.25;
      return;
    }
  }
}

}  // namespace

int RunWorkload(const Inputs& in, const RunOptions& opt, RunResult* res) {
  const AnswerConfig cfg = ConfigFor(in);
  std::vector<std::string> lines;  // the wire requests (socket workload)
  if (OverSocket(in)) {
    for (size_t i = 0; i < in.ops.size(); ++i) {
      lines.push_back(WireLine(in, in.ops[i], i));
    }
  }

  // Set-up, several times; the last deployment serves the measurement.
  std::vector<double> setup_s, load_ms, setup_ref_s;
  std::unique_ptr<Deployment> d;
  HostSpeed speed;
  auto set_up = [&](size_t times) {
    for (size_t r = 0; r < times; ++r) {
      d.reset();
      speed.Slice();
      std::filesystem::remove_all(opt.dir + "/plans");
      std::string error;
      whyq::Timer timer;
      d = SetUp(in, opt.dir, &error);
      if (d == nullptr) {
        res->report.push_back("set-up failed: " + error);
        return false;
      }
      setup_s.push_back(timer.ElapsedSeconds());
      load_ms.push_back(d->load_ms);
      // Each set-up is scaled by the slices just before and after it: the
      // host's speed moves within seconds, and the run's factor moved the
      // median 12 % between runs of one input where this moved it 4 %.
      speed.Slice();
      setup_ref_s.push_back(setup_s.back() * speed.Factor(speed.slices() - 2));
    }
    return true;
  };
  if (!set_up(kSetupsBefore)) return 1;

  std::vector<Outcome> out(in.ops.size());
  for (size_t i = 0; i < out.size(); ++i) out[i].op = i;
  Counters c0 = ReadCounters(*d);
  Timed timed;
  const size_t timed_slices = speed.slices();  // the first of the phase
  Tracer tracer;
  ProbeTotals probes;
  double peak_rss_mb = 0;
  ParsedQueries parsed;
  if (opt.trace) {
    parsed = ParseQueries(*d->graph, in, cfg.semantics);
    Replay(in, d.get(), parsed, lines, &out, &tracer, &probes);
  } else {
    if (OverSocket(in)) {
      TimeQuestionsOverSocket(in, d.get(), lines, &out, &speed, &timed);
    } else {
      TimeInProcess(in, d.get(), &out, &speed, &timed);
    }
    timed.slices = speed.slices() - timed_slices;
    // Each operation is scaled by the slices around it, the phase's wall
    // and CPU time by the latency-weighted mean of those factors.
    double weighted = 0, total = 0;
    for (Outcome& o : out) {
      o.host_factor = speed.LocalFactor(o.slice, timed_slices, speed.slices());
      weighted += o.latency_ms * o.host_factor;
      total += o.latency_ms;
    }
    timed.factor = Ratio(weighted, total);
    peak_rss_mb = PeakRssMb();
    parsed = ParseQueries(*d->graph, in, cfg.semantics);
  }
  Counters dc = ReadCounters(*d).Minus(c0);
  const std::shared_ptr<const Graph> g0 = d->graph;  // checks run on it
  if (!set_up(kSetupsAfter)) return 1;
  d.reset();

  // Decode the socket replies of a timed run, then check every answer.
  if (!opt.trace && OverSocket(in)) {
    for (size_t i = 0; i < out.size(); ++i) {
      if (out[i].ok) FromWire(in.ops[i], &out[i]);
    }
  }
  if (opt.tamper != Tamper::kNone) TamperWith(in, opt.tamper, &out);
  std::vector<std::string> errors;
  size_t failed = 0;
  for (const Outcome& o : out) {
    if (!o.ok) {
      ++failed;
      errors.push_back(Fmt("op %zu: %s", o.op, o.error.c_str()));
    }
  }
  if (IsChurn(in)) {
    failed += CheckChurn(*g0, in, parsed, &out, &errors);
  } else {
    failed += CheckQuestionAnswers(*g0, in, cfg, parsed, &out, &errors);
    if (in.workload == "exact") {
      failed +=
          CheckExactDominance(*g0, in, cfg, parsed, &out, &errors);
    }
  }
  res->attempted = in.ops.size();
  res->failed = failed;
  errors.resize(std::min<size_t>(errors.size(), 10));
  res->check_errors = errors;

  // Fixed-work fingerprint: identical for every run of the same inputs.
  size_t trunc[2] = {0, 0}, picky = 0;
  for (const Outcome& o : out) {
    if (o.truncated) ++trunc[in.ops[o.op].kind == Op::kWhy ? 0 : 1];
    picky += o.picky;
  }
  res->work["digest"] = Fmt("%016llx", (unsigned long long)Digest(in, out));
  res->work["truncated_why"] = std::to_string(trunc[0]);
  res->work["truncated_whynot"] = std::to_string(trunc[1]);
  res->work["picky_total"] = std::to_string(picky);
  res->work["mbs_enumerated"] = Fmt("%.0f", dc.mbs_enumerated);
  res->work["mbs_verified"] = Fmt("%.0f", dc.mbs_verified);
  res->work["greedy_rounds"] = Fmt("%.0f", dc.greedy_rounds);

  auto [ca, cb] = Classes(in, out, /*scaled=*/!opt.trace);
  std::vector<std::string>& rep = res->report;
  rep.push_back(Fmt("workload %s seed %llu (sized for %g s): %zu ops (%zu "
                    "queries, %zu update batches)",
                    in.workload.c_str(), (unsigned long long)in.seed,
                    in.seconds, in.ops.size(), in.queries.size(),
                    in.batches.size()));
  rep.push_back(Fmt("  setup_s median of %zu: %.4f s (%.4f..%.4f; load %.1f "
                    "ms)",
                    setup_s.size(), Median(setup_s),
                    *std::min_element(setup_s.begin(), setup_s.end()),
                    *std::max_element(setup_s.begin(), setup_s.end()),
                    Median(load_ms)));
  AddClassReport(ca, &rep);
  AddClassReport(cb, &rep);
  rep.push_back(Fmt("  fail_frac %.4f (%zu of %zu)",
                    Ratio(double(failed), double(in.ops.size())), failed,
                    in.ops.size()));

  Metrics& m = res->metrics;
  if (!opt.trace) {
    // Times read as on the reference host: the IQMs are of latencies
    // scaled op by op (Classes), wall and CPU time are scaled by the
    // phase's factor, each set-up by its own.
    const double f = timed.factor;
    auto [raw_a, raw_b] = Classes(in, out, /*scaled=*/false);
    double completed = double(ca.ms.size() + cb.ms.size());
    double req_per_s = Ratio(completed, timed.wall_ms / 1000.0);
    m["setup_s"] = {Median(setup_ref_s), "s"};
    m["req_per_s"] = {req_per_s / f, "1/s"};
    m["why_or_read_iqm_ms"] = {Iqm(ca.ms), "ms"};
    m["whynot_or_update_iqm_ms"] = {Iqm(cb.ms), "ms"};
    m["cpu_ms_per_req"] = {Ratio(timed.cpu_ms, completed) * f, "ms"};
    m["peak_rss_mb"] = {peak_rss_mb, "MB"};
    rep.push_back(Fmt("  timed phase %.1f ms wall, %.1f ms cpu (without "
                      "%.1f ms of host-speed slices)",
                      timed.wall_ms, timed.cpu_ms, speed.TotalMs()));
    auto first = speed.slice_ms().begin() + timed_slices;
    std::vector<double> phase(first, first + timed.slices);
    rep.push_back(Fmt("  host speed: %zu slices in the timed phase, iqm %.4f "
                      "ms (q1 %.4f, q3 %.4f), factor %.4f",
                      phase.size(), Iqm(phase), Percentile(phase, 25),
                      Percentile(phase, 75), f));
    rep.push_back(Fmt("  as measured: setup_s %.5f s, req_per_s %.4f, %s iqm "
                      "%.4f ms, %s iqm %.4f ms, cpu_ms_per_req %.4f ms",
                      Median(setup_s), req_per_s, ca.name.c_str(),
                      Iqm(raw_a.ms), cb.name.c_str(), Iqm(raw_b.ms),
                      Ratio(timed.cpu_ms, completed)));
    return 0;
  }

  // Traced run: per-layer metrics.
  auto mean_ms = [&](const char* name) { return tracer.MeanMs(name); };
  double questions = 0, exhaustive = 0, search_ms = 0, queue_ms = 0;
  double evaluate_ms = 0, evaluated = 0, requests = 0, update_ms = 0;
  for (const Outcome& o : out) {
    const Op& op = in.ops[o.op];
    if (op.kind == Op::kUpdate) update_ms += o.latency_ms;
    if (!o.ok || op.kind == Op::kUpdate) continue;
    requests += 1;
    queue_ms += o.trace.queue_ms;
    if (!IsQuestion(op)) continue;
    questions += 1;
    exhaustive += o.truncated ? 0 : 1;
    search_ms += o.trace.search_ms;
    if (o.found) {
      evaluate_ms += o.evaluate_ms;
      evaluated += 1;
    }
  }
  double lookups = dc.ctx_hits + dc.ctx_misses + dc.ctx_delta;
  m["server.parse_us"] = {mean_ms("server.parse") * 1000.0, "us"};
  m["server.encode_us"] = {mean_ms("server.encode") * 1000.0, "us"};
  m["server.overhead_ms"] = {Ratio(probes.overhead_ms, probes.overhead_n),
                             "ms"};
  m["server.rejected_frac"] = {Ratio(dc.server_rejected, dc.server_requests),
                               "1"};
  m["service.queue_ms"] = {Ratio(queue_ms, requests), "ms"};
  m["service.cache_hit_ratio"] = {
      Ratio(dc.cache_hits, dc.cache_hits + dc.cache_misses), "1"};
  m["service.invalidated_per_update"] = {Ratio(dc.invalidated, dc.updates),
                                         "count"};
  m["service.rekeyed_per_update"] = {Ratio(dc.rekeyed, dc.updates), "count"};
  m["service.apply_update_ms"] = {Ratio(update_ms, probes.updates), "ms"};
  m["plan.tryload_ms"] = {mean_ms("plan.tryload"), "ms"};
  // The plan.tryload probes' own lookups are not the service's.
  double plan_hits = dc.plan_hits - double(probes.tryload.hits);
  double plan_misses = dc.plan_misses - double(probes.tryload.misses);
  m["plan.hit_ratio"] = {Ratio(plan_hits, plan_hits + plan_misses), "1"};
  m["plan.ops_per_update"] = {Ratio(probes.plan_ops, probes.updates),
                              "count"};
  m["graph.load_ms"] = {Median(load_ms), "ms"};
  m["graph.apply_update_ms"] = {mean_ms("graph.apply_update"), "ms"};
  m["graph.fingerprint_ms"] = {mean_ms("graph.fingerprint"), "ms"};
  m["query.parse_us"] = {mean_ms("query.parse") * 1000.0, "us"};
  double prepared = double(in.queries.size());
  m["matcher.prepare_ms"] = {mean_ms("matcher.prepare"), "ms"};
  m["matcher.candidates_ms"] = {Ratio(probes.prepare_stages[0], prepared),
                                "ms"};
  m["matcher.answer_match_ms"] = {Ratio(probes.prepare_stages[1], prepared),
                                  "ms"};
  m["matcher.path_index_ms"] = {Ratio(probes.prepare_stages[2], prepared),
                                "ms"};
  m["matcher.ctx_hit_ratio"] = {Ratio(dc.ctx_hits, lookups), "1"};
  m["matcher.ctx_lookups_per_req"] = {Ratio(lookups, requests), "count"};
  m["matcher.pruned_per_req"] = {Ratio(dc.ctx_pruned, requests), "count"};
  m["rewrite.evaluate_ms"] = {Ratio(evaluate_ms, evaluated), "ms"};
  m["rewrite.guard_ms"] = {mean_ms("rewrite.guard"), "ms"};
  m["why.picky_ms"] = {mean_ms("why.picky"), "ms"};
  m["why.picky_ops"] = {Ratio(probes.picky_ops, probes.questions), "count"};
  m["why.search_ms"] = {Ratio(search_ms, questions), "ms"};
  m["why.mbs_enumerated"] = {Ratio(dc.mbs_enumerated, questions), "count"};
  m["why.mbs_verified"] = {Ratio(dc.mbs_verified, questions), "count"};
  m["why.verified_frac"] = {Ratio(dc.mbs_verified, dc.mbs_enumerated), "1"};
  m["why.exhaustive_frac"] = {Ratio(exhaustive, questions), "1"};
  m["why.greedy_rounds"] = {Ratio(dc.greedy_rounds, questions), "count"};
  m["trace.uncovered_frac"] = {tracer.UncoveredShare(), "1"};

  // The traced replay's own end-to-end view: serial, so compare it with the
  // timed run's numbers for the overhead of tracing plus serial replay.
  double busy_ms = 0;
  for (const Outcome& o : out) busy_ms += o.latency_ms;
  rep.push_back(Fmt("  traced replay: %.3f req/s over request spans, %s iqm "
                    "%.3f ms, %s iqm %.3f ms",
                    Ratio(double(out.size()), busy_ms / 1000.0),
                    ca.name.c_str(), Iqm(ca.ms), cb.name.c_str(),
                    Iqm(cb.ms)));
  rep.push_back(Fmt("  host speed: %zu slices around the set-ups, iqm %.4f "
                    "ms; the per-layer times are as measured",
                    speed.slices(), Iqm(speed.slice_ms())));
  rep.push_back(Fmt("  share of request latency no span covers: %.4f",
                    tracer.UncoveredShare()));
  for (const std::string& l : tracer.Summary()) rep.push_back("  " + l);
  if (!tracer.Write(opt.dir + "/spans.tsv")) {
    rep.push_back("  (could not write spans.tsv)");
  }
  return 0;
}

}  // namespace perfbench
