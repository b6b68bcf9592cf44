#include "service/service.h"

#include <chrono>
#include <utility>

#include "graph/snapshot.h"
#include "query/query_parser.h"
#include "service/plan.h"
#include "why/whynot_algorithms.h"

namespace whyq {

const char* RequestKindName(RequestKind k) {
  switch (k) {
    case RequestKind::kWhy:
      return "why";
    case RequestKind::kWhyNot:
      return "whynot";
    case RequestKind::kWhyEmpty:
      return "whyempty";
    case RequestKind::kWhySoMany:
      return "whysomany";
  }
  return "?";
}

const char* AlgoChoiceName(AlgoChoice a) {
  switch (a) {
    case AlgoChoice::kAuto:
      return "auto";
    case AlgoChoice::kExact:
      return "exact";
    case AlgoChoice::kIso:
      return "iso";
  }
  return "?";
}

const char* ResponseStatusName(ResponseStatus s) {
  switch (s) {
    case ResponseStatus::kOk:
      return "ok";
    case ResponseStatus::kRejected:
      return "rejected";
    case ResponseStatus::kBadRequest:
      return "bad-request";
    case ResponseStatus::kShutdown:
      return "shutdown";
  }
  return "?";
}

WhyqService::WhyqService(std::shared_ptr<const Graph> graph,
                         ServiceConfig cfg)
    : graph_(std::move(graph)),
      cfg_(cfg),
      cache_(cfg.cache_capacity) {
  // Clamp degenerate configs (see the constructor contract in service.h):
  // queue_capacity 0 would make every Submit() reject with no diagnostic,
  // workers 0 would leave accepted futures unresolved forever.
  if (cfg_.queue_capacity == 0) cfg_.queue_capacity = 1;
  if (cfg_.workers == 0) cfg_.workers = 1;
  stats_.ConfigureSlowLog(cfg_.slow_query_ms, cfg_.slow_log_capacity);
  if (cfg_.plan_store != nullptr) {
    // One content hash per epoch: frozen (snapshot-backed) graphs already
    // carry it as identity(); heap graphs pay one fingerprint pass here
    // (and one per update) so every request can stamp/validate plans
    // without rehashing the graph.
    plan_fp_ = graph_->frozen() ? graph_->identity()
                                : GraphFingerprint(*graph_);
    // Warm the prepared cache from the store before the workers exist:
    // the first repeated question after a restart hits memory, not disk.
    cfg_.plan_store->WarmLoad(*graph_, plan_fp_, cfg_.cache_capacity,
                              &cache_);
  }
  workers_.reserve(cfg_.workers);
  for (size_t i = 0; i < cfg_.workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

WhyqService::WhyqService(Graph&& graph, ServiceConfig cfg)
    : WhyqService(std::make_shared<const Graph>(std::move(graph)), cfg) {}

WhyqService::~WhyqService() { Stop(); }

void WhyqService::Stop() {
  // Claim the worker handles under the mutex so concurrent Stop() callers
  // never join the same std::thread; late callers take an empty vector.
  std::vector<std::thread> workers;
  {
    MutexLock lock(mu_);
    stopping_ = true;
    workers.swap(workers_);
  }
  cv_.NotifyAll();
  for (std::thread& t : workers) {
    if (t.joinable()) t.join();
  }
}

SubmitResult WhyqService::Enqueue(std::unique_ptr<Job> job) {
  double deadline = job->request.deadline_ms > 0 ? job->request.deadline_ms
                                                 : cfg_.default_deadline_ms;
  job->token.SetDeadlineAfterMillis(deadline);
  {
    MutexLock lock(mu_);
    if (stopping_) {
      stats_.RecordShutdown();
      // Future path: resolve so the caller's future does not dangle. The
      // callback path never fires `done` for an unadmitted request.
      if (!job->done) {
        ServiceResponse r;
        r.status = ResponseStatus::kShutdown;
        job->promise.set_value(std::move(r));
      }
      return SubmitResult::kShutdown;
    }
    if (queue_.size() >= cfg_.queue_capacity) {
      stats_.RecordRejected();
      return SubmitResult::kQueueFull;
    }
    // Count before the push, still locked: a worker may finish the job the
    // moment the lock drops, and received >= completed must hold in every
    // Snapshot().
    stats_.RecordReceived();
    ++in_flight_;
    queue_.push_back(std::move(job));
  }
  cv_.NotifyOne();
  return SubmitResult::kAccepted;
}

std::optional<std::future<ServiceResponse>> WhyqService::Submit(
    ServiceRequest req) {
  auto job = std::make_unique<Job>();
  job->request = std::move(req);
  std::future<ServiceResponse> future = job->promise.get_future();
  SubmitResult admitted = Enqueue(std::move(job));
  if (admitted == SubmitResult::kQueueFull) return std::nullopt;
  // kAccepted: a worker will resolve it; kShutdown: already resolved.
  return future;
}

SubmitResult WhyqService::TrySubmit(ServiceRequest req,
                                    std::function<void(ServiceResponse)> done) {
  auto job = std::make_unique<Job>();
  job->request = std::move(req);
  job->done = std::move(done);
  return Enqueue(std::move(job));
}

size_t WhyqService::InFlight() const {
  MutexLock lock(mu_);
  return in_flight_;
}

bool WhyqService::WaitDrained(double timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(timeout_ms));
  MutexLock lock(mu_);
  while (in_flight_ != 0) {
    if (!drain_cv_.WaitUntil(mu_, deadline)) return in_flight_ == 0;
  }
  return true;
}

ServiceResponse WhyqService::Execute(const ServiceRequest& req) {
  stats_.RecordReceived();
  CancelToken token;
  double deadline =
      req.deadline_ms > 0 ? req.deadline_ms : cfg_.default_deadline_ms;
  token.SetDeadlineAfterMillis(deadline);
  Timer timer;
  return RunContained(req, &token, timer, /*queue_ms=*/0.0);
}

ServiceResponse WhyqService::RunContained(const ServiceRequest& req,
                                          const CancelToken* token,
                                          const Timer& timer,
                                          double queue_ms) {
  // Contain per-request failures: an exception escaping a worker thread
  // would std::terminate the whole service, and one escaping Execute()
  // would report the same workload differently than the pooled path.
  try {
    return Run(req, token, timer, queue_ms);
  } catch (const std::exception& e) {
    ServiceResponse r;
    r.status = ResponseStatus::kBadRequest;
    r.error = std::string("internal error: ") + e.what();
    r.latency_ms = timer.ElapsedMillis();
    r.trace.queue_ms = queue_ms;
    stats_.RecordBadRequest();
    return r;
  } catch (...) {
    ServiceResponse r;
    r.status = ResponseStatus::kBadRequest;
    r.error = "internal error: unknown exception";
    r.latency_ms = timer.ElapsedMillis();
    r.trace.queue_ms = queue_ms;
    stats_.RecordBadRequest();
    return r;
  }
}

void WhyqService::WorkerLoop() {
  for (;;) {
    std::unique_ptr<Job> job;
    {
      MutexLock lock(mu_);
      while (!stopping_ && queue_.empty()) cv_.Wait(mu_);
      if (queue_.empty()) return;  // stopping_ && drained
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    double queue_ms = job->timer.ElapsedMillis();
    ServiceResponse resp =
        RunContained(job->request, &job->token, job->timer, queue_ms);
    if (job->done) {
      job->done(std::move(resp));
    } else {
      job->promise.set_value(std::move(resp));
    }
    // Delivered (callback or future) before the decrement: WaitDrained()
    // returning true means every admitted request has its response.
    {
      MutexLock lock(mu_);
      if (--in_flight_ == 0) drain_cv_.NotifyAll();
    }
  }
}

std::shared_ptr<const Graph> WhyqService::graph() const {
  MutexLock lock(graph_mu_);
  return graph_;
}

std::pair<std::shared_ptr<const Graph>, uint64_t> WhyqService::PinEpoch()
    const {
  MutexLock lock(graph_mu_);
  return {graph_, plan_fp_};
}

StatsSnapshot WhyqService::Stats() const {
  StatsSnapshot s = stats_.Snapshot();
  if (cfg_.plan_store != nullptr) {
    PlanStore::Counters c = cfg_.plan_store->counters();
#define WHYQ_COPY_PLAN_STORE(name, key, help) s.plan_store_##name = c.name;
    WHYQ_PLAN_STORE_COUNTERS(WHYQ_COPY_PLAN_STORE)
#undef WHYQ_COPY_PLAN_STORE
  }
  return s;
}

bool WhyqService::ApplyUpdate(const UpdateBatch& batch, UpdateResult* result) {
  // Writers serialize across the whole sequence; readers keep pinning the
  // published epoch without ever taking update_mu_.
  MutexLock serialize(update_mu_);
  std::shared_ptr<const Graph> base = graph();
  auto next = std::make_shared<Graph>();
  if (!base->ApplyUpdate(batch, next.get(), result)) return false;
  // Invalidate before publishing: entries of the old epoch either carry
  // over (rekeyed under the new prefix, artifacts reused) or drop. A
  // concurrent old-epoch request finishing in this window can re-insert
  // under the old prefix; such an entry is unreachable once the swap lands
  // and ages out of the LRU.
  PreparedQueryCache::DeltaOutcome outcome = cache_.ApplyDelta(
      GraphEpochPrefix(*base), GraphEpochPrefix(*next), result->delta);
  uint64_t generation = next->generation();
  uint64_t old_fp = 0;
  uint64_t new_fp = 0;
  if (cfg_.plan_store != nullptr) {
    // The new epoch's content hash (an update never targets a frozen
    // graph, so this is always a real fingerprint pass).
    new_fp = GraphFingerprint(*next);
    MutexLock lock(graph_mu_);
    old_fp = plan_fp_;
  }
  PlanStamp new_stamp{new_fp, next->identity(), generation};
  {
    MutexLock lock(graph_mu_);
    graph_ = std::move(next);
    plan_fp_ = new_fp;
  }
  stats_.RecordUpdate(generation, outcome.invalidated, outcome.rekeyed);
  if (cfg_.plan_store != nullptr) {
    // Mirror the cache's verdicts onto the stored files: dropped plans are
    // deleted (their epoch is gone — a stale plan must never be servable),
    // carried plans are restamped to the new fingerprint/generation.
    cfg_.plan_store->OnUpdate(old_fp, new_stamp,
                              std::move(outcome.dropped_bodies),
                              std::move(outcome.rekeyed_bodies));
  }
  return true;
}

ServiceResponse WhyqService::Run(const ServiceRequest& req,
                                 const CancelToken* token,
                                 const Timer& timer, double queue_ms) {
  // Pin the current epoch for the whole request: ApplyUpdate publishes a
  // NEW graph value instead of mutating this one, so everything below —
  // including the prepared artifacts keyed by this epoch's prefix — reads
  // one consistent graph no matter how many updates land meanwhile.
  auto [pinned, plan_fp] = PinEpoch();
  const Graph& g = *pinned;
  ServiceResponse resp;
  resp.graph = pinned;
  resp.trace.queue_ms = queue_ms;
  // Stage clock, restarted at each boundary. The three stages below plus
  // queue_ms partition latency_ms (validation counts toward parse).
  Timer stage;
  std::string klass = std::string(RequestKindName(req.kind)) + "/" +
                      AlgoChoiceName(req.algo);

  auto fail = [&](const std::string& msg) {
    resp.status = ResponseStatus::kBadRequest;
    resp.error = msg;
    resp.trace.parse_ms = stage.ElapsedMillis();  // all failures pre-parse
    resp.latency_ms = timer.ElapsedMillis();
    stats_.RecordBadRequest();
    return resp;
  };

  if ((req.kind == RequestKind::kWhy || req.kind == RequestKind::kWhyNot) &&
      req.entities.empty()) {
    return fail("why/whynot requests need at least one entity");
  }
  for (NodeId v : req.entities) {
    if (v >= g.node_count()) {
      return fail("entity id " + std::to_string(v) + " out of range");
    }
  }

  std::string parse_error;
  std::optional<Query> parsed = ParseQuery(req.query_text, g, &parse_error);
  if (!parsed.has_value()) return fail("query parse error: " + parse_error);
  resp.trace.parse_ms = stage.ElapsedMillis();
  stage.Reset();

  // Prepared artifacts: canonical-form LRU lookup, build on miss. A build
  // clipped by the deadline stays request-local (never cached).
  AnswerConfig cfg = req.config;
  if (cfg.threads == 0) cfg.threads = cfg_.intra_threads;
  std::string canonical = WriteQuery(*parsed, g);
  std::string key =
      GraphEpochPrefix(g) +
      PreparedQueryKeyBody(cfg.semantics, cfg.path_index_paths, canonical);
  std::shared_ptr<const PreparedQuery> prepared = cache_.Get(key);
  resp.cache_hit = prepared != nullptr;
  if (prepared == nullptr && cfg_.plan_store != nullptr) {
    // Store consult on a memory miss: a validated load replaces the whole
    // build below for the cost of reading one file. It still counts as a
    // cache miss (the hits/misses partition of completed is untouched);
    // the store's own hit/miss counters tell the two miss flavors apart.
    prepared = cfg_.plan_store->TryLoad(g, plan_fp, cfg.semantics,
                                        cfg.path_index_paths, canonical);
    if (prepared != nullptr) cache_.Put(key, prepared);
  }
  if (prepared == nullptr) {
    bool complete = false;
    prepared = PrepareQuery(g, std::move(*parsed), cfg.semantics,
                            cfg.path_index_paths, token, &complete,
                            cfg.threads, &resp.trace);
    if (complete) {
      cache_.Put(key, prepared);
      if (cfg_.plan_store != nullptr) {
        cfg_.plan_store->SaveAsync(
            prepared, std::move(canonical), cfg.path_index_paths,
            PlanStamp{plan_fp, g.identity(), g.generation()});
      }
    }
  }
  resp.trace.prepare_ms = stage.ElapsedMillis();
  resp.trace.matcher_candidates = prepared->output_candidates.size();
  stage.Reset();

  cfg.cancel = token;
  cfg.path_index = &prepared->path_index;
  const Query& q = prepared->query;
  const std::vector<NodeId>& answers = prepared->answers;
  resp.base_answers = answers;

  switch (req.kind) {
    case RequestKind::kWhy: {
      WhyQuestion w{req.entities};
      if (req.algo == AlgoChoice::kExact) {
        resp.answer = ExactWhy(g, q, answers, w, cfg);
      } else if (req.algo == AlgoChoice::kIso) {
        resp.answer = IsoWhy(g, q, answers, w, cfg);
      } else {
        resp.answer = ApproxWhy(g, q, answers, w, cfg);
      }
      resp.truncated = !resp.answer.exhaustive;
      break;
    }
    case RequestKind::kWhyNot: {
      WhyNotQuestion w;
      w.missing = req.entities;
      w.condition = req.condition;
      if (req.algo == AlgoChoice::kExact) {
        resp.answer = ExactWhyNot(g, q, answers, w, cfg);
      } else if (req.algo == AlgoChoice::kIso) {
        resp.answer = IsoWhyNot(g, q, answers, w, cfg);
      } else {
        resp.answer = FastWhyNot(g, q, answers, w, cfg);
      }
      resp.truncated = !resp.answer.exhaustive;
      break;
    }
    case RequestKind::kWhyEmpty:
      resp.why_empty = AnswerWhyEmpty(g, q, cfg);
      break;
    case RequestKind::kWhySoMany:
      resp.why_so_many = AnswerWhySoMany(g, q, answers, req.target_k, cfg);
      break;
  }
  if (req.kind == RequestKind::kWhy || req.kind == RequestKind::kWhyNot) {
    // The search's candidate-memo counters add onto whatever the prepare
    // stage recorded (cache misses only).
    AddAnswerWork(resp.answer, req.algo == AlgoChoice::kExact, &resp.trace);
  }
  resp.trace.search_ms = stage.ElapsedMillis();
  // Deadline expiry anywhere in the pipeline (including the prepare step)
  // marks the response truncated, whatever the algorithm reported.
  resp.truncated = resp.truncated || CancelRequested(token);
  resp.status = ResponseStatus::kOk;
  resp.latency_ms = timer.ElapsedMillis();
  stats_.RecordCompleted(klass, resp.latency_ms, resp.truncated,
                         resp.cache_hit, resp.trace);
  return resp;
}

}  // namespace whyq
