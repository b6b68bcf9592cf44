#ifndef WHYQ_SERVICE_SERVICE_H_
#define WHYQ_SERVICE_SERVICE_H_

#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/mutex.h"
#include "common/timer.h"
#include "graph/graph.h"
#include "service/prepared.h"
#include "service/request.h"
#include "service/stats.h"

namespace whyq {

class PlanStore;

/// Tuning for one WhyqService instance.
struct ServiceConfig {
  size_t workers = 4;          // fixed-size pool (inter-request parallelism)
  size_t queue_capacity = 256; // bounded; Submit rejects when full
  size_t cache_capacity = 64;  // prepared-question LRU entries (0 disables)
  double default_deadline_ms = 0;  // applied when a request carries none

  /// Intra-request parallel width substituted when a request leaves
  /// AnswerConfig::threads at 0 (a request's own non-zero knob wins). The
  /// effective core budget is ~workers x intra_threads: a latency-oriented
  /// deployment splits a fixed budget toward intra_threads, a
  /// throughput-oriented one toward workers (see EXPERIMENTS.md).
  size_t intra_threads = 1;

  /// Slow-query log: completed requests with latency >= slow_query_ms are
  /// retained (the newest slow_log_capacity of them, with their full
  /// per-stage RequestTrace) and surfaced by Stats(). 0 disables the log.
  double slow_query_ms = 0;
  size_t slow_log_capacity = 32;

  /// Optional persistent plan store (service/plan.h). When set, a
  /// prepared-cache miss consults the store before building (a validated
  /// load costs file I/O instead of an answer match), completed builds are
  /// persisted off the worker's critical path, boot warm-loads up to
  /// cache_capacity stored plans into the cache, and ApplyUpdate mirrors
  /// its drop/rekey verdicts onto the stored files. Give each service its
  /// own store (or directory): the store's counters are reported through
  /// this service's Stats().
  std::shared_ptr<PlanStore> plan_store = nullptr;
};

/// The outcome of a non-blocking TrySubmit: exactly what happened to the
/// request at admission, as an explicit status instead of Submit()'s
/// optional-future encoding. The daemon's admission-control path branches
/// on this to emit rejected-with-retry_after_ms responses.
enum class SubmitResult {
  kAccepted,   // enqueued; the callback will run exactly once
  kQueueFull,  // bounded queue at capacity — backpressure, retry later
  kShutdown,   // Stop() already ran; the request was never enqueued
};

/// A concurrent, deadline-aware explanation service over one immutable
/// shared Graph (DESIGN.md "Serving architecture").
///
/// Request lifecycle: Submit() stamps the deadline and enqueues (bounded
/// queue — a full queue rejects immediately with backpressure, it never
/// blocks the caller); a worker pops the job, resolves the prepared
/// artifacts for its query (LRU cache keyed by canonical query text +
/// semantics: answer set, output candidates, sampled PathIndex), runs the
/// requested algorithm with the request's CancelToken plumbed into the
/// matcher/enumeration hot loops, and hands the response to the request's
/// callback (Submit's is a future). A request past its deadline unwinds
/// mid-search and reports its best-so-far rewrite with `truncated` set — a
/// slow question degrades, it never wedges a worker.
///
/// Sharing rule: every graph EPOCH (and every cached PreparedQuery) is
/// immutable and shared across workers; all per-request state (engines,
/// evaluators, matchers) is worker-local. ApplyUpdate() never mutates the
/// published graph — it builds the next epoch (untouched columns shared
/// copy-on-write) and swaps the shared_ptr; each request pins the epoch
/// current at the moment it starts running and keeps it until its response
/// is delivered, so readers never observe a half-applied batch
/// (docs/ARCHITECTURE.md "Mutable graphs & epochs").
///
/// Thread-safety: every public method may be called concurrently from any
/// thread — Submit/Execute/Stats/Stop/ApplyUpdate synchronize internally.
/// Destruction (or Stop) must not race with Submit from a thread that
/// expects the request to be accepted; late Submits resolve with kShutdown.
class WhyqService {
 public:
  /// The service shares ownership of the graph; callers may keep using it
  /// concurrently for reads. Degenerate config values are clamped rather
  /// than silently wedging the service: workers and queue_capacity of 0
  /// become 1 (a zero-capacity queue would reject every Submit with no
  /// diagnostic; a zero-worker pool would never resolve a future).
  explicit WhyqService(std::shared_ptr<const Graph> graph,
                       ServiceConfig cfg = ServiceConfig());

  /// Convenience: take over a graph by value.
  explicit WhyqService(Graph&& graph, ServiceConfig cfg = ServiceConfig());

  ~WhyqService();  // Stop()s: drains the queue, joins the workers

  WhyqService(const WhyqService&) = delete;
  WhyqService& operator=(const WhyqService&) = delete;

  /// Enqueues a request through TrySubmit, with a future as its callback.
  /// Returns std::nullopt when the bounded queue is full (backpressure —
  /// the caller decides whether to retry) or a future that resolves to the
  /// response otherwise. After Stop(), the returned future resolves
  /// immediately with ResponseStatus::kShutdown.
  std::optional<std::future<ServiceResponse>> Submit(ServiceRequest req)
      WHYQ_EXCLUDES(mu_);

  /// Non-blocking, callback-based admission: on kAccepted the worker that
  /// executes the request invokes `done` exactly once (on the worker
  /// thread — `done` must be fast and must not throw; the daemon's done
  /// pushes the encoded response onto a completion queue and wakes the
  /// event loop). On kQueueFull / kShutdown the request was not admitted
  /// and `done` is never invoked — the caller answers the client itself
  /// (retry_after_ms / drain refusal). Never blocks the calling thread.
  SubmitResult TrySubmit(ServiceRequest req,
                         std::function<void(ServiceResponse)> done)
      WHYQ_EXCLUDES(mu_);

  /// Requests admitted (Submit or TrySubmit) whose response has not been
  /// delivered yet — queued plus executing. The drain gauge.
  size_t InFlight() const WHYQ_EXCLUDES(mu_);

  /// Blocks until InFlight() reaches 0 or `timeout_ms` elapses; true when
  /// drained. Pair with Stop() (or just stop submitting) for graceful
  /// shutdown: in-flight work finishes, nothing new is admitted.
  bool WaitDrained(double timeout_ms) WHYQ_EXCLUDES(mu_);

  /// Synchronous execution on the caller's thread, sharing the same
  /// prepared-question cache and stats. With no deadline the result is
  /// byte-identical to the pooled path — the determinism the stress test
  /// pins down.
  ServiceResponse Execute(const ServiceRequest& req);

  /// Stops accepting new requests, lets the workers drain what is queued,
  /// and joins them. Idempotent.
  void Stop() WHYQ_EXCLUDES(mu_);

  /// Applies `batch` to the current epoch and atomically publishes the next
  /// one. In-flight requests keep the epoch they pinned (they never observe
  /// a half-applied batch); requests starting after the swap see the new
  /// epoch. The prepared-query cache is invalidated precisely: entries
  /// whose footprint intersects the batch delta are dropped (counted
  /// cache_invalidated), provably-unaffected entries are rekeyed to the new
  /// epoch (counted cache_rekeyed) with their artifacts — including the
  /// query-only PathIndex samples — reused verbatim. Updates serialize
  /// against each other; reads never block. Returns false with
  /// result->status/error set on validation failure or a frozen
  /// (snapshot-backed) graph, leaving the published epoch unchanged.
  bool ApplyUpdate(const UpdateBatch& batch, UpdateResult* result)
      WHYQ_EXCLUDES(update_mu_, graph_mu_);

  /// Counter/latency snapshot; plan-store counters (when configured) are
  /// merged into the plan_store_* fields.
  StatsSnapshot Stats() const;
  size_t cache_size() const { return cache_.size(); }

  /// Pins the current graph epoch: the returned shared_ptr keeps that
  /// epoch's columns alive across any number of concurrent ApplyUpdate
  /// publishes. Callers needing a stable view across several calls must
  /// hold one pin rather than re-fetching.
  std::shared_ptr<const Graph> graph() const WHYQ_EXCLUDES(graph_mu_);

  const ServiceConfig& config() const { return cfg_; }

 private:
  struct Job {
    ServiceRequest request;
    std::function<void(ServiceResponse)> done;  // runs once, on the worker
    CancelToken token;  // armed at submission; address-stable (no moves)
    Timer timer;        // latency clock starts at submission
  };

  ServiceResponse Run(const ServiceRequest& req, const CancelToken* token,
                      const Timer& timer, double queue_ms);
  /// Pins the published graph together with the plan fingerprint computed
  /// for that same epoch — one lock acquisition, so a request can never
  /// pair a new graph with an older epoch's fingerprint.
  std::pair<std::shared_ptr<const Graph>, uint64_t> PinEpoch() const
      WHYQ_EXCLUDES(graph_mu_);
  /// Run() with per-request failures contained as kBadRequest responses —
  /// the one execution path shared by WorkerLoop() and Execute(), so an
  /// exception escaping an algorithm is reported (and counted) the same
  /// way whether the request was pooled or inline.
  ServiceResponse RunContained(const ServiceRequest& req,
                               const CancelToken* token, const Timer& timer,
                               double queue_ms);
  void WorkerLoop();

  // The published epoch. graph_mu_ guards only the pointer swap/read (pin
  // and publish are O(1) under it); the Graph objects themselves are
  // immutable. update_mu_ serializes writers across the whole
  // apply-invalidate-publish sequence so deltas land in order.
  mutable Mutex graph_mu_;
  std::shared_ptr<const Graph> graph_ WHYQ_GUARDED_BY(graph_mu_);
  // The published epoch's PlanFingerprint. Only meaningful when a plan
  // store is configured; republished with the graph.
  uint64_t plan_fp_ WHYQ_GUARDED_BY(graph_mu_) = 0;
  Mutex update_mu_;
  ServiceConfig cfg_;
  PreparedQueryCache cache_;
  ServiceStats stats_;

  mutable Mutex mu_;
  CondVar cv_;
  CondVar drain_cv_;  // signaled when in_flight_ hits 0
  std::deque<std::unique_ptr<Job>> queue_ WHYQ_GUARDED_BY(mu_);
  size_t in_flight_ WHYQ_GUARDED_BY(mu_) = 0;  // admitted, not delivered
  bool stopping_ WHYQ_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_ WHYQ_GUARDED_BY(mu_);
};

}  // namespace whyq

#endif  // WHYQ_SERVICE_SERVICE_H_
