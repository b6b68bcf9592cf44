#ifndef WHYQ_COMMON_THREAD_POOL_H_
#define WHYQ_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"

namespace whyq {

/// A fixed-size task-queue thread pool, the substrate for *intra-question*
/// parallelism (the inter-request worker pool lives in service/service.h).
/// The three algorithm hot loops — MBS-set verification in
/// ExactWhy/ExactWhyNot, per-round marginal-gain scoring in the greedy
/// algorithms, and candidate filtering over large label buckets — are all
/// embarrassingly parallel per item, and all schedule through ParallelFor().
///
/// Design rules the algorithms rely on:
///  * ParallelFor is *synchronous*: when it returns, every index has been
///    executed (or the first exception has been rethrown) and no task of
///    this call is still running or can run later. Nothing leaks into the
///    pool past the call — a deadline that unwinds an algorithm mid-search
///    leaves no orphaned work behind.
///  * The caller participates as executor slot 0 and always runs index 0
///    (it claims it before enqueueing helpers), so a ParallelFor can never
///    deadlock waiting for pool capacity: with a saturated (or empty) pool
///    the caller simply runs every index itself, serially, in order.
///  * `slot` identifiers are dense in [0, width): each concurrent executor
///    owns one slot for the whole call, which is how callers hand each
///    executor its own non-thread-safe scratch (per-slot MatchEngine-backed
///    evaluators — see why/why_algorithms.cc).
///  * Bodies scheduled from inside a pool worker run inline on that worker
///    (detected via a thread-local flag): nested ParallelFor degrades to
///    serial instead of blocking a worker on queue capacity it may itself
///    be responsible for freeing.
///
/// Thread-safety: ParallelFor and queued_tasks may be called from any
/// number of threads concurrently. Construction/destruction must not race
/// other calls (destruction joins the workers after draining).
class ThreadPool {
 public:
  /// Spawns `workers` pool threads (0 is valid: every ParallelFor then runs
  /// inline on the caller).
  explicit ThreadPool(size_t workers);

  /// Drains queued tasks (they run to completion) and joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t worker_count() const { return workers_.size(); }

  /// Runs body(index, slot) for every index in [0, n), using at most
  /// `width` concurrent executors: the caller (slot 0) plus up to
  /// min(width - 1, worker_count(), n - 1) pool workers (slots 1, 2, ...).
  /// Indices are claimed from a shared counter in ascending order; with
  /// width <= 1 the call is exactly a serial ascending for-loop.
  ///
  /// Blocks until every index has run. If any body throws, remaining
  /// indices are abandoned and the first exception is rethrown here.
  void ParallelFor(size_t n, size_t width,
                   const std::function<void(size_t index, size_t slot)>& body)
      WHYQ_EXCLUDES(mu_);

  /// Tasks currently enqueued but not yet started (test/debug
  /// introspection; completed ParallelFor calls may briefly leave already-
  /// satisfied helper stubs behind, which become no-ops when dequeued).
  size_t queued_tasks() const WHYQ_EXCLUDES(mu_);

  /// The process-wide shared pool, created on first use with
  /// max(hardware_concurrency, 4) - 1 workers. The floor of 3 workers keeps
  /// an explicit `--threads=4` request meaningful on small containers —
  /// oversubscribing cores is then the caller's informed choice.
  static ThreadPool& Shared();

 private:
  struct ForState;

  void WorkerLoop();
  // Runs index `i` (already claimed by this executor), then claims and runs
  // further indices until they run out or a body throws.
  static void RunSlot(ForState& state, size_t slot, size_t i);

  mutable Mutex mu_;
  CondVar cv_;
  std::deque<std::function<void()>> tasks_ WHYQ_GUARDED_BY(mu_);
  bool stopping_ WHYQ_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;  // written only by the constructor
};

/// Resolves an AnswerConfig::threads knob to an executor width for
/// ThreadPool::Shared(): 0 ("unset — host decides, default serial") and 1
/// both mean serial; larger values are capped at worker_count() + 1. The
/// algorithms treat width 1 as the serial reference path.
size_t ResolveParallelWidth(size_t threads);

}  // namespace whyq

#endif  // WHYQ_COMMON_THREAD_POOL_H_
