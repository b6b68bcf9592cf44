#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <utility>

namespace whyq {

namespace {

// Set for the lifetime of a pool worker thread: ParallelFor called from a
// body that is already running on a pool worker degrades to inline serial
// execution instead of enqueueing (and possibly waiting on) more tasks.
thread_local bool tl_pool_worker = false;

}  // namespace

/// Shared bookkeeping of one ParallelFor call. Helpers that are dequeued
/// only after the call completed find `next` exhausted and return without
/// touching `body` — the state outlives the call via shared_ptr, the
/// caller's stack does not need to.
struct ThreadPool::ForState {
  size_t n = 0;
  std::function<void(size_t, size_t)> body;

  std::atomic<size_t> next{0};     // next unclaimed index
  std::atomic<bool> abort{false};  // first exception stops further claims

  Mutex mu;
  CondVar cv;
  size_t executing WHYQ_GUARDED_BY(mu) = 0;  // helpers inside RunSlot
  std::exception_ptr error WHYQ_GUARDED_BY(mu);
};

ThreadPool::ThreadPool(size_t workers) {
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stopping_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
}

void ThreadPool::WorkerLoop() {
  tl_pool_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!stopping_ && tasks_.empty()) cv_.Wait(mu_);
      if (tasks_.empty()) return;  // stopping_ && drained
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

size_t ThreadPool::queued_tasks() const {
  MutexLock lock(mu_);
  return tasks_.size();
}

void ThreadPool::RunSlot(ForState& state, size_t slot, size_t i) {
  for (; i < state.n && !state.abort.load(); i = state.next.fetch_add(1)) {
    try {
      state.body(i, slot);
    } catch (...) {
      MutexLock lock(state.mu);
      if (!state.error) state.error = std::current_exception();
      state.abort.store(true);
    }
  }
}

void ThreadPool::ParallelFor(
    size_t n, size_t width,
    const std::function<void(size_t, size_t)>& body) {
  if (n == 0) return;
  size_t helpers = width > 1 ? width - 1 : 0;
  helpers = std::min(helpers, workers_.size());
  helpers = std::min(helpers, n - 1);
  if (helpers == 0 || tl_pool_worker) {
    // Serial reference path (also taken for nested calls from pool
    // workers): a plain ascending loop, exceptions propagate naturally.
    for (size_t i = 0; i < n; ++i) body(i, 0);
    return;
  }

  auto state = std::make_shared<ForState>();
  state->n = n;
  state->body = body;
  // The caller claims its first index before any helper can run, so slot 0
  // always executes at least one body (n > 1 here).
  const size_t first = state->next.fetch_add(1);
  {
    MutexLock lock(mu_);
    if (!stopping_) {
      for (size_t s = 1; s <= helpers; ++s) {
        tasks_.emplace_back([state, s] {
          {
            MutexLock slock(state->mu);
            ++state->executing;
          }
          RunSlot(*state, s, state->next.fetch_add(1));
          {
            MutexLock slock(state->mu);
            --state->executing;
          }
          state->cv.NotifyAll();
        });
      }
    }
  }
  cv_.NotifyAll();

  RunSlot(*state, 0, first);  // the caller is executor slot 0

  // The caller's loop only returns once every index was claimed; wait for
  // helpers that are still running a claimed body. Helpers dequeued later
  // find the counter exhausted and never touch `body` again.
  {
    MutexLock lock(state->mu);
    while (state->executing != 0) state->cv.Wait(state->mu);
    if (state->error) std::rethrow_exception(state->error);
  }
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool pool([] {
    size_t hw = std::thread::hardware_concurrency();
    return std::max<size_t>(hw, 4) - 1;
  }());
  return pool;
}

size_t ResolveParallelWidth(size_t threads) {
  if (threads <= 1) return 1;
  return std::min(threads, ThreadPool::Shared().worker_count() + 1);
}

}  // namespace whyq
