#ifndef WHYQ_COMMON_CANCEL_H_
#define WHYQ_COMMON_CANCEL_H_

#include <atomic>
#include <chrono>
#include <cstdint>

namespace whyq {

/// Cooperative cancellation + deadline token shared between a request owner
/// (the service, a CLI driver) and the algorithm hot loops (matcher search,
/// MBS enumeration, greedy selection). The owner arms a deadline and/or
/// calls Cancel(); workers poll Expired() at loop granularity and unwind
/// with their best-so-far result, flagging it truncated.
///
/// Thread-safety: Cancel()/Expired() may race freely (atomic flag, relaxed
/// order — cancellation is advisory, not a synchronization edge). The
/// deadline must be armed before the token is shared with workers.
/// Expiry is sticky: once the deadline passes or Cancel() is called, every
/// later Expired() returns true.
class CancelToken {
 public:
  using Clock = std::chrono::steady_clock;

  CancelToken() = default;

  /// Tokens are identified by address (shared by pointer); no copies.
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Arms a wall-clock deadline `ms` milliseconds from now. ms <= 0 leaves
  /// the token deadline-free (expires only via Cancel()).
  void SetDeadlineAfterMillis(double ms) {
    if (ms > 0) {
      deadline_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double, std::milli>(ms));
      has_deadline_ = true;
    }
  }

  void SetDeadline(Clock::time_point tp) {
    deadline_ = tp;
    has_deadline_ = true;
  }

  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  /// Expires the token at its `n`th Expired() poll from now (n >= 1), as
  /// if the deadline fired exactly there. Tests sweep n over every poll
  /// site with it. Arm it before sharing the token.
  void ExpireAtPoll(uint64_t n) {
    polls_left_.store(n, std::memory_order_relaxed);
  }

  bool Cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// The poll: cancelled, or past the armed deadline.
  bool Expired() const {
    if (cancelled_.load(std::memory_order_relaxed)) return true;
    if (polls_left_.load(std::memory_order_relaxed) != 0 &&
        polls_left_.fetch_sub(1, std::memory_order_relaxed) == 1) {
      cancelled_.store(true, std::memory_order_relaxed);
      return true;
    }
    return has_deadline_ && Clock::now() >= deadline_;
  }

  /// Milliseconds until the deadline (negative when past it); a large
  /// positive value when no deadline is armed.
  double RemainingMillis() const {
    if (!has_deadline_) return 1e18;
    return std::chrono::duration<double, std::milli>(deadline_ - Clock::now())
        .count();
  }

 private:
  mutable std::atomic<bool> cancelled_{false};
  mutable std::atomic<uint64_t> polls_left_{0};  // 0: no countdown armed
  bool has_deadline_ = false;  // set before sharing; read-only afterwards
  Clock::time_point deadline_{};
};

/// Null-safe poll helper for `const CancelToken*` config fields.
inline bool CancelRequested(const CancelToken* t) {
  return t != nullptr && t->Expired();
}

}  // namespace whyq

#endif  // WHYQ_COMMON_CANCEL_H_
