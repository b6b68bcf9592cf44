#ifndef WHYQ_COMMON_METRICS_H_
#define WHYQ_COMMON_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "common/stats_fields.h"

namespace whyq {

/// Monotonic event counter. `Add` is lock-free and safe from any thread;
/// `Value` is a relaxed read (exact for quiescent readers, never stale by
/// more than the in-flight increments). Copying is intentionally disabled:
/// a counter identifies one time series, snapshot readers take `Value()`.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// Fixed-size log-bucketed streaming histogram over positive magnitudes
/// (latencies in milliseconds, sizes, ...): O(1) Record, O(1) memory
/// (kBucketCount * 8 bytes), and quantiles over the *whole* stream — no
/// sample buffer to fill up, so percentiles never freeze on old traffic.
///
/// Buckets subdivide each power of two into kSubBuckets equal-width slices
/// (an HdrHistogram-style layout), covering [2^kMinExp, 2^kMaxExp) ms —
/// about 1 microsecond to 70 minutes — with <= 1/kSubBuckets relative
/// bucket width. Values outside the range clamp into the edge buckets.
/// count/sum/min/max are tracked exactly; only quantiles are bucketed
/// (returned as the geometric midpoint of the selected bucket, clamped to
/// the exact [min, max] envelope).
///
/// Thread-safety: not internally synchronized — the owner serializes
/// writers and snapshots (ServiceStats records under its mutex).
class StreamingHistogram {
 public:
  static constexpr int kMinExp = -10;      // 2^-10 ms ~ 1 us
  static constexpr int kMaxExp = 22;       // 2^22 ms ~ 70 min
  static constexpr size_t kSubBuckets = 8; // per power of two
  static constexpr size_t kBucketCount =
      static_cast<size_t>(kMaxExp - kMinExp) * kSubBuckets;

  void Record(double value);

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }

  /// Nearest-rank quantile, q in [0, 1] (0.95 -> p95). Exact rank over the
  /// bucket counts; value resolution is the bucket width (<= 12.5%
  /// relative). Returns 0 when empty.
  double Quantile(double q) const;

  /// Bucket geometry (for exporters): [lower, upper) bounds in value units
  /// and the per-bucket count. Indices in [0, kBucketCount).
  static double BucketLowerBound(size_t i);
  static double BucketUpperBound(size_t i) { return BucketLowerBound(i + 1); }
  uint64_t BucketCount(size_t i) const { return buckets_[i]; }

  /// Bucket index a value lands in (clamped to the covered range).
  static size_t BucketIndex(double value);

 private:
  uint64_t buckets_[kBucketCount] = {};
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Candidate-memo counters of one MatchContext (matcher/match_context.h),
/// summed over several contexts with Add. Rows: WHYQ_CTX_COUNTERS.
struct CtxCounters {
  WHYQ_CTX_COUNTERS(WHYQ_STATS_U64)

  void Add(const CtxCounters& o) { WHYQ_CTX_COUNTERS(WHYQ_STATS_ADD) }
};

/// Per-request breakdown threaded through the serving pipeline: where one
/// response's wall clock went (stage timings, ms) and how much hot-loop
/// work it did (counters). Filled by WhyqService::Run / PrepareQuery and
/// returned on every ServiceResponse; aggregated by ServiceStats; rendered
/// by `whyq_cli --trace` and the slow-query log. Members and their meaning:
/// WHYQ_TRACE_STAGES, WHYQ_WORK_COUNTERS and WHYQ_CTX_COUNTERS (as ctx_*)
/// in common/stats_fields.h.
///
/// The four top-level stages partition a request's latency:
///   queue_ms + parse_ms + prepare_ms + search_ms ~= latency_ms
/// (the residue is bookkeeping between timers, well under 5%). The three
/// prepare sub-stages are only nonzero on a prepared-cache miss; on a hit
/// prepare_ms is just the lookup. The ctx_* counters sum every context the
/// request used (prepare-stage context + all evaluator/slot contexts).
struct RequestTrace {
  WHYQ_TRACE_STAGES(WHYQ_STATS_MS)
  WHYQ_WORK_COUNTERS(WHYQ_STATS_U64)
  WHYQ_CTX_COUNTERS(WHYQ_STATS_CTX_U64)

  /// Adds one context's candidate-memo counters onto the ctx_* members.
  void AddCtx(const CtxCounters& o) {
    WHYQ_CTX_COUNTERS(WHYQ_STATS_ADD_FROM_CTX)
  }

  /// Sum of the four top-level stages (the accounted share of latency).
  double StagesTotalMs() const {
    return queue_ms + parse_ms + prepare_ms + search_ms;
  }

  /// Three-line human-readable rendering (stages, work, ctx counters).
  std::string ToString() const;
};

}  // namespace whyq

#endif  // WHYQ_COMMON_METRICS_H_
