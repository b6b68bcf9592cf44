#ifndef WHYQ_SERVICE_STATS_H_
#define WHYQ_SERVICE_STATS_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/mutex.h"

namespace whyq {

/// Latency summary over one request class, derived from a
/// StreamingHistogram covering the whole process lifetime: count/min/mean/
/// max are exact, the percentiles are log-bucketed (<= 12.5% relative
/// resolution) and always reflect *all* traffic — they cannot freeze on a
/// warmup sample buffer.
struct LatencySummary {
  uint64_t count = 0;
  double min_ms = 0.0;
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;

  /// Non-empty histogram buckets as (lower bound ms, count) pairs, for
  /// machine-readable export; bucket upper bound = next bucket's lower.
  std::vector<std::pair<double, uint64_t>> buckets;
};

/// Wall-clock totals (ms) summed over every completed request, one slot
/// per RequestTrace stage plus the end-to-end latency they decompose
/// (WHYQ_STAGE_TOTALS). queue + parse + prepare + search ~= latency (small
/// bookkeeping residue); the prepare sub-stages count cache misses only.
struct StageTotals {
  WHYQ_STAGE_TOTALS(WHYQ_STATS_MS)

  /// Adds one completed request: its trace stages and its latency.
  void Add(const RequestTrace& o, double request_latency_ms) {
    WHYQ_TRACE_STAGES(WHYQ_STATS_ADD)
    latency_ms += request_latency_ms;
  }

  /// Calls f(json_key, value) for every field, in declaration order.
  template <typename F>
  void ForEachField(F&& f) const {
    WHYQ_STAGE_TOTALS(WHYQ_STATS_VISIT)
  }
};

/// Hot-loop work totals summed over every completed request
/// (WHYQ_WORK_COUNTERS, then WHYQ_CTX_COUNTERS as ctx_*).
struct WorkTotals {
  WHYQ_WORK_COUNTERS(WHYQ_STATS_U64)
  WHYQ_CTX_COUNTERS(WHYQ_STATS_CTX_U64)

  /// Adds one request's work counters.
  void Add(const RequestTrace& o) {
    WHYQ_WORK_COUNTERS(WHYQ_STATS_ADD)
    WHYQ_CTX_COUNTERS(WHYQ_STATS_ADD_CTX)
  }

  /// Calls f(json_key, value) for every field, in declaration order.
  template <typename F>
  void ForEachField(F&& f) const {
    WHYQ_WORK_COUNTERS(WHYQ_STATS_VISIT)
    WHYQ_CTX_COUNTERS(WHYQ_STATS_VISIT_CTX)
  }
};

/// One slow request retained by the bounded slow-query log.
struct SlowQueryEntry {
  uint64_t seq = 0;  // completion index (1-based) when it was recorded
  std::string klass;
  double latency_ms = 0.0;
  bool truncated = false;
  bool cache_hit = false;
  RequestTrace trace;
};

/// The service's counter block (JSON "counters"): WHYQ_SERVICE_COUNTERS,
/// then WHYQ_PLAN_STORE_COUNTERS as plan_store_*.
///
/// graph_generation is the published epoch's generation(); for a
/// text-loaded graph it equals updates_applied (every successful
/// ApplyUpdate bumps both by one). cache_invalidated counts prepared
/// entries dropped because their footprint intersected an update delta —
/// each will cost a later cache miss if its query returns, so
/// cache_invalidated <= cache_misses once those queries have re-run.
///
/// The plan_store_* counters (service/plan.h) are merged in by
/// WhyqService::Stats when a store is configured; all zero otherwise.
/// Every cache miss makes exactly one store probe, so with a store enabled
///   plan_store_hits + plan_store_misses == cache_misses
/// (tools/check_stats_json.sh reconciles this on a live run).
struct ServiceCounters {
  WHYQ_SERVICE_COUNTERS(WHYQ_STATS_U64)
  WHYQ_PLAN_STORE_COUNTERS(WHYQ_STATS_PLAN_STORE_U64)

  /// Calls f(json_key, value) for every field, in declaration order.
  template <typename F>
  void ForEachField(F&& f) const {
    WHYQ_SERVICE_COUNTERS(WHYQ_STATS_VISIT)
    WHYQ_PLAN_STORE_COUNTERS(WHYQ_STATS_VISIT_PLAN_STORE)
  }
};

/// A consistent copy of the service counters, snapshotable at any time.
///
/// Reconciliation invariants (exact once the service is drained; received
/// may transiently exceed the terminal counts while requests are in
/// flight, never the reverse):
///   received  == completed + bad_requests
///   completed == cache_hits + cache_misses
/// and every Submit() call lands in exactly one of received / rejected /
/// shutdown.
struct StatsSnapshot : ServiceCounters {
  /// Keyed by "<kind>/<algo>" (e.g. "why/auto", "whynot/exact").
  std::map<std::string, LatencySummary> latency;

  StageTotals stages;  // where completed requests spent their time
  WorkTotals work;     // how much hot-loop work they did

  double slow_threshold_ms = 0.0;     // 0 = slow-query log disabled
  std::vector<SlowQueryEntry> slow;   // oldest first, newest last

  /// Multi-line human-readable rendering (one row per request class).
  std::string ToString() const;

  /// Machine-readable JSON object mirroring every field above (stable
  /// key names documented in docs/ARCHITECTURE.md "Stats glossary").
  std::string ToJson() const;
};

/// Thread-safe counter block shared by the workers. Latencies feed one
/// StreamingHistogram per request class — O(1) memory, whole-lifetime
/// percentiles — so snapshots track current traffic forever (the old
/// first-65536-samples buffer froze min/mean/p95/max after warmup).
class ServiceStats {
 public:
  /// Slow-query log: completed requests with latency >= threshold_ms are
  /// retained (newest `capacity`, ring-buffer style). threshold_ms <= 0
  /// disables the log; capacity 0 clamps to 1 when enabled.
  void ConfigureSlowLog(double threshold_ms, size_t capacity)
      WHYQ_EXCLUDES(mu_);

  void RecordReceived() { received_.Add(); }
  void RecordRejected() { rejected_.Add(); }
  void RecordShutdown() { shutdown_.Add(); }
  void RecordBadRequest() { bad_requests_.Add(); }
  void RecordCompleted(const std::string& klass, double latency_ms,
                       bool truncated, bool cache_hit,
                       const RequestTrace& trace) WHYQ_EXCLUDES(mu_);
  /// Convenience for callers without a trace (tests, ad-hoc use).
  void RecordCompleted(const std::string& klass, double latency_ms,
                       bool truncated, bool cache_hit) {
    RecordCompleted(klass, latency_ms, truncated, cache_hit, RequestTrace());
  }
  /// One successful ApplyUpdate publish: the new epoch's generation and
  /// the cache ApplyDelta outcome (entries dropped / carried over).
  void RecordUpdate(uint64_t generation, size_t invalidated, size_t rekeyed)
      WHYQ_EXCLUDES(mu_);

  StatsSnapshot Snapshot() const WHYQ_EXCLUDES(mu_);

 private:
  /// Drops the oldest slow-log entries beyond slow_capacity_ — the shared
  /// tail of ConfigureSlowLog (capacity shrank) and RecordCompleted (one
  /// entry appended). Caller holds mu_.
  void TrimSlowLocked() WHYQ_REQUIRES(mu_);

  // Monotonic submission-side counters: lock-free Counters, each exact on
  // its own. Snapshot() reads them *after* copying the mutex-guarded
  // terminal counts, so received >= completed + bad_requests holds in
  // every snapshot (each completion's RecordReceived happened before it).
  Counter received_;
  Counter rejected_;
  Counter shutdown_;
  Counter bad_requests_;

  mutable Mutex mu_;  // guards everything below
  // Only the terminal and update counters are written here; the four
  // submission-side ones above overwrite theirs in every snapshot.
  ServiceCounters counters_ WHYQ_GUARDED_BY(mu_);
  StageTotals stages_ WHYQ_GUARDED_BY(mu_);
  WorkTotals work_ WHYQ_GUARDED_BY(mu_);
  std::map<std::string, StreamingHistogram> latency_ WHYQ_GUARDED_BY(mu_);
  double slow_threshold_ms_ WHYQ_GUARDED_BY(mu_) = 0.0;
  size_t slow_capacity_ WHYQ_GUARDED_BY(mu_) = 0;
  std::deque<SlowQueryEntry> slow_ WHYQ_GUARDED_BY(mu_);
};

}  // namespace whyq

#endif  // WHYQ_SERVICE_STATS_H_
