#include "service/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <type_traits>

#include "common/json_escape.h"
#include "common/table.h"

namespace whyq {

namespace {

std::string JsonNum(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

// Appends `t` as one JSON object, a "key":value pair per field its
// ForEachField visits: integers in decimal, doubles via JsonNum.
template <typename T>
void AppendFields(std::ostringstream& os, const T& t) {
  const char* sep = "{";
  t.ForEachField([&](const char* key, auto value) {
    os << sep << "\"" << key << "\":";
    if constexpr (std::is_floating_point_v<decltype(value)>) {
      os << JsonNum(value);
    } else {
      os << value;
    }
    sep = ",";
  });
  os << "}";
}

}  // namespace

void ServiceStats::TrimSlowLocked() {
  while (slow_.size() > slow_capacity_) slow_.pop_front();
}

void ServiceStats::ConfigureSlowLog(double threshold_ms, size_t capacity) {
  MutexLock lock(mu_);
  slow_threshold_ms_ = threshold_ms > 0 ? threshold_ms : 0.0;
  slow_capacity_ = slow_threshold_ms_ > 0 ? std::max<size_t>(capacity, 1) : 0;
  TrimSlowLocked();
}

void ServiceStats::RecordCompleted(const std::string& klass,
                                   double latency_ms, bool truncated,
                                   bool cache_hit,
                                   const RequestTrace& trace) {
  MutexLock lock(mu_);
  ++counters_.completed;
  if (truncated) ++counters_.truncated;
  if (cache_hit) {
    ++counters_.cache_hits;
  } else {
    ++counters_.cache_misses;
  }
  latency_[klass].Record(latency_ms);
  stages_.Add(trace, latency_ms);
  work_.Add(trace);
  if (slow_threshold_ms_ > 0 && latency_ms >= slow_threshold_ms_) {
    SlowQueryEntry e;
    e.seq = counters_.completed;
    e.klass = klass;
    e.latency_ms = latency_ms;
    e.truncated = truncated;
    e.cache_hit = cache_hit;
    e.trace = trace;
    slow_.push_back(std::move(e));
    TrimSlowLocked();
  }
}

void ServiceStats::RecordUpdate(uint64_t generation, size_t invalidated,
                                size_t rekeyed) {
  MutexLock lock(mu_);
  ++counters_.updates_applied;
  counters_.graph_generation = generation;
  counters_.cache_invalidated += invalidated;
  counters_.cache_rekeyed += rekeyed;
}

StatsSnapshot ServiceStats::Snapshot() const {
  StatsSnapshot out;
  {
    MutexLock lock(mu_);
    static_cast<ServiceCounters&>(out) = counters_;
    out.stages = stages_;
    out.work = work_;
    out.slow_threshold_ms = slow_threshold_ms_;
    out.slow.assign(slow_.begin(), slow_.end());
    for (const auto& [klass, hist] : latency_) {
      if (hist.count() == 0) continue;
      LatencySummary s;
      s.count = hist.count();
      s.min_ms = hist.min();
      s.mean_ms = hist.mean();
      s.p50_ms = hist.Quantile(0.50);
      s.p95_ms = hist.Quantile(0.95);
      s.p99_ms = hist.Quantile(0.99);
      s.max_ms = hist.max();
      for (size_t i = 0; i < StreamingHistogram::kBucketCount; ++i) {
        if (hist.BucketCount(i) > 0) {
          s.buckets.emplace_back(StreamingHistogram::BucketLowerBound(i),
                                 hist.BucketCount(i));
        }
      }
      out.latency[klass] = std::move(s);
    }
  }
  // Read the submission-side counters *after* the terminal counts so
  // received >= completed + bad_requests in every snapshot (each
  // completion's RecordReceived happened strictly before it).
  out.bad_requests = bad_requests_.Value();
  out.rejected = rejected_.Value();
  out.shutdown = shutdown_.Value();
  out.received = received_.Value();
  return out;
}

std::string StatsSnapshot::ToString() const {
  std::ostringstream os;
  os << "requests: received=" << received << " rejected=" << rejected
     << " completed=" << completed << " truncated=" << truncated
     << " bad=" << bad_requests << " shutdown=" << shutdown << "\n";
  os << "prepared cache: hits=" << cache_hits << " misses=" << cache_misses;
  uint64_t looked_up = cache_hits + cache_misses;
  if (looked_up > 0) {
    os << " (" << TextTable::Num(100.0 * static_cast<double>(cache_hits) /
                                     static_cast<double>(looked_up),
                                 1)
       << "% hit rate)";
  }
  os << "\n";
  if (plan_store_hits + plan_store_misses + plan_store_writes +
          plan_store_evictions + plan_store_invalid >
      0) {
    os << "plan store: hits=" << plan_store_hits
       << " misses=" << plan_store_misses << " writes=" << plan_store_writes
       << " evictions=" << plan_store_evictions
       << " invalid=" << plan_store_invalid << "\n";
  }
  if (updates_applied > 0) {
    os << "updates: applied=" << updates_applied
       << " generation=" << graph_generation
       << " cache-invalidated=" << cache_invalidated
       << " cache-rekeyed=" << cache_rekeyed << "\n";
  }
  for (const auto& [klass, s] : latency) {
    os << "  " << klass << ": n=" << s.count << " min="
       << TextTable::Num(s.min_ms, 2) << "ms mean="
       << TextTable::Num(s.mean_ms, 2) << "ms p50="
       << TextTable::Num(s.p50_ms, 2) << "ms p95="
       << TextTable::Num(s.p95_ms, 2) << "ms p99="
       << TextTable::Num(s.p99_ms, 2) << "ms max="
       << TextTable::Num(s.max_ms, 2) << "ms\n";
  }
  if (completed > 0) {
    os << "stage totals: queue=" << TextTable::Num(stages.queue_ms, 1)
       << "ms parse=" << TextTable::Num(stages.parse_ms, 1)
       << "ms prepare=" << TextTable::Num(stages.prepare_ms, 1)
       << "ms (candidates=" << TextTable::Num(stages.candidates_ms, 1)
       << "ms match=" << TextTable::Num(stages.answer_match_ms, 1)
       << "ms path-index=" << TextTable::Num(stages.path_index_ms, 1)
       << "ms) search=" << TextTable::Num(stages.search_ms, 1)
       << "ms | latency=" << TextTable::Num(stages.latency_ms, 1) << "ms\n";
    os << "work totals: candidates=" << work.matcher_candidates
       << " mbs-enumerated=" << work.mbs_enumerated
       << " mbs-verified=" << work.mbs_verified
       << " guard-checks=" << work.guard_checks
       << " greedy-rounds=" << work.greedy_rounds << "\n";
    os << "ctx totals: hits=" << work.ctx_hits
       << " misses=" << work.ctx_misses
       << " delta-builds=" << work.ctx_delta_builds
       << " pruned=" << work.ctx_pruned
       << " literal-scans=" << work.ctx_literal_scans
       << " literal-hits=" << work.ctx_literal_hits;
    uint64_t lookups = work.ctx_hits + work.ctx_misses + work.ctx_delta_builds;
    if (lookups > 0) {
      os << " (" << TextTable::Num(100.0 * static_cast<double>(work.ctx_hits) /
                                       static_cast<double>(lookups),
                                   1)
         << "% hit rate)";
    }
    os << "\n";
  }
  if (slow_threshold_ms > 0) {
    os << "slow queries (>= " << TextTable::Num(slow_threshold_ms, 1)
       << "ms): " << slow.size() << " retained\n";
    for (const SlowQueryEntry& e : slow) {
      os << "  #" << e.seq << " " << e.klass << " "
         << TextTable::Num(e.latency_ms, 2) << "ms"
         << (e.truncated ? " truncated" : "")
         << (e.cache_hit ? " cached" : "") << "\n";
      std::istringstream lines(e.trace.ToString());
      std::string line;
      while (std::getline(lines, line)) os << "    " << line << "\n";
    }
  }
  return os.str();
}

std::string StatsSnapshot::ToJson() const {
  std::ostringstream os;
  os << "{\"counters\":";
  AppendFields(os, static_cast<const ServiceCounters&>(*this));
  os << ",\"latency_ms\":{";
  bool first = true;
  for (const auto& [klass, s] : latency) {
    if (!first) os << ",";
    first = false;
    os << "\"" << JsonEscape(klass) << "\":{\"count\":" << s.count
       << ",\"min\":" << JsonNum(s.min_ms) << ",\"mean\":" << JsonNum(s.mean_ms)
       << ",\"p50\":" << JsonNum(s.p50_ms) << ",\"p95\":" << JsonNum(s.p95_ms)
       << ",\"p99\":" << JsonNum(s.p99_ms) << ",\"max\":" << JsonNum(s.max_ms)
       << ",\"buckets\":[";
    for (size_t i = 0; i < s.buckets.size(); ++i) {
      if (i > 0) os << ",";
      os << "[" << JsonNum(s.buckets[i].first) << "," << s.buckets[i].second
         << "]";
    }
    os << "]}";
  }
  os << "}";
  os << ",\"stage_totals_ms\":";
  AppendFields(os, stages);
  os << ",\"work\":";
  AppendFields(os, work);
  os << ",\"slow_queries\":{\"threshold_ms\":" << JsonNum(slow_threshold_ms)
     << ",\"entries\":[";
  for (size_t i = 0; i < slow.size(); ++i) {
    const SlowQueryEntry& e = slow[i];
    if (i > 0) os << ",";
    os << "{\"seq\":" << e.seq << ",\"class\":\"" << JsonEscape(e.klass)
       << "\",\"latency_ms\":" << JsonNum(e.latency_ms)
       << ",\"truncated\":" << (e.truncated ? "true" : "false")
       << ",\"cache_hit\":" << (e.cache_hit ? "true" : "false")
       << ",\"stages_ms\":";
    StageTotals stages_ms;
    stages_ms.Add(e.trace, e.latency_ms);
    AppendFields(os, stages_ms);
    os << ",\"work\":";
    WorkTotals work_totals;
    work_totals.Add(e.trace);
    AppendFields(os, work_totals);
    os << "}";
  }
  os << "]}}";
  return os.str();
}

}  // namespace whyq
