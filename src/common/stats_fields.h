#ifndef WHYQ_COMMON_STATS_FIELDS_H_
#define WHYQ_COMMON_STATS_FIELDS_H_

#include <cstdint>

// The one declaration of every serialized stats counter. Each family is an
// X-macro list of rows
//
//   X(member, "json_key", "help")
//
// and the stats structs (RequestTrace, StageTotals, WorkTotals,
// ServiceCounters, PlanStore::Counters, ServerSnapshot, MatchContext's
// CtxCounters), their Add() methods and their JSON emitters are all
// expansions of these lists. Adding a counter is one row here plus one row
// in the matching docs/ARCHITECTURE.md glossary table (the glossary test
// in tests/lint_test.cc walks every list).

// One row per line keeps each counter one diffable line.
// clang-format off

/// RequestTrace stage timings (ms). The four top-level stages partition a
/// request's latency; the three prepare sub-stages are nonzero only on a
/// prepared-cache miss. Keys are the stage_totals_ms / stages_ms names.
#define WHYQ_TRACE_STAGES(X)                                                  \
  X(queue_ms, "queue", "submission -> worker pickup")                         \
  X(parse_ms, "parse", "request validation + query-DSL parse")                \
  X(prepare_ms, "prepare", "cache lookup (+ build on a miss)")                \
  X(candidates_ms, "candidates", "output-candidate filter (miss only)")       \
  X(answer_match_ms, "answer_match", "answer-set match (miss only)")          \
  X(path_index_ms, "path_index", "PathIndex sampling (miss only)")            \
  X(search_ms, "search", "the question algorithm itself")

/// StageTotals: the trace stages summed, plus the latency they decompose.
#define WHYQ_STAGE_TOTALS(X)                                                  \
  WHYQ_TRACE_STAGES(X)                                                        \
  X(latency_ms, "latency", "end-to-end latency the stages decompose")

/// Hot-loop work counters of one request (RequestTrace) or summed over
/// many (WorkTotals, JSON "work").
#define WHYQ_WORK_COUNTERS(X)                                                 \
  X(matcher_candidates, "matcher_candidates", "|output-candidate set| used")  \
  X(mbs_enumerated, "mbs_enumerated", "maximal bounded sets emitted (exact)") \
  X(mbs_verified, "mbs_verified", "... of which verified (exact)")            \
  X(guard_checks, "guard_checks",                                             \
    "guard admission checks run, one per distinct set (exact)")               \
  X(greedy_rounds, "greedy_rounds", "selection rounds (greedy algorithms)")

/// MatchContext candidate-memo counters (CtxCounters); RequestTrace,
/// WorkTotals and MatcherStats carry them as ctx_<member>. Zero under
/// simulation semantics (no context there).
#define WHYQ_CTX_COUNTERS(X)                                                  \
  X(hits, "ctx_hits", "memoized candidate-set lookups served")                \
  X(misses, "ctx_misses", "sets built by scanning a label bucket")            \
  X(delta_builds, "ctx_delta_builds",                                         \
    "sets built by filtering a cached parent")                                \
  X(pruned, "ctx_pruned", "match attempts skipped via bitmaps")

/// Service counters (StatsSnapshot, JSON "counters"). received, rejected,
/// shutdown and bad_requests are lock-free Counters in ServiceStats; the
/// rest are updated under its mutex.
#define WHYQ_SERVICE_COUNTERS(X)                                              \
  X(received, "received", "accepted into the queue (or executed inline)")     \
  X(rejected, "rejected", "backpressure: bounded queue was full")             \
  X(shutdown, "shutdown", "submitted after Stop(), resolved kShutdown")       \
  X(completed, "completed", "ok responses produced")                          \
  X(truncated, "truncated", "... of which deadline/cancellation clipped")     \
  X(bad_requests, "bad_requests",                                             \
    "invalid input or contained internal error")                              \
  X(cache_hits, "cache_hits", "prepared-question artifacts reused")           \
  X(cache_misses, "cache_misses", "built fresh (and inserted when complete)") \
  X(updates_applied, "updates_applied", "successful ApplyUpdate publishes")   \
  X(graph_generation, "graph_generation",                                     \
    "generation() of the published epoch")                                    \
  X(cache_invalidated, "cache_invalidated",                                   \
    "prepared entries dropped by updates")                                    \
  X(cache_rekeyed, "cache_rekeyed", "prepared entries carried across epochs")

/// PlanStore::Counters; StatsSnapshot carries them as plan_store_<member>
/// (all zero when no store is configured).
#define WHYQ_PLAN_STORE_COUNTERS(X)                                           \
  X(hits, "plan_store_hits", "TryLoad served a validated plan")               \
  X(misses, "plan_store_misses", "TryLoad found nothing usable")              \
  X(writes, "plan_store_writes",                                              \
    "written to a temp file and renamed into place (saves + restamps)")       \
  X(evictions, "plan_store_evictions",                                        \
    "files dropped by the LRU byte budget")                                   \
  X(invalid, "plan_store_invalid",                                            \
    "files rejected (corrupt/stale) and deleted")

/// ServerSnapshot: the daemon's monotonic counters (JSON "server" block).
#define WHYQ_SERVER_COUNTERS(X)                                               \
  X(accepted, "accepted", "connections accepted")                             \
  X(refused, "refused", "connections refused at the connection cap")          \
  X(closed, "closed", "connections fully closed (any reason)")                \
  X(idle_closed, "idle_closed", "... of which by idle timeout")               \
  X(requests, "requests", "complete request lines received")                  \
  X(responded, "responded", "response lines queued (ok, error, rejection)")   \
  X(admitted, "admitted", "requests admitted into a service queue")           \
  X(rejected, "rejected", "admission-control rejections (queue full)")        \
  X(bad_lines, "bad_lines", "malformed, oversized or invalid requests")       \
  X(updates, "updates", "{\"op\":\"update\"} batches applied successfully")   \
  X(drained, "drained", "in-flight responses delivered during drain")

// clang-format on

// Row expanders shared by the structs built from the lists above. The Add
// expanders read the right-hand struct as `o`, the visitors call `f`, and
// the Counter pair declares a lock-free `Counter <member>_` and reads it
// into the snapshot `out`.
#define WHYQ_STATS_U64(name, key, help) uint64_t name = 0;
#define WHYQ_STATS_MS(name, key, help) double name = 0.0;
#define WHYQ_STATS_CTX_U64(name, key, help) uint64_t ctx_##name = 0;
#define WHYQ_STATS_ADD(name, key, help) name += o.name;
#define WHYQ_STATS_ADD_CTX(name, key, help) ctx_##name += o.ctx_##name;
#define WHYQ_STATS_ADD_FROM_CTX(name, key, help) ctx_##name += o.name;
#define WHYQ_STATS_VISIT(name, key, help) f(key, name);
#define WHYQ_STATS_VISIT_CTX(name, key, help) f(key, ctx_##name);
#define WHYQ_STATS_COUNTER(name, key, help) Counter name##_;
#define WHYQ_STATS_READ_COUNTER(name, key, help) out.name = name##_.Value();
#define WHYQ_STATS_PLAN_STORE_U64(name, key, help) \
  uint64_t plan_store_##name = 0;
#define WHYQ_STATS_VISIT_PLAN_STORE(name, key, help) f(key, plan_store_##name);

#endif  // WHYQ_COMMON_STATS_FIELDS_H_
