#ifndef WHYQ_SERVER_LIMITS_H_
#define WHYQ_SERVER_LIMITS_H_

#include <cstddef>
#include <cstdint>

// Every hard limit of the whyq_server daemon path, in one place — the
// pigeonhole pattern (dovecot keeps its RFC 5229 implementation limits in
// a single ext-variables-limits.h, each with the clause that mandates it).
// Nothing under src/server/ may introduce a numeric limit anywhere else:
// whyq-lint rule "server-limits" flags decimal integer literals >= 64 in
// this directory outside this header, so a reviewer can audit the
// daemon's entire resource envelope by reading this file.
//
// Each constant carries its provenance: why the limit exists and what
// breaks without it. Tunables that a deployment may legitimately vary
// (port, worker count, queue depth, timeouts) are *defaults* here and
// overridable via ServerConfig / CLI flags; the byte-size and structural
// caps are enforced unconditionally.

namespace whyq::server {

// --- connection lifecycle --------------------------------------------------

/// Simultaneous client connections. Beyond this the acceptor refuses the
/// socket (one-line error, then close) instead of letting the fd table and
/// per-connection buffers grow unboundedly: with kMaxConnBufferBytes each,
/// 256 connections bound worst-case buffer memory at ~1 GiB. Overridable
/// (ServerConfig::max_connections) for bigger boxes.
inline constexpr size_t kMaxConnections = 256;

/// listen(2) backlog. Matches the historic SOMAXCONN default; bursts
/// beyond it are absorbed by client retry, not by server memory.
inline constexpr int kListenBacklog = 128;

/// Idle connections (no request in flight, no bytes received) are closed
/// after this many milliseconds so abandoned clients cannot pin fds
/// against kMaxConnections. Default 60 s — one order above any sane
/// client's keepalive interval. Overridable (ServerConfig::idle_timeout_ms).
inline constexpr double kIdleTimeoutMs = 60000.0;

/// Graceful-drain budget on SIGTERM/SIGINT: stop accepting, finish
/// in-flight requests and flush their responses, then exit 0. Requests
/// still unfinished at the deadline are abandoned and the server exits
/// nonzero — a deploy must never hang on one pathological question.
/// Matches the common supervisor kill grace (systemd TimeoutStopSec
/// headroom). Overridable (ServerConfig::drain_deadline_ms).
inline constexpr double kDrainDeadlineMs = 5000.0;

/// Event-loop tick: the epoll_wait timeout, which bounds how stale the
/// idle scan, the drain-deadline check, and the periodic stats dump can
/// be. 100 ms keeps those within 10% of any timeout above while costing
/// ~10 wakeups/s when idle.
inline constexpr int kPollTickMs = 100;

/// Default period of the --stats-json dump (atomic tmp+rename per dump).
/// 2 s keeps dashboards fresh without measurable serialization cost.
inline constexpr double kStatsPeriodMs = 2000.0;

// --- wire protocol ---------------------------------------------------------

/// One request line (newline-delimited JSON), terminator included. The
/// dominant payload is the query DSL text plus an entity list; real
/// questions are < 4 KiB, so 1 MiB is two orders of headroom while still
/// bounding what a single malicious line can make the parser touch.
/// A longer line gets a "line exceeds ..." error and the connection is
/// closed (protocol violation — resynchronization is not attempted).
inline constexpr size_t kMaxLineBytes = 1048576;  // 1 MiB

/// Per-connection read-buffer cap: the pipelined backlog a client may
/// buffer server-side (multiple complete lines plus one partial line).
/// 4x the line cap lets a well-behaved client pipeline a few large
/// requests; past it the connection is closed rather than growing the
/// buffer — backpressure belongs in the admission queue, not in hidden
/// per-connection memory.
inline constexpr size_t kMaxConnBufferBytes = 4 * kMaxLineBytes;

/// read(2) chunk size for the non-blocking reader. 64 KiB amortizes
/// syscalls on bulk pipelines and is small enough to keep one connection
/// from monopolizing a loop iteration.
inline constexpr size_t kReadChunkBytes = 65536;

/// Nesting depth the wire JSON parser accepts. The protocol itself needs
/// depth 3 (object -> array -> number); 16 tolerates future structured
/// fields while keeping the recursive-descent parser's stack bounded
/// against "[[[[..." bombs.
inline constexpr size_t kMaxJsonDepth = 16;

// --- request admission -----------------------------------------------------

/// Bounded service queue in front of the worker pool (default for
/// ServiceConfig::queue_capacity under the daemon). When it is full the
/// server rejects *immediately* with retry_after_ms instead of blocking
/// the event loop — admission control, not queuing, absorbs overload.
inline constexpr size_t kQueueCapacity = 256;

/// Hint returned with an admission rejection: how long a client should
/// wait before retrying. Roughly one queue drain at the p50 service time
/// of the BSBM workload (EXPERIMENTS.md); deliberately small so closed-
/// loop clients re-offer quickly once the queue moves.
inline constexpr double kRetryAfterMs = 50.0;

/// Query nodes per request. MBS enumeration and the matcher are
/// exponential in pattern size in the worst case (the paper evaluates
/// |Q| <= 12); 32 is far beyond any explanation workload and cheap to
/// check at admission by counting `node` declarations before parsing.
inline constexpr size_t kMaxQueryNodes = 32;

/// Entities (V_N / V_C) per request. Each entity multiplies verification
/// work; the paper's questions use |V| <= 5. 1024 bounds the request
/// JSON array and the per-entity loops.
inline constexpr size_t kMaxEntities = 1024;

/// Ceiling on AnswerConfig::max_mbs for network requests: a client may
/// lower the cap but not raise it past the library default (200000,
/// src/why/question.h), which already bounds exact enumeration at a few
/// seconds on the evaluation graphs. Without the clamp a request could
/// ask for effectively unbounded enumeration and ride out any deadline's
/// poll granularity.
inline constexpr size_t kMaxMbsVisits = 200000;

/// Update operations per {"op":"update"} wire request. One op touches a
/// constant number of rows, but the batch is applied on the event-loop
/// thread (updates serialize against each other anyway, and the loop is
/// the natural serialization point) — so a batch bounds how long the loop
/// stalls. 65536 ops apply in well under the poll tick on the evaluation
/// graphs; clients stream larger changes as multiple batches, each an
/// atomic epoch.
inline constexpr size_t kMaxUpdateOps = 65536;

/// Default AnswerConfig::exact_time_limit_ms stamped onto wire requests and
/// CLI questions, so an exact enumeration without an explicit deadline
/// still terminates.
inline constexpr double kExactTimeLimitMs = 30000.0;

}  // namespace whyq::server

#endif  // WHYQ_SERVER_LIMITS_H_
