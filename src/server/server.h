#ifndef WHYQ_SERVER_SERVER_H_
#define WHYQ_SERVER_SERVER_H_

#include <atomic>
#include <csignal>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/mutex.h"
#include "common/net.h"
#include "common/timer.h"
#include "server/limits.h"
#include "server/wire.h"
#include "service/service.h"

namespace whyq::server {

/// Tuning for one WhyqServer. Defaults come from limits.h; a deployment
/// overrides them via CLI flags (tools/whyq_cli.cc `serve`).
struct ServerConfig {
  uint16_t port = 0;  // 0 = bind an ephemeral port (read back via port())
  size_t max_connections = kMaxConnections;
  double idle_timeout_ms = kIdleTimeoutMs;
  double drain_deadline_ms = kDrainDeadlineMs;

  /// Periodic stats dump: every stats_period_ms the full stats JSON is
  /// written to stats_json_path via tmp+rename (readers never observe a
  /// partial file). Empty path disables the dump.
  std::string stats_json_path;
  double stats_period_ms = kStatsPeriodMs;

  /// Applied to every per-graph WhyqService the server builds.
  ServiceConfig service;

  /// Non-empty: every per-graph service gets its own persistent PlanStore
  /// at `plan_store_dir/<graph name>` (created if missing). Boot warm-loads
  /// each service's prepared cache from its store, completed builds persist
  /// across restarts, and each graph's stats block reports its own
  /// plan_store_* counters. `service.plan_store` must stay null — stores
  /// are per-graph, never shared.
  std::string plan_store_dir;
};

/// Monotonic daemon counters, snapshotted for the stats JSON ("server"
/// block; rows and meanings: WHYQ_SERVER_COUNTERS in common/stats_fields.h,
/// glossary in docs/ARCHITECTURE.md). Connection counters satisfy
/// accepted = closed + live; request counters satisfy
/// requests = admitted + rejected + bad_lines + stats-requests + updates
/// (a failed update counts under bad_lines instead of updates) and
/// responded counts every response line queued toward a client.
struct ServerSnapshot {
  WHYQ_SERVER_COUNTERS(WHYQ_STATS_U64)

  /// Calls f(json_key, value) for every counter, in declaration order.
  template <typename F>
  void ForEachField(F&& f) const {
    WHYQ_SERVER_COUNTERS(WHYQ_STATS_VISIT)
  }

  std::string ToJson() const;
};

/// The whyq network daemon: a single-threaded epoll event loop accepting
/// newline-delimited JSON questions on 127.0.0.1 and dispatching them to
/// per-graph WhyqService worker pools (docs/ARCHITECTURE.md "Server").
///
/// Life of a request: bytes arrive on a non-blocking socket into the
/// connection's LineBuffer; each complete line is parsed/validated
/// (wire.h) and admitted via WhyqService::TrySubmit — a full queue answers
/// immediately with retry_after_ms (admission control, never blocking the
/// loop). The worker that executes the request encodes the response on its
/// own thread, pushes it onto the completion queue and wakes the loop
/// through the self-pipe; the loop writes it back, honoring EAGAIN via
/// EPOLLOUT re-arming.
///
/// Shutdown: when the stop flag (SIGTERM/SIGINT in the CLI) or
/// RequestStop() fires, the loop closes the listener, stops reading
/// (buffered-but-unparsed lines are discarded — they were never admitted),
/// finishes in-flight requests and flushes their responses up to
/// drain_deadline_ms, then exits — Run() returns 0 iff every admitted
/// request got its response out.
///
/// Thread-safety: Start/Run drive everything from the calling thread;
/// RequestStop(), Snapshot() and StatsJson() may be called from any thread.
class WhyqServer {
 public:
  /// One service per named graph; the first entry answers requests that
  /// carry no "graph" field. Graph pointers are shared — callers may keep
  /// reading them concurrently.
  WhyqServer(
      std::vector<std::pair<std::string, std::shared_ptr<const Graph>>>
          graphs,
      ServerConfig cfg);

  ~WhyqServer();

  WhyqServer(const WhyqServer&) = delete;
  WhyqServer& operator=(const WhyqServer&) = delete;

  /// Binds and listens (loopback only). False + `error` on failure.
  bool Start(std::string* error);

  /// The bound port (after Start); the CLI prints it so scripts can drive
  /// an ephemeral-port server.
  uint16_t port() const { return port_; }

  /// Runs the event loop until `*stop_flag` becomes nonzero (a
  /// sig_atomic_t so a signal handler can set it directly; may be null) or
  /// RequestStop() is called, then drains. Returns 0 on a clean drain,
  /// 1 when the drain deadline expired with work still in flight.
  int Run(const volatile std::sig_atomic_t* stop_flag);

  /// Asks a running Run() to begin the drain (test hook; thread-safe).
  void RequestStop();

  ServerSnapshot Snapshot() const;

  /// The full daemon stats document:
  ///   {"server":<ServerSnapshot>,"service":{"<graph>":<StatsSnapshot>}}
  std::string StatsJson() const;

  const std::vector<std::string>& graph_names() const { return names_; }

 private:
  struct Conn;

  void AcceptNew();
  void ReadConn(uint64_t id, Conn* conn);
  void HandleLine(uint64_t id, Conn* conn, const std::string& line);
  void QueueResponse(uint64_t id, Conn* conn, const std::string& line);
  void TryWrite(uint64_t id, Conn* conn);
  void FlushCompletions(bool draining) WHYQ_EXCLUDES(completions_mu_);
  void CloseConn(uint64_t id, bool idle);
  void ScanIdle();
  void DumpStatsIfDue(bool force);
  int Drain();

  ServerConfig cfg_;
  std::vector<std::string> names_;

  UniqueFd listen_fd_;
  uint16_t port_ = 0;
  Poller poller_;
  WakePipe wake_;

  std::map<uint64_t, std::unique_ptr<Conn>> conns_;
  uint64_t next_conn_ = 0;

  // Worker -> loop handoff: encoded responses keyed by connection id.
  Mutex completions_mu_;
  std::vector<std::pair<uint64_t, std::string>> completions_
      WHYQ_GUARDED_BY(completions_mu_);

  std::atomic<bool> stop_requested_{false};
  bool draining_ = false;
  Timer stats_timer_;

  // Counters are relaxed atomics (common/metrics.h) so Snapshot() from a
  // test/monitor thread never races the loop.
  WHYQ_SERVER_COUNTERS(WHYQ_STATS_COUNTER)

  // Declared last: destroying a service joins its workers, whose `done`
  // callbacks touch the completion queue and wake pipe above — those must
  // still be alive until every worker is gone.
  std::vector<std::unique_ptr<WhyqService>> services_;
};

}  // namespace whyq::server

#endif  // WHYQ_SERVER_SERVER_H_
