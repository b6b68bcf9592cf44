#include "server/server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <fstream>
#include <utility>

#include "service/plan.h"

namespace whyq::server {

namespace {

// Poller tags: the two singleton fds, then connection ids.
constexpr uint64_t kListenTag = 0;
constexpr uint64_t kWakeTag = 1;
constexpr uint64_t kFirstConnTag = 2;

}  // namespace

std::string ServerSnapshot::ToJson() const {
  std::string o;
  ForEachField([&o](const char* key, uint64_t value) {
    o += o.empty() ? "{\"" : ",\"";
    o += key;
    o += "\":" + std::to_string(value);
  });
  return o + "}";
}

/// Per-connection state, owned by the event loop (single-threaded: only
/// worker callbacks run elsewhere, and they touch nothing here — they go
/// through the completion queue).
struct WhyqServer::Conn {
  UniqueFd fd;
  LineBuffer in{kMaxLineBytes, kMaxConnBufferBytes};
  std::string out;       // encoded responses awaiting write
  size_t out_off = 0;    // bytes of `out` already written
  size_t pending = 0;    // requests of this connection inside a service
  bool closing = false;  // no more reads; close once out + pending drain
  bool dead = false;     // close at the next safe point (set, never unset)
  bool want_write = false;  // current EPOLLOUT registration
  Timer idle;               // reset on every received byte
};

WhyqServer::WhyqServer(
    std::vector<std::pair<std::string, std::shared_ptr<const Graph>>> graphs,
    ServerConfig cfg)
    : cfg_(std::move(cfg)), next_conn_(kFirstConnTag) {
  for (auto& [name, graph] : graphs) {
    names_.push_back(name);
    ServiceConfig sc = cfg_.service;
    if (!cfg_.plan_store_dir.empty()) {
      // Per-graph store: plans compiled against one graph never collide
      // with (or evict) another's, and each service's Stats() reports its
      // own store counters.
      sc.plan_store =
          std::make_shared<PlanStore>(cfg_.plan_store_dir + "/" + name);
    }
    services_.push_back(
        std::make_unique<WhyqService>(std::move(graph), std::move(sc)));
  }
}

WhyqServer::~WhyqServer() = default;

bool WhyqServer::Start(std::string* error) {
  if (services_.empty()) {
    if (error != nullptr) *error = "no graphs to serve";
    return false;
  }
  if (!poller_.ok() || !wake_.ok()) {
    if (error != nullptr) *error = "cannot create epoll/self-pipe";
    return false;
  }
  listen_fd_ = ListenTcp(cfg_.port, kListenBacklog, error);
  if (!listen_fd_.valid()) return false;
  port_ = LocalPort(listen_fd_.get());
  poller_.Add(listen_fd_.get(), /*want_read=*/true, /*want_write=*/false,
              kListenTag);
  poller_.Add(wake_.read_fd(), /*want_read=*/true, /*want_write=*/false,
              kWakeTag);
  return true;
}

void WhyqServer::RequestStop() {
  stop_requested_.store(true, std::memory_order_relaxed);
  wake_.Notify();
}

ServerSnapshot WhyqServer::Snapshot() const {
  ServerSnapshot out;
  WHYQ_SERVER_COUNTERS(WHYQ_STATS_READ_COUNTER)
  return out;
}

std::string WhyqServer::StatsJson() const {
  std::string o = "{\"server\":" + Snapshot().ToJson() + ",\"service\":{";
  for (size_t i = 0; i < services_.size(); ++i) {
    if (i > 0) o += ",";
    o += "\"" + JsonEscape(names_[i]) + "\":" +
         services_[i]->Stats().ToJson();
  }
  o += "}}";
  return o;
}

void WhyqServer::AcceptNew() {
  for (;;) {
    int raw = ::accept(listen_fd_.get(), nullptr, nullptr);
    if (raw < 0) return;  // EAGAIN: the backlog is drained
    UniqueFd fd(raw);
    if (conns_.size() >= cfg_.max_connections) {
      // Refuse with a one-line diagnostic instead of silently resetting.
      // Best-effort blocking write on a fresh socket; then close.
      std::string line =
          EncodeErrorLine("null", "rejected", "connection limit reached");
      (void)::send(fd.get(), line.data(), line.size(), MSG_NOSIGNAL);
      refused_.Add();
      continue;
    }
    if (!SetNonBlocking(fd.get())) continue;
    uint64_t id = next_conn_++;
    auto conn = std::make_unique<Conn>();
    poller_.Add(fd.get(), /*want_read=*/true, /*want_write=*/false, id);
    conn->fd = std::move(fd);
    conns_.emplace(id, std::move(conn));
    accepted_.Add();
  }
}

void WhyqServer::CloseConn(uint64_t id, bool idle) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  poller_.Del(it->second->fd.get());
  // Discard unread input before closing: close(2) with bytes still in the
  // receive queue makes the kernel answer with RST, which can destroy
  // responses still in flight to the client. A drain must end in FIN —
  // clients that pipelined requests past shutdown get their admitted
  // responses plus a clean EOF, not a connection reset. (Bytes arriving
  // after this sweep still RST; that client is writing into a closed
  // server.)
  char discard[kReadChunkBytes];
  while (::recv(it->second->fd.get(), discard, sizeof discard,
                MSG_DONTWAIT) > 0) {
  }
  // Count before erasing: erasing closes the fd, and a client that sees
  // the EOF must find the close in the next snapshot (accepted == closed +
  // live holds for every observer).
  closed_.Add();
  if (idle) idle_closed_.Add();
  conns_.erase(it);
}

void WhyqServer::QueueResponse(uint64_t id, Conn* conn,
                               const std::string& line) {
  conn->out += line;
  responded_.Add();
  TryWrite(id, conn);
}

void WhyqServer::TryWrite(uint64_t id, Conn* conn) {
  while (conn->out_off < conn->out.size()) {
    ssize_t n = ::send(conn->fd.get(), conn->out.data() + conn->out_off,
                       conn->out.size() - conn->out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn->out_off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!conn->want_write) {
        conn->want_write = true;
        poller_.Mod(conn->fd.get(), /*want_read=*/!draining_ &&
                        !conn->closing,
                    /*want_write=*/true, id);
      }
      return;
    }
    // EPIPE/ECONNRESET and friends: the peer is gone.
    conn->dead = true;
    return;
  }
  conn->out.clear();
  conn->out_off = 0;
  if (conn->want_write) {
    conn->want_write = false;
    poller_.Mod(conn->fd.get(), /*want_read=*/!draining_ && !conn->closing,
                /*want_write=*/false, id);
  }
  if (conn->closing && conn->pending == 0) conn->dead = true;
}

void WhyqServer::HandleLine(uint64_t id, Conn* conn,
                            const std::string& line) {
  if (line.find_first_not_of(" \t") == std::string::npos) return;
  requests_.Add();
  WireRequest wr;
  std::string error;
  if (!ParseWireRequest(line, &wr, &error)) {
    bad_lines_.Add();
    QueueResponse(id, conn, EncodeErrorLine(wr.id_json, "bad_request", error));
    return;
  }
  if (wr.is_stats) {
    QueueResponse(id, conn, EncodeStatsResponse(wr.id_json, StatsJson()));
    return;
  }
  size_t idx = 0;  // default graph: the first one configured
  if (!wr.graph.empty()) {
    idx = names_.size();
    for (size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == wr.graph) idx = i;
    }
    if (idx == names_.size()) {
      bad_lines_.Add();
      QueueResponse(id, conn,
                    EncodeErrorLine(wr.id_json, "bad_request",
                                    "unknown graph '" + wr.graph + "'"));
      return;
    }
  }
  WhyqService* svc = services_[idx].get();
  if (wr.is_update) {
    // Applied inline on the loop thread: updates serialize against each
    // other anyway (WhyqService::ApplyUpdate holds update_mu_), batches are
    // bounded by kMaxUpdateOps, and in-flight reads keep their pinned epoch
    // — the loop stalls for the apply, readers never do.
    UpdateResult result;
    bool applied = svc->ApplyUpdate(wr.update, &result);
    uint64_t generation = applied ? svc->graph()->generation() : 0;
    if (applied) {
      updates_.Add();
    } else {
      bad_lines_.Add();
    }
    QueueResponse(id, conn,
                  EncodeUpdateResponse(wr.id_json, applied, generation,
                                       result));
    return;
  }
  std::string id_json = wr.id_json;
  RequestKind kind = wr.request.kind;
  // The response is encoded on the worker thread (it holds the answer and
  // the graph epoch the request pinned), then handed to the loop via the
  // completion queue.
  SubmitResult admitted = svc->TrySubmit(
      std::move(wr.request),
      [this, id, id_json, kind](ServiceResponse resp) {
        // resp.graph is the epoch the request ran against — the service's
        // current graph may be generations newer by now. It is null only on
        // the contained-exception path, whose status never renders graph
        // content.
        std::string encoded =
            resp.graph != nullptr
                ? EncodeResponse(id_json, kind, resp, *resp.graph)
                : EncodeErrorLine(id_json, "bad_request", resp.error);
        {
          MutexLock lock(completions_mu_);
          completions_.emplace_back(id, std::move(encoded));
        }
        wake_.Notify();
      });
  switch (admitted) {
    case SubmitResult::kAccepted:
      admitted_.Add();
      ++conn->pending;
      break;
    case SubmitResult::kQueueFull:
      rejected_.Add();
      QueueResponse(id, conn, EncodeRejected(id_json, kRetryAfterMs));
      break;
    case SubmitResult::kShutdown:
      QueueResponse(id, conn,
                    EncodeErrorLine(id_json, "shutdown", "server draining"));
      break;
  }
}

void WhyqServer::ReadConn(uint64_t id, Conn* conn) {
  char buf[kReadChunkBytes];
  for (;;) {
    ssize_t n = ::read(conn->fd.get(), buf, sizeof(buf));
    if (n > 0) {
      conn->idle.Reset();
      if (!conn->in.Append(buf, static_cast<size_t>(n))) {
        bad_lines_.Add();
        QueueResponse(id, conn,
                      EncodeErrorLine("null", "bad_request",
                                      "connection buffer limit exceeded"));
        conn->closing = true;
        break;
      }
      continue;
    }
    if (n == 0) {  // peer EOF: answer what is buffered, then close
      conn->closing = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    conn->dead = true;
    break;
  }
  std::string line;
  while (!conn->dead && !conn->closing) {
    LineBuffer::Pop pop = conn->in.PopLine(&line);
    if (pop == LineBuffer::Pop::kNone) break;
    if (pop == LineBuffer::Pop::kOversized) {
      bad_lines_.Add();
      QueueResponse(id, conn,
                    EncodeErrorLine("null", "bad_request",
                                    "line exceeds " +
                                        std::to_string(kMaxLineBytes) +
                                        " bytes"));
      conn->closing = true;
      break;
    }
    HandleLine(id, conn, line);
  }
  if (conn->closing && conn->pending == 0 && conn->out_off >= conn->out.size()) {
    conn->dead = true;
  }
  if (conn->closing && !conn->dead) {
    // Half-open: stop watching for reads, keep the write side alive for
    // in-flight responses.
    poller_.Mod(conn->fd.get(), /*want_read=*/false,
                /*want_write=*/conn->want_write, id);
  }
  if (conn->dead) CloseConn(id, /*idle=*/false);
}

void WhyqServer::FlushCompletions(bool draining) {
  std::vector<std::pair<uint64_t, std::string>> batch;
  {
    MutexLock lock(completions_mu_);
    batch.swap(completions_);
  }
  for (auto& [id, line] : batch) {
    auto it = conns_.find(id);
    if (it == conns_.end()) continue;  // connection died mid-request
    Conn* conn = it->second.get();
    if (conn->pending > 0) --conn->pending;
    if (draining) drained_.Add();
    QueueResponse(id, conn, line);
    if (conn->dead) CloseConn(id, /*idle=*/false);
  }
}

void WhyqServer::ScanIdle() {
  if (cfg_.idle_timeout_ms <= 0) return;
  std::vector<uint64_t> expired;
  for (auto& [id, conn] : conns_) {
    if (conn->pending == 0 && conn->out.empty() && !conn->closing &&
        conn->idle.ElapsedMillis() >= cfg_.idle_timeout_ms) {
      expired.push_back(id);
    }
  }
  for (uint64_t id : expired) CloseConn(id, /*idle=*/true);
}

void WhyqServer::DumpStatsIfDue(bool force) {
  if (cfg_.stats_json_path.empty()) return;
  if (!force && stats_timer_.ElapsedMillis() < cfg_.stats_period_ms) return;
  stats_timer_.Reset();
  // Atomic publication: readers either see the previous dump or this one,
  // never a torn file.
  std::string tmp = cfg_.stats_json_path + ".tmp";
  std::ofstream js(tmp);
  if (!js) return;  // nothing was created
  js << StatsJson() << "\n";
  js.close();
  // A failed write or rename (e.g. the path names a directory) must not
  // leave the temp file behind; the next dump simply tries again.
  if (!js || std::rename(tmp.c_str(), cfg_.stats_json_path.c_str()) != 0) {
    std::remove(tmp.c_str());
  }
}

int WhyqServer::Run(const volatile std::sig_atomic_t* stop_flag) {
  if (!listen_fd_.valid()) return 1;  // Start() not called or failed
  auto should_stop = [&] {
    return stop_requested_.load(std::memory_order_relaxed) ||
           (stop_flag != nullptr && *stop_flag != 0);
  };
  std::vector<Poller::Event> events;
  while (!should_stop()) {
    events.clear();
    if (poller_.Wait(kPollTickMs, &events) < 0) return 1;
    for (const Poller::Event& ev : events) {
      if (ev.tag == kListenTag) {
        if (ev.readable) AcceptNew();
        continue;
      }
      if (ev.tag == kWakeTag) {
        wake_.Drain();
        FlushCompletions(/*draining=*/false);
        continue;
      }
      auto it = conns_.find(ev.tag);
      if (it == conns_.end()) continue;
      Conn* conn = it->second.get();
      if (ev.error) {
        CloseConn(ev.tag, /*idle=*/false);
        continue;
      }
      if (ev.writable) {
        TryWrite(ev.tag, conn);
        if (conn->dead) {
          CloseConn(ev.tag, /*idle=*/false);
          continue;
        }
      }
      if (ev.readable) ReadConn(ev.tag, conn);  // may close the conn
    }
    FlushCompletions(/*draining=*/false);
    ScanIdle();
    DumpStatsIfDue(/*force=*/false);
  }
  int rc = Drain();
  for (auto& svc : services_) svc->Stop();
  DumpStatsIfDue(/*force=*/true);
  return rc;
}

int WhyqServer::Drain() {
  draining_ = true;
  // Stop accepting; stop reading (buffered-but-unparsed lines were never
  // admitted — discarding them is the documented drain contract). Keep the
  // write side of every connection alive for in-flight responses.
  poller_.Del(listen_fd_.get());
  listen_fd_.Reset();
  for (auto& [id, conn] : conns_) {
    poller_.Mod(conn->fd.get(), /*want_read=*/false,
                /*want_write=*/conn->want_write, id);
  }
  Timer deadline;
  std::vector<Poller::Event> events;
  for (;;) {
    // Close every connection with nothing left to deliver.
    std::vector<uint64_t> done;
    for (auto& [id, conn] : conns_) {
      if (conn->pending == 0 && conn->out_off >= conn->out.size()) {
        done.push_back(id);
      }
    }
    for (uint64_t id : done) CloseConn(id, /*idle=*/false);
    if (conns_.empty()) return 0;  // clean: every response delivered
    if (deadline.ElapsedMillis() >= cfg_.drain_deadline_ms) return 1;
    events.clear();
    if (poller_.Wait(kPollTickMs, &events) < 0) return 1;
    for (const Poller::Event& ev : events) {
      if (ev.tag == kWakeTag) {
        wake_.Drain();
        continue;  // completions flushed below
      }
      auto it = conns_.find(ev.tag);
      if (it == conns_.end()) continue;
      if (ev.error) {
        CloseConn(ev.tag, /*idle=*/false);
        continue;
      }
      if (ev.writable) {
        TryWrite(ev.tag, it->second.get());
        if (it->second->dead) CloseConn(ev.tag, /*idle=*/false);
      }
    }
    FlushCompletions(/*draining=*/true);
  }
}

}  // namespace whyq::server
