#ifndef WHYQ_COMMON_NET_H_
#define WHYQ_COMMON_NET_H_

#include <cstdint>
#include <string>
#include <vector>

namespace whyq {

/// RAII file descriptor: closes on destruction, move-only. The building
/// block for sockets, pipes and pollers — a descriptor leak in a
/// long-lived daemon is a slow death by EMFILE.
class UniqueFd {
 public:
  UniqueFd() = default;
  explicit UniqueFd(int fd) : fd_(fd) {}
  ~UniqueFd() { Reset(); }

  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;
  UniqueFd(UniqueFd&& other) noexcept : fd_(other.Release()) {}
  UniqueFd& operator=(UniqueFd&& other) noexcept {
    if (this != &other) {
      Reset();
      fd_ = other.Release();
    }
    return *this;
  }

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int Release() {
    int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void Reset(int fd = -1);

 private:
  int fd_ = -1;
};

/// Puts `fd` into non-blocking mode (O_NONBLOCK). Returns false on error.
bool SetNonBlocking(int fd);

/// Creates a non-blocking TCP listener bound to 127.0.0.1:`port`
/// (loopback only — the daemon has no authentication; exposure beyond the
/// host is a proxy's job). `port` 0 binds an ephemeral port; read it back
/// with LocalPort(). Returns an invalid fd and sets `error` on failure.
UniqueFd ListenTcp(uint16_t port, int backlog, std::string* error);

/// Accepts one pending connection on the listener `listen_fd`, readied for
/// an event loop: non-blocking, with TCP_NODELAY. Returns an invalid fd
/// when nothing is pending (or accept fails).
UniqueFd AcceptTcp(int listen_fd);

/// The locally bound port of a socket (0 on error).
uint16_t LocalPort(int fd);

/// Blocking TCP connect to 127.0.0.1:`port` (test/bench client side), with
/// TCP_NODELAY.
UniqueFd ConnectTcp(uint16_t port, std::string* error);

/// Self-pipe wakeup channel: worker threads Notify() to make the event
/// loop's poller return; the loop Drain()s pending notifications. Both
/// ends are non-blocking, so Notify never blocks a worker (a full pipe
/// already guarantees a pending wakeup).
class WakePipe {
 public:
  /// Creates the pipe; `ok()` is false (and the fds invalid) on failure.
  WakePipe();

  bool ok() const { return read_end_.valid() && write_end_.valid(); }
  int read_fd() const { return read_end_.get(); }

  /// Thread-safe; async-signal-safe (a single write(2)).
  void Notify();

  /// Consumes every pending notification byte.
  void Drain();

 private:
  UniqueFd read_end_;
  UniqueFd write_end_;
};

/// Thin epoll wrapper (level-triggered). Registrations carry a caller
/// tag returned with each event, so the loop never maps fd -> state
/// itself. Linux-only, like the daemon it serves.
class Poller {
 public:
  struct Event {
    uint64_t tag = 0;
    bool readable = false;
    bool writable = false;
    bool error = false;  // EPOLLERR / EPOLLHUP
  };

  Poller();

  bool ok() const { return epoll_.valid(); }

  bool Add(int fd, bool want_read, bool want_write, uint64_t tag);
  bool Mod(int fd, bool want_read, bool want_write, uint64_t tag);
  void Del(int fd);

  /// Waits up to `timeout_ms` (-1 = forever) and appends ready events to
  /// `out`. Returns the number of events, 0 on timeout, -1 on error
  /// (EINTR is reported as 0 — the caller rechecks its stop flag).
  int Wait(int timeout_ms, std::vector<Event>* out);

 private:
  UniqueFd epoll_;
};

}  // namespace whyq

#endif  // WHYQ_COMMON_NET_H_
