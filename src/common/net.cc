#include "common/net.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <iterator>

namespace whyq {

namespace {

std::string Errno(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

// Sends small writes at once instead of holding them until the peer ACKs
// the previous segment, which a delayed ACK puts off by up to 40 ms: each
// side of the wire protocol writes one short line and then waits.
void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

void UniqueFd::Reset(int fd) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

bool SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

UniqueFd ListenTcp(uint16_t port, int backlog, std::string* error) {
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) {
    if (error != nullptr) *error = Errno("socket");
    return {};
  }
  int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    if (error != nullptr) *error = Errno("bind");
    return {};
  }
  if (::listen(fd.get(), backlog) != 0) {
    if (error != nullptr) *error = Errno("listen");
    return {};
  }
  if (!SetNonBlocking(fd.get())) {
    if (error != nullptr) *error = Errno("fcntl(O_NONBLOCK)");
    return {};
  }
  return fd;
}

UniqueFd AcceptTcp(int listen_fd) {
  UniqueFd fd(::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK));
  if (fd.valid()) SetNoDelay(fd.get());
  return fd;
}

uint16_t LocalPort(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return 0;
  }
  return ntohs(addr.sin_port);
}

UniqueFd ConnectTcp(uint16_t port, std::string* error) {
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) {
    if (error != nullptr) *error = Errno("socket");
    return {};
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    if (error != nullptr) *error = Errno("connect");
    return {};
  }
  SetNoDelay(fd.get());
  return fd;
}

WakePipe::WakePipe() {
  int fds[2] = {-1, -1};
  if (::pipe(fds) != 0) return;
  read_end_.Reset(fds[0]);
  write_end_.Reset(fds[1]);
  SetNonBlocking(read_end_.get());
  SetNonBlocking(write_end_.get());
}

void WakePipe::Notify() {
  char b = 0;
  // EAGAIN means the pipe already holds an unread wakeup — good enough.
  [[maybe_unused]] ssize_t n = ::write(write_end_.get(), &b, 1);
}

void WakePipe::Drain() {
  char buf[64];
  while (::read(read_end_.get(), buf, sizeof(buf)) > 0) {
  }
}

Poller::Poller() : epoll_(::epoll_create1(0)) {}

namespace {

uint32_t EpollEvents(bool want_read, bool want_write) {
  uint32_t ev = 0;
  if (want_read) ev |= EPOLLIN;
  if (want_write) ev |= EPOLLOUT;
  return ev;
}

}  // namespace

bool Poller::Add(int fd, bool want_read, bool want_write, uint64_t tag) {
  epoll_event ev{};
  ev.events = EpollEvents(want_read, want_write);
  ev.data.u64 = tag;
  return ::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, fd, &ev) == 0;
}

bool Poller::Mod(int fd, bool want_read, bool want_write, uint64_t tag) {
  epoll_event ev{};
  ev.events = EpollEvents(want_read, want_write);
  ev.data.u64 = tag;
  return ::epoll_ctl(epoll_.get(), EPOLL_CTL_MOD, fd, &ev) == 0;
}

void Poller::Del(int fd) {
  ::epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, fd, nullptr);
}

int Poller::Wait(int timeout_ms, std::vector<Event>* out) {
  epoll_event events[64];
  int n = ::epoll_wait(epoll_.get(), events,
                       static_cast<int>(std::size(events)), timeout_ms);
  if (n < 0) return errno == EINTR ? 0 : -1;
  for (int i = 0; i < n; ++i) {
    Event e;
    e.tag = events[i].data.u64;
    e.readable = (events[i].events & EPOLLIN) != 0;
    e.writable = (events[i].events & EPOLLOUT) != 0;
    e.error = (events[i].events & (EPOLLERR | EPOLLHUP)) != 0;
    out->push_back(e);
  }
  return n;
}

}  // namespace whyq
