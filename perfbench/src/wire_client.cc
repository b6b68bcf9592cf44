#include "wire_client.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <cerrno>
#include <cstring>

namespace perfbench {

namespace {
// Far above any single request of the benchmark's workloads; a run that
// reaches it has hung and fails.
constexpr int kReceiveTimeoutSeconds = 120;
}  // namespace

WireClient::WireClient(uint16_t port) : fd_(whyq::ConnectTcp(port, &error_)) {
  if (!fd_.valid()) return;
  timeval tv{};
  tv.tv_sec = kReceiveTimeoutSeconds;
  setsockopt(fd_.get(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

bool WireClient::Send(const std::string& line) {
  size_t sent = 0;
  while (sent < line.size()) {
    ssize_t n = send(fd_.get(), line.data() + sent, line.size() - sent,
                     MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      error_ = std::string("send: ") + std::strerror(errno);
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

bool WireClient::Receive(std::string* response) {
  for (;;) {
    size_t nl = buf_.find('\n');
    if (nl != std::string::npos) {
      response->assign(buf_, 0, nl);
      buf_.erase(0, nl + 1);
      return true;
    }
    // Acknowledge at once (the kernel clears this flag as it goes): the
    // daemon does not set TCP_NODELAY, so with delayed ACKs every reply
    // after the first of a pipelined window waited up to 40 ms, and set-up
    // timed that timer rather than the preparing.
    int one = 1;
    setsockopt(fd_.get(), IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
    char chunk[65536];
    ssize_t n = recv(fd_.get(), chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      error_ = n == 0 ? "connection closed"
                      : std::string("recv: ") + std::strerror(errno);
      return false;
    }
    buf_.append(chunk, static_cast<size_t>(n));
  }
}

}  // namespace perfbench
