#ifndef PERFBENCH_WIRE_CLIENT_H_
#define PERFBENCH_WIRE_CLIENT_H_

#include <cstdint>
#include <string>

#include "common/net.h"

namespace perfbench {

/// A blocking newline-delimited JSON client for the whyq daemon: one
/// request line out, one response line back. Calls block in the kernel;
/// nothing spins.
class WireClient {
 public:
  /// Connects to 127.0.0.1:`port`; check ok() afterwards.
  explicit WireClient(uint16_t port);

  bool ok() const { return fd_.valid(); }
  const std::string& error() const { return error_; }

  /// Sends `line` (which ends in '\n') and waits for the response line.
  /// False on a transport failure or after the receive timeout, which only
  /// guards against a hung daemon; it never limits measured work.
  bool Call(const std::string& line, std::string* response) {
    return Send(line) && Receive(response);
  }

  /// The halves of Call, for sending several requests before reading their
  /// responses (set-up prepares every query this way).
  bool Send(const std::string& line);
  bool Receive(std::string* response);

 private:
  whyq::UniqueFd fd_;
  std::string buf_;
  std::string error_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WIRE_CLIENT_H_
