// Socket plumbing for the evaluation daemon (DESIGN.md §16).
//
// Everything here is poll(2)-driven and interruptible: reads and writes
// poll in short ticks against both the socket and a stop flag so a
// SIGTERM drain (or a test teardown) never waits on a stuck peer.  Writes
// use MSG_NOSIGNAL and handle short writes — a client that disappears
// mid-response produces an error return, never a SIGPIPE.  The line
// reader enforces a maximum line length (a request is attacker-supplied
// bytes) and distinguishes "idle between requests" from "stalled mid-
// line": only the latter is a slow-loris signature worth evicting.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

namespace awe::serve::net {

/// Bind + listen on a TCP socket.  `port` 0 picks an ephemeral port;
/// `bound_port` receives the actual one.  Throws std::runtime_error.
int listen_tcp(const std::string& host, std::uint16_t port, std::uint16_t& bound_port);

/// Bind + listen on a Unix-domain socket, replacing a stale path (a
/// kill -9'd predecessor leaves one behind).  Throws std::runtime_error.
int listen_unix(const std::string& path);

/// Connect helpers for clients (loadgen, tests).  Throw std::runtime_error.
int connect_tcp(const std::string& host, std::uint16_t port);
int connect_unix(const std::string& path);

/// Ignore SIGPIPE process-wide; a dead peer surfaces as EPIPE instead.
void ignore_sigpipe();

/// Wake-a-poll-loop primitive.  Signal-safe: notify() is one write(2) on a
/// non-blocking pipe, callable from a signal handler.
class SelfPipe {
 public:
  SelfPipe();
  ~SelfPipe();
  SelfPipe(const SelfPipe&) = delete;
  SelfPipe& operator=(const SelfPipe&) = delete;

  int read_fd() const { return fds_[0]; }
  void notify();
  void drain();

 private:
  int fds_[2];
};

enum class ReadStatus : std::uint8_t {
  kLine,     ///< a complete line is in `out` (newline stripped)
  kIdle,     ///< idle_timeout expired with NO partial line buffered
  kStalled,  ///< stall_timeout expired MID-line (slow-loris; evict)
  kTooLong,  ///< line (before its newline) exceeded max_line bytes (evict)
  kClosed,   ///< orderly EOF
  kStopped,  ///< stop flag observed
  kError,    ///< read(2) error
};

/// Buffered newline-delimited reader over one fd.
class LineReader {
 public:
  LineReader(int fd, std::size_t max_line) : fd_(fd), max_line_(max_line) {}

  /// Block (in poll ticks) until a line, a timeout, EOF, or `stop`.
  /// idle_timeout applies while the buffer holds no partial line;
  /// stall_timeout applies from the first byte of an incomplete line.
  ReadStatus read_line(std::string& out, std::chrono::milliseconds idle_timeout,
                       std::chrono::milliseconds stall_timeout,
                       const std::atomic<bool>& stop);

  /// Bytes buffered beyond the last returned line.
  std::size_t buffered() const { return buf_.size(); }

 private:
  int fd_;
  std::size_t max_line_;
  std::string buf_;
  std::size_t scanned_ = 0;  ///< leading bytes of buf_ known to hold no '\n'
};

/// Write all of `data`, polling for writability in ticks; fails (false)
/// on peer loss, `timeout` without progress, or `stop`.
bool write_all(int fd, std::string_view data, std::chrono::milliseconds timeout,
               const std::atomic<bool>& stop);

}  // namespace awe::serve::net
