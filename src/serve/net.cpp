#include "serve/net.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <optional>
#include <stdexcept>

namespace awe::serve::net {

namespace {

constexpr std::chrono::milliseconds kPollTick{100};

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

void set_cloexec(int fd) { ::fcntl(fd, F_SETFD, FD_CLOEXEC); }

}  // namespace

int listen_tcp(const std::string& host, std::uint16_t port, std::uint16_t& bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  set_cloexec(fd);
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("bad listen address: " + host);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0) {
    const int e = errno;
    ::close(fd);
    errno = e;
    throw_errno("bind/listen " + host + ":" + std::to_string(port));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    const int e = errno;
    ::close(fd);
    errno = e;
    throw_errno("getsockname");
  }
  bound_port = ntohs(addr.sin_port);
  return fd;
}

int listen_unix(const std::string& path) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path))
    throw std::runtime_error("unix socket path too long: " + path);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  set_cloexec(fd);
  // A kill -9'd predecessor leaves the path bound; unlink it so a
  // restart on the same path binds.
  ::unlink(path.c_str());
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0) {
    const int e = errno;
    ::close(fd);
    errno = e;
    throw_errno("bind/listen " + path);
  }
  return fd;
}

int connect_tcp(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  set_cloexec(fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("bad address: " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int e = errno;
    ::close(fd);
    errno = e;
    throw_errno("connect " + host + ":" + std::to_string(port));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path))
    throw std::runtime_error("unix socket path too long: " + path);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  set_cloexec(fd);
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int e = errno;
    ::close(fd);
    errno = e;
    throw_errno("connect " + path);
  }
  return fd;
}

void ignore_sigpipe() { ::signal(SIGPIPE, SIG_IGN); }

SelfPipe::SelfPipe() {
  if (::pipe(fds_) != 0) throw_errno("pipe");
  for (const int fd : fds_) {
    ::fcntl(fd, F_SETFL, O_NONBLOCK);
    set_cloexec(fd);
  }
}

SelfPipe::~SelfPipe() {
  ::close(fds_[0]);
  ::close(fds_[1]);
}

void SelfPipe::notify() {
  const char b = 1;
  // Signal-handler-safe: one write on a non-blocking fd; a full pipe means
  // a wake-up is already pending, which is all a notification needs.
  [[maybe_unused]] const ssize_t rc = ::write(fds_[1], &b, 1);
}

void SelfPipe::drain() {
  char buf[64];
  while (::read(fds_[0], buf, sizeof(buf)) > 0) {
  }
}

ReadStatus LineReader::read_line(std::string& out, std::chrono::milliseconds idle_timeout,
                                 std::chrono::milliseconds stall_timeout,
                                 const std::atomic<bool>& stop) {
  using clock = std::chrono::steady_clock;
  // kLine (the line is in `out`), kTooLong, or nothing while the line is
  // incomplete.  The search starts where the previous one stopped, so a
  // line arriving in many chunks is scanned once, not once per chunk.
  auto take_line = [&]() -> std::optional<ReadStatus> {
    const auto nl = buf_.find('\n', scanned_);
    if (nl == std::string::npos) {
      scanned_ = buf_.size();
      if (buf_.size() > max_line_) return ReadStatus::kTooLong;
      return std::nullopt;
    }
    if (nl > max_line_) return ReadStatus::kTooLong;
    out.assign(buf_, 0, nl);
    if (!out.empty() && out.back() == '\r') out.pop_back();
    buf_.erase(0, nl + 1);
    scanned_ = 0;
    return ReadStatus::kLine;
  };
  if (const auto st = take_line()) return *st;

  // The timer serves double duty: while the buffer is empty it measures
  // idleness; once the first byte of a line lands (reset below) it
  // measures how long the line takes to COMPLETE — the slow-loris signal.
  auto timer_start = clock::now();
  for (;;) {
    if (stop.load(std::memory_order_acquire)) return ReadStatus::kStopped;
    const auto limit = buf_.empty() ? idle_timeout : stall_timeout;
    if (limit.count() >= 0 && clock::now() - timer_start >= limit)
      return buf_.empty() ? ReadStatus::kIdle : ReadStatus::kStalled;

    pollfd pfd{fd_, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, static_cast<int>(kPollTick.count()));
    if (pr < 0) {
      if (errno == EINTR) continue;
      return ReadStatus::kError;
    }
    if (pr == 0) continue;

    char chunk[4096];
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n == 0) return ReadStatus::kClosed;
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return ReadStatus::kError;
    }
    const bool was_empty = buf_.empty();
    buf_.append(chunk, static_cast<std::size_t>(n));
    if (const auto st = take_line()) return *st;
    // First byte of an incomplete line: start the stall clock here, not at
    // call entry — an idle-for-minutes connection is not mid-line-stalled.
    // Deliberately NOT reset on later partial progress: a byte-at-a-time
    // trickle is exactly the stall being measured.
    if (was_empty) timer_start = clock::now();
  }
}

bool write_all(int fd, std::string_view data, std::chrono::milliseconds timeout,
               const std::atomic<bool>& stop) {
  using clock = std::chrono::steady_clock;
  std::size_t off = 0;
  auto last_progress = clock::now();
  while (off < data.size()) {
    if (stop.load(std::memory_order_acquire)) return false;
    if (clock::now() - last_progress >= timeout) return false;

    pollfd pfd{fd, POLLOUT, 0};
    const int pr = ::poll(&pfd, 1, static_cast<int>(kPollTick.count()));
    if (pr < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (pr == 0) continue;

    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return false;  // EPIPE/ECONNRESET: peer is gone; caller evicts quietly
    }
    off += static_cast<std::size_t>(n);
    last_progress = clock::now();
  }
  return true;
}

}  // namespace awe::serve::net
