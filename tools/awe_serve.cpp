// awe_serve — fault-tolerant evaluation daemon (DESIGN.md §16).
//
// Serves line-delimited JSON eval requests for ONE deck's compiled model
// over a unix or TCP socket, with per-request deadlines, admission
// control, slow-client eviction, watchdog supervision, crash-safe hot
// reload over the shared model store, and a graceful SIGTERM drain.
//
// Signals: SIGTERM starts a graceful drain (stop accepting, finish or
// deadline-out in-flight work, flush health, exit 0); SIGINT hard-stops.
// SIGPIPE is ignored — a vanished client is an eviction, not a death.
#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>

#include "core/cli_support.hpp"
#include "serve/server.hpp"

namespace {

std::atomic<int> g_signal{0};
int g_signal_pipe_write = -1;

void on_signal(int sig) {
  g_signal.store(sig, std::memory_order_relaxed);
  const char b = 1;
  // Async-signal-safe wake-up; a full pipe already has a wake-up pending.
  [[maybe_unused]] const ssize_t rc = ::write(g_signal_pipe_write, &b, 1);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace awe;
  cli::install_sigpipe_guard();
  const cli::HealthJsonSink sink = cli::HealthJsonSink::from_argv(argc, argv);

  serve::ServerConfig cfg;
  std::string ready_file;
  bool quiet = false;

  const cli::Parser cli{
      .tool = "awe_serve",
      .synopsis = "--deck FILE (--unix PATH | --tcp [--host H] [--port P]) [options]",
      .options = {
          cli::text("--deck", "FILE", cfg.deck_path,
                    "circuit deck with .symbol/.input/.output"),
          cli::text("--unix", "PATH", cfg.unix_path, "listen on a unix socket"),
          cli::flag("--tcp", cfg.tcp, "listen on TCP"),
          cli::text("--host", "H", cfg.host, "TCP host (default 127.0.0.1)"),
          cli::number("--port", "P", cfg.port, "TCP port (default 0 = any free port)"),
          cli::number("--order", "Q", cfg.model.order, "Padé order (default 2)", 1),
          cli::text("--cache-dir", "DIR", cfg.cache_dir,
                    "build/reload through the persistent model cache"),
          cli::number("--workers", "N", cfg.workers,
                      "eval worker threads (default 2)", 1),
          cli::number("--threads-per-worker", "N", cfg.threads_per_worker,
                      "sweep pool width per worker (default 1)"),
          cli::number("--max-queue", "N", cfg.max_queue,
                      "queued requests before shedding (default 16)"),
          cli::number("--max-line-bytes", "N", cfg.max_line_bytes,
                      "request line cap; longer evicts (default 1MiB)"),
          cli::number("--max-inflight-bytes", "N", cfg.max_inflight_bytes,
                      "queued request bytes before shedding (default 8MiB)"),
          cli::number("--max-points", "N", cfg.max_points,
                      "per-request point cap (default 1Mi)"),
          cli::number("--default-deadline-ms", "N", cfg.default_deadline_ms,
                      "deadline when a request names none (default 0 = none)"),
          cli::number("--max-deadline-ms", "N", cfg.max_deadline_ms,
                      "clamp for requested deadlines (default 60000)"),
          cli::number("--idle-timeout-ms", "N", cfg.idle_timeout,
                      "evict silent connections after N ms (default never)"),
          cli::number("--read-stall-ms", "N", cfg.read_stall_timeout,
                      "mid-line stall eviction (default 2000)"),
          cli::number("--write-timeout-ms", "N", cfg.write_timeout,
                      "response write stall eviction (default 2000)"),
          cli::number("--drain-timeout-ms", "N", cfg.drain_timeout,
                      "SIGTERM drain budget (default 10000)"),
          cli::flag("--watchdog", cfg.watchdog,
                    "force-cancel workers wedged past their deadline"),
          cli::number("--watchdog-interval-ms", "N", cfg.watchdog_interval,
                      "watchdog heartbeat check period (default 100)"),
          cli::number("--watchdog-grace-ms", "N", cfg.watchdog_grace,
                      "grace past the deadline before a kick (default 500)"),
          cli::number("--reload-attempts", "N", cfg.reload_attempts,
                      "reload retry budget (default 3)"),
          cli::number("--reload-backoff-ms", "N", cfg.reload_backoff,
                      "first reload retry backoff, doubling (default 25)"),
          cli::flag("--debug-ops", cfg.debug_ops,
                    "enable the sleep op and eval.cancel_after_checks (tests)"),
          cli::HealthJsonSink::option(),
          cli::text("--ready-file", "FILE", ready_file,
                    "write \"unix\" or \"tcp HOST PORT\" once listening"),
          cli::flag("--quiet", quiet, "suppress the startup/shutdown lines")},
      .sink = &sink};
  cli.parse(argc, argv);
  if (cfg.deck_path.empty() || cfg.unix_path.empty() == !cfg.tcp)
    cli.fail("needs --deck and exactly one of --unix, --tcp");

  serve::Server server(std::move(cfg));
  try {
    server.start();
  } catch (const std::exception& e) {
    // Startup failure still reports health: the JSON names the fail class
    // (bad deck, unbindable socket) so supervisors need not scrape stderr.
    std::fprintf(stderr, "awe_serve: startup failed: %s\n", e.what());
    sink.flush();
    return 2;
  }

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    std::fprintf(stderr, "awe_serve: pipe: %s\n", std::strerror(errno));
    server.stop();
    sink.flush();
    return 2;
  }
  ::fcntl(pipe_fds[0], F_SETFL, O_NONBLOCK);
  ::fcntl(pipe_fds[1], F_SETFL, O_NONBLOCK);
  g_signal_pipe_write = pipe_fds[1];
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);

  if (!quiet) {
    if (server.bound_port() != 0)
      std::fprintf(stderr, "awe_serve: listening on tcp port %u\n",
                   server.bound_port());
    else
      std::fprintf(stderr, "awe_serve: listening\n");
  }
  if (!ready_file.empty()) {
    const std::string tmp = ready_file + ".tmp";
    if (std::FILE* f = std::fopen(tmp.c_str(), "w")) {
      if (server.bound_port() != 0)
        std::fprintf(f, "tcp 127.0.0.1 %u\n", server.bound_port());
      else
        std::fprintf(f, "unix\n");
      std::fclose(f);
      std::rename(tmp.c_str(), ready_file.c_str());  // atomic ready signal
    }
  }

  // Wait for a signal; SIGTERM drains gracefully, SIGINT hard-stops.
  for (;;) {
    pollfd pfd{pipe_fds[0], POLLIN, 0};
    const int pr = ::poll(&pfd, 1, 500);
    if (pr < 0 && errno != EINTR) break;
    if (pr <= 0) continue;
    char buf[16];
    while (::read(pipe_fds[0], buf, sizeof(buf)) > 0) {
    }
    const int sig = g_signal.exchange(0, std::memory_order_relaxed);
    if (sig == SIGTERM) {
      if (!quiet) std::fprintf(stderr, "awe_serve: draining\n");
      server.request_drain();
      break;
    }
    if (sig != 0) {
      server.stop();
      break;
    }
  }
  server.wait();
  ::close(pipe_fds[0]);
  ::close(pipe_fds[1]);

  const auto s = server.stats().snapshot();
  if (!quiet)
    std::fprintf(stderr,
                 "awe_serve: exiting — %llu requests, %llu shed, %llu deadline-expired, "
                 "%llu evicted, %llu reload failures\n",
                 static_cast<unsigned long long>(s.requests),
                 static_cast<unsigned long long>(s.shed),
                 static_cast<unsigned long long>(s.deadline_expired),
                 static_cast<unsigned long long>(s.evicted),
                 static_cast<unsigned long long>(s.reload_failures));
  sink.flush_report(server.health_snapshot());
  return 0;
}
